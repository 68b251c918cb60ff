import hashlib
import re
import time

import numpy as np
import pytest

from glyphforge import dataset_io as dio
from glyphforge import cli, ensemble, image_prep, mlp, pipeline
from glyphforge.errors import ConfigError, CorpusError, FormatError, GlyphforgeError, IoError


class TestPgm:
    def test_p5_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        img = rng.integers(0, 256, size=(13, 9), dtype=np.uint8)
        path = tmp_path / "x.pgm"
        dio.write_pgm(path, img)
        assert np.array_equal(dio.read_pgm(path), img)

    def test_p2_with_comments(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n# a comment\n3 2\n255\n0 10 20\n30 40 50\n")
        img = dio.read_pgm(path)
        assert np.array_equal(img, [[0, 10, 20], [30, 40, 50]])

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(IoError):
            dio.read_pgm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(IoError):
            dio.read_pgm(path)

    @pytest.mark.parametrize("header", [b"P5\nabc 64\n255\n", b"P5\n64 6x\n255\n", b"P2\n2 2\n2.5\n"])
    def test_non_integer_header_field(self, tmp_path, header):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + b"\x00" * 4)
        with pytest.raises(IoError):
            dio.read_pgm(path)

    @pytest.mark.parametrize("header", [b"P5\n6_4 64\n255\n", b"P5\n64 +64\n255\n", b"P5\n64 64\n2_55\n"])
    def test_header_number_is_ascii_digits_only(self, tmp_path, header):
        img = np.random.default_rng(64).integers(0, 256, size=(64, 64), dtype=np.uint8)
        path = tmp_path / "h.pgm"
        path.write_bytes(header + img.tobytes())
        with pytest.raises(IoError, match="non-integer PGM width, height or maxval"):
            dio.read_pgm(path)
        path.write_bytes(b"P5\n064 64\n255\n" + img.tobytes())  # a leading zero is still a decimal number
        assert np.array_equal(dio.read_pgm(path), img)

    @pytest.mark.parametrize("data, error", [
        pytest.param(b"# by hand\nP5\n2 1\n255\n\x00\x07", None, id="comment-before-magic"),
        pytest.param(b"P5 # magic\n2 # width\n1\t# height\n255\n\x00\x07", None, id="comment-between-tokens"),
        pytest.param(b"P5\n64#c 1\n255\n\x00\x07", "non-integer PGM width", id="hash-inside-width"),
        pytest.param(b"P5#c\n2 1\n255\n\x00\x07", "unsupported PGM magic", id="hash-inside-magic"),
        pytest.param(b"P5\n#" + b"#" * 100_000 + b"\n2 1\n255\n\x00\x07", None, id="100000-hash-comment"),
        pytest.param(b"P2\n2 1\n255\n+5 1_0\n", "non-numeric P2 raster", id="p2-sign-and-underscore"),
    ])
    def test_tokens(self, tmp_path, data, error):
        """A '#' that starts a token starts a comment to the end of its line; one inside a token is part of it.

        A P2 sample is ASCII digits, as the header numbers are: int() would read +5 and 1_0.
        """
        path = tmp_path / "t.pgm"
        path.write_bytes(data)
        start = time.perf_counter()
        if error:
            with pytest.raises(IoError, match=error):
                dio.read_pgm(path)
        else:
            assert np.array_equal(dio.read_pgm(path), [[0, 7]])
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("magic, maxval, raster", [
        pytest.param(b"P2", b"255", b"300 0", id="255-300 0"),
        pytest.param(b"P2", b"255", b"0 -1", id="255-0 -1"),
        pytest.param(b"P2", b"15", b"16 0", id="15-16 0"),
        pytest.param(b"P5", b"100", bytes([200, 0]), id="P5-100-200 0"),
        pytest.param(b"P5", b"15", bytes([0, 16]), id="P5-15-0 16"),
        pytest.param(b"P5", b"1", bytes([2, 1]), id="P5-1-2 1"),
    ])
    def test_p2_sample_outside_maxval(self, tmp_path, magic, maxval, raster):
        path = tmp_path / "r.pgm"
        path.write_bytes(magic + b"\n2 1\n" + maxval + b"\n" + raster + b"\n")
        with pytest.raises(IoError, match=f"{magic.decode()} sample outside"):
            dio.read_pgm(path)

    def test_binary_dump_convention(self, tmp_path):
        binary = np.array([[True, False], [False, True]])
        path = tmp_path / "bin.pgm"
        dio.write_binary_pgm(path, binary)
        img = dio.read_pgm(path)
        assert np.array_equal(img, [[0, 255], [255, 0]])


class TestLoadCorpus:
    def make_corpus(self, root, classes=("ka", "kha"), per_class=3):
        rng = np.random.default_rng(62)
        for cls in classes:
            (root / cls).mkdir(parents=True)
            for j in range(per_class):
                img = np.full((10, 10), 255, np.uint8)
                img[2:8, 2:8] = rng.integers(0, 60, size=(6, 6))
                dio.write_pgm(root / cls / f"s{j}.pgm", img)

    def test_directory_contract(self, tmp_path):
        self.make_corpus(tmp_path)
        samples = list(dio.load_corpus(tmp_path))
        assert len(samples) == 6
        assert sorted({s.label for s in samples}) == ["ka", "kha"]
        assert samples[0].id == "ka/s0.pgm"

    def test_empty_root(self, tmp_path):
        with pytest.raises(CorpusError):
            dio.load_corpus(tmp_path)

    def test_deterministic_order(self, tmp_path):
        self.make_corpus(tmp_path)
        a = [s.id for s in dio.load_corpus(tmp_path)]
        b = [s.id for s in dio.load_corpus(tmp_path)]
        assert a == b == sorted(a)

    def test_malformed_skipped_unless_strict(self, tmp_path):
        """In place of a malformed image, iterating yields the text that pipeline.iter_features warns with."""
        self.make_corpus(tmp_path)
        broken = tmp_path / "ka" / "broken.pgm"
        broken.write_bytes(b"P5\n9 9\n255\nxx")
        items = list(dio.load_corpus(tmp_path))
        assert items[0] == f"skipping malformed image: {broken}: truncated PGM raster"
        assert [s.id for s in items[1:]] == [f"{c}/s{j}.pgm" for c in ("ka", "kha") for j in range(3)]
        with pytest.raises(IoError, match="broken"):
            list(dio.load_corpus(tmp_path, strict=True))

    def test_blank_skipped_unless_strict(self, tmp_path):
        """A uniform image is skipped with a text naming the path it was read from, as a malformed one is."""
        self.make_corpus(tmp_path)
        for name, level in (("a_blank.pgm", 255), ("dark.pgm", 0)):
            dio.write_pgm(tmp_path / "ka" / name, np.full((10, 10), level, np.uint8))
        broken = tmp_path / "ka" / "broken.pgm"  # sorts between the two
        broken.write_bytes(b"P5\n9 9\n255\nxx")
        items = list(dio.load_corpus(tmp_path))
        assert [s if isinstance(s, str) else s.id for s in items] == [
            f"skipping {tmp_path / 'ka' / 'a_blank.pgm'}: {image_prep.NO_FOREGROUND}",
            f"skipping malformed image: {broken}: truncated PGM raster",
            f"skipping {tmp_path / 'ka' / 'dark.pgm'}: {image_prep.NO_FOREGROUND}",
            *(f"{c}/s{j}.pgm" for c in ("ka", "kha") for j in range(3)),
        ]
        with pytest.raises(CorpusError, match=re.escape(f"{tmp_path / 'ka' / 'a_blank.pgm'}: {image_prep.NO_FOREGROUND}")):
            list(dio.load_corpus(tmp_path, strict=True))

    def test_save_round_trip(self, tmp_path):
        self.make_corpus(tmp_path / "src")
        samples = list(dio.load_corpus(tmp_path / "src"))
        dio.save_corpus(samples, tmp_path / "dst")
        again = list(dio.load_corpus(tmp_path / "dst"))
        assert [s.id for s in again] == [s.id for s in samples]
        assert all(np.array_equal(a.image, b.image) for a, b in zip(samples, again))


def _reference_draw_line(canvas: np.ndarray, p0, p1) -> None:
    """Bresenham segment, stamping a 3x3 block per pixel (stroke width 3)."""
    x0, y0 = int(round(p0[0])), int(round(p0[1]))
    x1, y1 = int(round(p1[0])), int(round(p1[1]))
    steps = max(abs(x1 - x0), abs(y1 - y0), 1)
    for t in range(steps + 1):
        x = int(round(x0 + (x1 - x0) * t / steps))
        y = int(round(y0 + (y1 - y0) * t / steps))
        r0, r1 = max(y - 1, 0), min(y + 2, canvas.shape[0])
        c0, c1 = max(x - 1, 0), min(x + 2, canvas.shape[1])
        canvas[r0:r1, c0:c1] = True


def reference_render_polyline(vertices) -> np.ndarray:
    """The per-pixel renderer: one (V, 2) polyline, segment by segment, point by point."""
    canvas = np.zeros((dio.SYNTH_CANVAS, dio.SYNTH_CANVAS), dtype=bool)
    vertices = np.clip(vertices, 1, dio.SYNTH_CANVAS - 2)
    for p0, p1 in zip(vertices[:-1], vertices[1:]):
        _reference_draw_line(canvas, p0, p1)
    return np.where(canvas, 0, 255).astype(np.uint8)


def random_polylines(count, seed=64):
    """count polylines of 1-8 vertices in [-5, 70]: some vertices at k + 0.5 (ties), some repeated (zero-length segments)."""
    rng = np.random.default_rng(seed)
    polylines = []
    for _ in range(count):
        verts = rng.uniform(-5, 70, size=(int(rng.integers(1, 9)), 2))
        ties = rng.random(verts.shape) < 0.3
        verts[ties] = np.floor(verts[ties]) + 0.5
        for k in np.flatnonzero(rng.random(len(verts) - 1) < 0.2):
            verts[k + 1] = verts[k]
        polylines.append(verts)
    return polylines


def assert_same_image(image, want):
    assert image.shape == want.shape and image.dtype == want.dtype
    assert image.tobytes() == want.tobytes()


class TestRenderPolyline:
    def test_class_templates_match_reference(self):
        for c in range(20):
            template = dio._class_template(c)
            assert_same_image(dio.render_polyline(template), reference_render_polyline(template))

    def test_random_polylines_match_reference_singly_and_stacked(self):
        polylines = random_polylines(1200)
        assert any((p % 1 == 0.5).any() for p in polylines)
        assert any((p[1:] == p[:-1]).all(axis=1).any() for p in polylines)
        by_count = {}
        for verts in polylines:
            want = reference_render_polyline(verts)
            assert_same_image(dio.render_polyline(verts), want)
            by_count.setdefault(len(verts), []).append((verts, want))
        for pairs in by_count.values():
            stack, wants = zip(*pairs)
            assert_same_image(dio.render_polyline(np.stack(stack)), np.stack(wants))

    def test_one_polyline_stack(self):
        verts = np.array([[3.5, 60.2], [40.0, 2.5], [62.5, 33.0]])
        assert_same_image(dio.render_polyline(verts[None]), reference_render_polyline(verts)[None])

    def test_one_vertex_is_blank(self):
        blank = np.full((dio.SYNTH_CANVAS, dio.SYNTH_CANVAS), 255, np.uint8)
        assert_same_image(dio.render_polyline([[30.0, 30.0]]), blank)
        assert_same_image(dio.render_polyline(np.full((2, 1, 2), 30.0)), np.stack([blank, blank]))


# sha256 of the per-file sha256 hex digests of `synth --classes 20 --per-class 75 --seed 7`, in sorted path
# order, as perfbench hashes its set-up corpus; every golden digest downstream rests on these bytes
PAPER_CORPUS_SHA256 = "8bb1c4b37e94727bdcdb0a39bf5400ca64140b027dd826ff49f6b1d5db91fbbf"


class TestSynthCorpus:
    def test_paper_scale_counts(self):
        samples = dio.synth_corpus(20, 75, seed=1)
        assert len(samples) == 1500
        assert len({s.label for s in samples}) == 20

    def test_paper_scale_corpus_bytes(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth", "--classes", "20", "--per-class", "75", "--seed", "7", "--out", str(corpus)]) == 0
        paths = sorted(corpus.rglob("*.pgm"))
        assert len(paths) == 1500
        digests = b"".join(hashlib.sha256(p.read_bytes()).hexdigest().encode() for p in paths)
        assert hashlib.sha256(digests).hexdigest() == PAPER_CORPUS_SHA256

    def test_same_seed_identical(self):
        a = dio.synth_corpus(3, 4, seed=5)
        b = dio.synth_corpus(3, 4, seed=5)
        assert [s.id for s in a] == [s.id for s in b]
        assert all(np.array_equal(x.image, y.image) for x, y in zip(a, b))

    def test_different_seed_differs(self):
        a = dio.synth_corpus(3, 4, seed=5)
        b = dio.synth_corpus(3, 4, seed=6)
        assert any(not np.array_equal(x.image, y.image) for x, y in zip(a, b))

    def test_per_class_zero(self):
        with pytest.raises(ConfigError, match="1 sample per class"):
            dio.synth_corpus(4, 0, seed=0)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            dio.synth_corpus(1, 5, seed=0)

    @pytest.mark.parametrize("classes, per_class", [(1, 5), (0, 5), (-2, 5), (4, -1)])
    def test_out_of_range_counts_are_config_error(self, classes, per_class):
        with pytest.raises(ConfigError):
            dio.synth_corpus(classes, per_class, seed=0)

    def test_images_have_foreground(self):
        for s in dio.synth_corpus(5, 3, seed=9):
            assert (s.image == 0).any()
            assert s.image.shape == (64, 64)

    def test_templates_distinct_under_chain200(self):
        templates = [
            dio.LabeledSample(id=f"t{c:02d}", label=f"t{c:02d}", image=dio.render_polyline(dio._class_template(c)))
            for c in range(20)
        ]
        table = pipeline.extract_table(templates, "chain200")
        assert len(table.rows) == 20
        assert len({tuple(vec) for _, _, vec in table.rows}) == 20


class TestFeatureTable:
    def make_table(self, n=4):
        rng = np.random.default_rng(63)
        rows = [
            (f"c/s{i}.pgm", "c", rng.normal(size=63) * 10.0**rng.integers(-8, 8))
            for i in range(n)
        ]
        return dio.FeatureTable(extractor_id="moment63", dim=63, rows=rows)

    def test_round_trip_exact(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "f.csv"
        dio.save_features(table, path)
        loaded = dio.load_features(path)
        assert loaded.extractor_id == "moment63" and loaded.dim == 63
        for (ida, la, va), (idb, lb, vb) in zip(table.rows, loaded.rows):
            assert (ida, la) == (idb, lb)
            assert np.array_equal(va, vb)

    def test_empty_table(self, tmp_path):
        table = dio.FeatureTable(extractor_id="chain200", dim=200, rows=[])
        path = tmp_path / "e.csv"
        dio.save_features(table, path)
        assert dio.load_features(path).rows == []

    def test_extractor_dim_consistency(self):
        with pytest.raises(FormatError):
            dio.FeatureTable(extractor_id="chain200", dim=63, rows=[])

    def test_tampered_header(self, tmp_path):
        """Another dim or extractor; a dim int() reads as 63 but not as written; an unregistered extractor."""
        path = tmp_path / "f.csv"
        dio.save_features(self.make_table(), path)
        text = path.read_text()
        for old, new in [
            ("dim=63", "dim=64"), ("dim=63", "dim=+63"), ("dim=63", "dim=6_3"), ("dim=63", "dim=\u0666\u0663"),
            ("extractor=moment63", "extractor=chain200"), ("extractor=moment63", "extractor=zzz"),
            ("extractor=moment63", "extractor="),
        ]:
            path.write_text(text.replace(old, new, 1), encoding="utf-8")
            with pytest.raises(FormatError, match=re.escape(str(path))):
                dio.load_features(path)

    def test_flags_in_header(self, tmp_path):
        """The option reaches the CSV header, the table read back, a subset, the .mlp flags line and the model."""
        for extractor_id, dim, option, header, flags_line in [
            ("moment63", 63, False, "# extractor=moment63 dim=63", "flags "),
            ("moment63", 63, True, "# extractor=moment63 dim=63 log_moments=1", "flags log_moments=1"),
            ("chain200", 200, False, "# extractor=chain200 dim=200", "flags "),
            ("chain200", 200, True, "# extractor=chain200 dim=200 normalize=1", "flags normalize=1"),
        ]:
            case = f"{extractor_id}-{'on' if option else 'off'}"
            rng = np.random.default_rng(dim)
            rows = [(f"c{i % 2}/s{i}.pgm", f"c{i % 2}", rng.normal(size=dim)) for i in range(4)]
            table = dio.FeatureTable(extractor_id, dim, rows, option)
            path = tmp_path / f"{case}.csv"
            dio.save_features(table, path)
            assert path.read_text().split("\n", 1)[0] == header, case
            loaded = dio.load_features(path)
            assert loaded.option is option, case
            assert table.subset([2, 0]).option is option, case
            ((model, _),) = pipeline.train_models([[loaded]], ["c0", "c1"], hidden_size=2, max_epochs=1)
            model.save(tmp_path / f"{case}.mlp")
            assert flags_line in (tmp_path / f"{case}.mlp").read_text().splitlines(), case
            assert mlp.load_model(tmp_path / f"{case}.mlp").extractors == [(extractor_id, option)], case

    @pytest.mark.parametrize("value", ["7", "-3", "01", "true", ""])
    def test_option_other_than_0_or_1_is_format_error(self, tmp_path, value):
        path = tmp_path / "f.csv"
        dio.save_features(self.make_table(), path)
        path.write_text(path.read_text().replace("dim=63", f"dim=63 log_moments={value}", 1))
        with pytest.raises(FormatError, match=f"log_moments={value} is not 0 or 1"):
            dio.load_features(path)

    @pytest.mark.parametrize("header, key", [
        ("extractor=chain200 dim=5 dim=200", "dim"),
        ("extractor=moment63 dim=200 extractor=chain200", "extractor"),
        ("extractor=moment63 dim=63 log_moments=1 log_moments=0", "log_moments"),
    ])
    def test_repeated_header_key_is_format_error(self, tmp_path, header, key):
        path = tmp_path / "f.csv"
        path.write_text(f"# {header}\nc/s0.pgm,c,{','.join(['0.5'] * 200)}\n")
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: repeated key '{key}'"):
            dio.load_features(path)

    @pytest.mark.parametrize("text, error", [
        ("# extractor=moment63 dim=63\nid,lab," + "1.0," * 62 + "abc\n", "could not convert string to float: 'abc'"),
        ("# extractor=moment63 dim=63\nid,lab," + "1.0," * 62 + "\n", "could not convert string to float: ''"),
        ("# extractor=moment63 dim=63 log_moments=yes\n", "option log_moments=yes is not 0 or 1"),
    ], ids=["abc", "empty", "yes"])
    def test_non_numeric_value(self, tmp_path, text, error):
        path = tmp_path / "n.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=error):
            dio.load_features(path)

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff11.5", " 3.0", "\t3.0", "3.0 ", "3.0\r"])
    def test_value_with_underscore_or_non_ascii_is_format_error(self, tmp_path, value):
        """float() reads 1_0 as 10.0, an Arabic-Indic or a full-width digit as a number, and strips whitespace, a
        CRLF line's CR too; the writers write none of them."""
        path = tmp_path / "u.csv"
        rows = [("c_1/s_0.pgm", "c_1", "2.0"), ("\u0915/s1.pgm", "\u0915", "3.0")]
        path.write_text(
            "# extractor=chain200 dim=200\n" + "".join(f"{i},{lab},{'0.5,' * 199}{v}\n" for i, lab, v in rows),
            encoding="utf-8",
        )
        # a sample id or label may hold '_' and non-ASCII characters
        loaded = dio.load_features(path)
        assert [(i, lab, vec[-1]) for i, lab, vec in loaded.rows] == [(i, lab, float(v)) for i, lab, v in rows]
        path.write_text(path.read_text(encoding="utf-8").replace(",3.0\n", f",{value}\n"), encoding="utf-8")
        with pytest.raises(FormatError, match="line 3: a value holds ('_' or a non-ASCII character|whitespace)"):
            dio.load_features(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, value):
        table = self.make_table()
        table.rows[1][2][5] = float(value)
        path = tmp_path / "n.csv"
        dio.save_features(table, path)
        with pytest.raises(FormatError, match="non-finite"):
            dio.load_features(path)

    def test_unknown_extractor(self, tmp_path):
        with pytest.raises(FormatError, match="unknown extractor"):
            dio.FeatureTable(extractor_id="foo", dim=2, rows=[])
        path = tmp_path / "u.csv"
        path.write_text("# extractor=foo dim=2\nid,lab,1.0,2.0\n")
        with pytest.raises(FormatError, match="unknown extractor"):
            dio.load_features(path)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\xff\xfe\x00\x80")
        with pytest.raises(FormatError):
            dio.load_features(path)
        with pytest.raises(IoError):
            dio.load_features(tmp_path)

    def test_subset(self):
        table = self.make_table()
        sub = table.subset([3, 1])
        assert (sub.extractor_id, sub.dim) == ("moment63", 63)
        assert [r[0] for r in sub.rows] == ["c/s3.pgm", "c/s1.pgm"]

    def test_row_length_validated(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("# extractor=moment63 dim=63\nid,lab,1.0,2.0\n")
        with pytest.raises(FormatError):
            dio.load_features(path)


# an inserted byte is one of the characters the file formats are made of, or else any byte
_FORMAT_BYTES = b"0123456789-+.e \n#=,@"


def _mutants(data, rng, count):
    """count copies of data, each with 1 to 3 of: a bit flip, an inserted byte, a deleted byte, a truncation."""
    for _ in range(count):
        buf = bytearray(data)
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(len(buf) + 1))
            op = rng.choice(4, p=[0.3, 0.3, 0.3, 0.1])
            if op == 0 and at < len(buf):
                buf[at] ^= 1 << int(rng.integers(8))
            elif op == 1:
                pool = _FORMAT_BYTES if rng.random() < 0.75 else range(256)
                buf.insert(at, pool[int(rng.integers(len(pool)))])
            elif op == 2:
                del buf[at : at + 1]
            elif op == 3:
                del buf[at:]
        yield bytes(buf)


def test_mutated_files_raise_only_glyphforge_errors(tmp_path):
    """Flipped, inserted, deleted and truncated bytes in a valid PGM, CSV, .mlp or .glyph: a loader raises
    a GlyphforgeError or loads the file, and nothing else escapes."""
    rng = np.random.default_rng(2010)
    dio.write_pgm(tmp_path / "p5.pgm", rng.integers(0, 256, size=(3, 4), dtype=np.uint8))
    (tmp_path / "p2.pgm").write_bytes(b"P2\n# glyph\n4 3\n255\n0 255 128 7\n200 31 99 255\n12 0 250 64\n")
    rows = [(f"c{i}/s{i}.pgm", f"c{i}", rng.normal(size=63)) for i in range(2)]
    dio.save_features(dio.FeatureTable("moment63", 63, rows, True), tmp_path / "f.csv")
    members = []
    for extractor_id, dim in (("chain200", 200), ("moment63", 63)):
        members.append(mlp.init_model(mlp.MlpConfig(dim, hidden_size=2, output_size=2), ["c0", "c1"], extractor_id))
    members[1].option = True
    mlp.save_model(members[0], tmp_path / "m.mlp")
    ensemble.save_ensemble(ensemble.EnsembleModel(*members, ensemble.compute_weights(0.75, 0.5)), tmp_path / "e.glyph")
    # a maxval below 255, so that a flipped raster bit can exceed it
    raster = np.random.default_rng(200).integers(0, 201, size=12, dtype=np.uint8).tobytes()
    (tmp_path / "p5low.pgm").write_bytes(b"P5\n4 3\n200\n" + raster)
    loaders = {
        "p2.pgm": [dio.read_pgm],
        "p5.pgm": [dio.read_pgm],
        "f.csv": [dio.load_features],
        "m.mlp": [mlp.load_model, ensemble.load_any_model],
        "e.glyph": [ensemble.load_any_model],
        "p5low.pgm": [dio.read_pgm],
    }
    for name, loads in loaders.items():
        original = (tmp_path / name).read_bytes()
        mutant_path = tmp_path / f"mutant.{name}"  # beside e.glyph's member files
        for load in loads:
            load(tmp_path / name)
        for mutant in _mutants(original, rng, 300):
            mutant_path.write_bytes(mutant)
            for load in loads:
                try:
                    load(mutant_path)
                except GlyphforgeError:
                    pass
                except Exception as exc:
                    pytest.fail(f"{load.__qualname__} on mutated {name} {mutant!r}: {exc!r}")
