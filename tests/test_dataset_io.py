import numpy as np
import pytest

from glyphforge import dataset_io as dio
from glyphforge import ensemble, mlp, pipeline
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

    @pytest.mark.parametrize("maxval, raster", [(b"255", b"300 0"), (b"255", b"0 -1"), (b"15", b"16 0")])
    def test_p2_sample_outside_maxval(self, tmp_path, maxval, raster):
        path = tmp_path / "r.pgm"
        path.write_bytes(b"P2\n2 1\n" + maxval + b"\n" + raster + b"\n")
        with pytest.raises(IoError, match="P2 sample outside"):
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
        samples = dio.load_corpus(tmp_path)
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
        self.make_corpus(tmp_path)
        (tmp_path / "ka" / "broken.pgm").write_bytes(b"P5\n9 9\n255\nxx")
        with pytest.warns(UserWarning):
            samples = dio.load_corpus(tmp_path)
        assert len(samples) == 6
        with pytest.raises(IoError, match="broken"):
            dio.load_corpus(tmp_path, strict=True)

    def test_save_round_trip(self, tmp_path):
        self.make_corpus(tmp_path / "src")
        samples = dio.load_corpus(tmp_path / "src")
        dio.save_corpus(samples, tmp_path / "dst")
        again = dio.load_corpus(tmp_path / "dst")
        assert [s.id for s in again] == [s.id for s in samples]
        assert all(np.array_equal(a.image, b.image) for a, b in zip(samples, again))


class TestSynthCorpus:
    def test_paper_scale_counts(self):
        samples = dio.synth_corpus(20, 75, seed=1)
        assert len(samples) == 1500
        assert len({s.label for s in samples}) == 20

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
        table = self.make_table()
        path = tmp_path / "f.csv"
        dio.save_features(table, path)
        text = path.read_text().replace("dim=63", "dim=64")
        path.write_text(text)
        with pytest.raises(FormatError):
            dio.load_features(path)

    def test_flags_in_header(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "f.csv"
        dio.save_features(table, path)
        assert path.read_text().split("\n", 1)[0] == "# extractor=moment63 dim=63"
        assert dio.load_features(path).flags == {}
        table.flags = {"log_moments": True}
        dio.save_features(table, path)
        assert path.read_text().split("\n", 1)[0] == "# extractor=moment63 dim=63 log_moments=1"
        assert dio.load_features(path).flags == {"log_moments": True}
        assert table.subset([2, 0]).flags == {"log_moments": True}

    @pytest.mark.parametrize("text", [
        "# extractor=x dim=2\nid,lab,1.0,abc\n",
        "# extractor=x dim=2\nid,lab,1.0,\n",
        "# extractor=x dim=2 log_moments=yes\n",
    ])
    def test_non_numeric_value(self, tmp_path, text):
        path = tmp_path / "n.csv"
        path.write_text(text)
        with pytest.raises(FormatError):
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
    dio.save_features(dio.FeatureTable("moment63", 63, rows, {"log_moments": True}), tmp_path / "f.csv")
    members = []
    for extractor_id in ("chain200", "moment63"):
        model = mlp.init_model(mlp.MlpConfig(input_size=3, hidden_size=2, output_size=2), ["c0", "c1"], extractor_id)
        model.feature_min, model.feature_max = np.zeros(3), np.ones(3)
        members.append(model)
    members[1].extractor_flags = {"log_moments": True}
    mlp.save_model(members[0], tmp_path / "m.mlp")
    ensemble.save_ensemble(ensemble.EnsembleModel(*members, ensemble.compute_weights(0.75, 0.5)), tmp_path / "e.glyph")
    loaders = {
        "p2.pgm": [dio.read_pgm],
        "p5.pgm": [dio.read_pgm],
        "f.csv": [dio.load_features],
        "m.mlp": [mlp.load_model, ensemble.load_any_model],
        "e.glyph": [ensemble.load_any_model],
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
