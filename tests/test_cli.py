import builtins
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from glyphforge import cli, dataset_io as dio, ensemble, image_prep, mlp, pipeline
from glyphforge.errors import CorpusError
from test_dataset_io import _mutants


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert cli.main(["synth", "--classes", "3", "--per-class", "8", "--seed", "5", "--out", str(root)]) == 0
    return root


@pytest.fixture(scope="module")
def feature_files(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("features")
    chain = out / "chain.csv"
    moment = out / "moment.csv"
    assert cli.main(["extract", "--corpus", str(corpus), "--extractor", "chain200", "--out", str(chain)]) == 0
    assert cli.main(["extract", "--corpus", str(corpus), "--extractor", "moment63", "--out", str(moment)]) == 0
    return chain, moment


@pytest.fixture(scope="module")
def ensemble_file(feature_files, tmp_path_factory):
    chain, moment = feature_files
    path = tmp_path_factory.mktemp("ens") / "ens.glyph"
    assert cli.main([
        "train", "--features", str(chain), "--features2", str(moment),
        "--ensemble", "--out", str(path), "--epochs", "10", "--seed", "2",
    ]) == 0
    return path


@pytest.fixture
def calls(monkeypatch):
    """Images passed to image_prep.binarize and image_prep.thin; thin takes one image or a stack."""
    counts = {"binarize": 0, "thin": 0}
    for name in counts:
        def counted(image, _name=name, _fn=getattr(image_prep, name)):
            counts[_name] += image.shape[0] if image.ndim == 3 else 1
            return _fn(image)
        monkeypatch.setattr(image_prep, name, counted)
    return counts


@pytest.fixture
def trainings(monkeypatch):
    """(config, number of training rows) of every lane of every mlp.train_lanes call, all made in this process."""
    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)  # a forked child's calls would not be seen here
    seen = []

    def recorded(models, datasets, _train_lanes=mlp.train_lanes):
        seen.extend((model.config, len(dataset)) for model, dataset in zip(models, datasets))
        return _train_lanes(models, datasets)

    monkeypatch.setattr(mlp, "train_lanes", recorded)
    return seen


def test_synth_writes_corpus(corpus):
    samples = list(dio.load_corpus(corpus))
    assert len(samples) == 24
    assert len({s.label for s in samples}) == 3


def test_extract_dims(feature_files):
    chain, moment = feature_files
    assert dio.load_features(chain).dim == 200
    assert dio.load_features(moment).dim == 63


def test_extract_missing_corpus_exit_2(tmp_path):
    code = cli.main([
        "extract", "--corpus", str(tmp_path / "nope"),
        "--extractor", "chain200", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


def test_extract_dump_stages(corpus, feature_files, tmp_path, calls):
    out = tmp_path / "f.csv"
    stages = tmp_path / "stages"
    assert cli.main([
        "extract", "--corpus", str(corpus), "--extractor", "chain200",
        "--out", str(out), "--dump-stages", str(stages),
    ]) == 0
    names = os.listdir(stages)
    assert any(n.endswith(".contour.pgm") for n in names)
    assert any(n.endswith(".thinned.pgm") for n in names)
    # one pass: each image is binarized and thinned once, and the table is the one written without the flag
    assert calls == {"binarize": 24, "thin": 24}
    assert out.read_bytes() == feature_files[0].read_bytes()
    assert len(names) == 4 * 24


def test_train_records_default_hidden(feature_files, tmp_path, capsys):
    from glyphforge import mlp

    chain, moment = feature_files
    out = tmp_path / "chain.mlp"
    assert cli.main([
        "train", "--features", str(chain), "--out", str(out),
        "--epochs", "40", "--seed", "1",
    ]) == 0
    assert mlp.load_model(out).config.hidden_size == 50
    out2 = tmp_path / "moment.mlp"
    assert cli.main([
        "train", "--features", str(moment), "--out", str(out2),
        "--epochs", "40", "--seed", "1",
    ]) == 0
    assert mlp.load_model(out2).config.hidden_size == 45


def test_train_hidden_override(feature_files, tmp_path):
    from glyphforge import mlp

    chain, _ = feature_files
    out = tmp_path / "m.mlp"
    assert cli.main([
        "train", "--features", str(chain), "--out", str(out),
        "--hidden", "30", "--epochs", "20", "--seed", "1",
    ]) == 0
    assert mlp.load_model(out).config.hidden_size == 30


def test_train_single_then_predict_image(feature_files, corpus, tmp_path, capsys):
    from glyphforge import mlp

    chain, _ = feature_files
    out = tmp_path / "chain.mlp"
    capsys.readouterr()
    assert cli.main([
        "train", "--features", str(chain), "--out", str(out),
        "--epochs", "20", "--seed", "1",
    ]) == 0
    summary = capsys.readouterr().out.splitlines()
    assert len(summary) == 2 and summary[0].startswith("member 1 (chain200): ")
    assert " epochs, final MSE " in summary[0]
    assert type(ensemble.load_any_model(out)) is mlp.MlpModel
    model = mlp.load_model(out)
    assert model.extractor_id == "chain200"
    sample_id, _, vec = dio.load_features(chain).rows[0]
    capsys.readouterr()
    assert cli.main(["predict", "--model", str(out), "--image", str(corpus / sample_id), "-k", "1"]) == 0
    top = capsys.readouterr().out.split()[1].split(":")[0]
    assert top == mlp.predict(model, vec)[0][0]


def test_train_eval_predict_ensemble(feature_files, corpus, tmp_path, capsys):
    from glyphforge import ensemble

    chain, moment = feature_files
    ens_path = tmp_path / "ens.glyph"
    assert cli.main([
        "train", "--features", str(chain), "--features2", str(moment),
        "--ensemble", "--out", str(ens_path), "--epochs", "60", "--seed", "2",
    ]) == 0
    ens = ensemble.load_ensemble(ens_path)
    assert ens.weights.w1 + ens.weights.w2 == pytest.approx(1.0)

    report = tmp_path / "rep.txt"
    confusion = tmp_path / "conf.csv"
    assert cli.main([
        "eval", "--model", str(ens_path), "--features", str(chain),
        "--features2", str(moment), "--report", str(report),
        "--confusion-csv", str(confusion),
    ]) == 0
    assert "top-1 accuracy" in report.read_text()
    assert confusion.read_text().startswith("true\\pred,")

    sample = sorted((corpus / "c00").iterdir())[0]
    assert cli.main(["predict", "--model", str(ens_path), "--image", str(sample), "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().split("\n")[-1].split()) == 4  # path + 3 ranks


def test_second_table_trains_the_ensemble_without_flag(feature_files, tmp_path, capsys):
    chain, moment = feature_files
    path = tmp_path / "x.glyph"
    capsys.readouterr()
    assert cli.main([
        "train", "--features", str(chain), "--features2", str(moment),
        "--out", str(path), "--epochs", "10", "--seed", "2",
    ]) == 0
    out = capsys.readouterr().out.splitlines()
    ens = ensemble.load_any_model(path)
    assert [e for e, _ in ens.extractors] == ["chain200", "moment63"]
    assert mlp.load_model(tmp_path / "x.chain.mlp").extractor_id == "chain200"
    assert mlp.load_model(tmp_path / "x.moment.mlp").extractor_id == "moment63"
    assert out[0].startswith("member 1 (chain200): ") and " epochs, final MSE " in out[0]
    assert out[1].startswith("member 2 (moment63): ")
    assert out[2].startswith("fusion: calibration accuracy d1=") and " w2=" in out[2]
    assert out[3] == f"wrote {path}"


def test_cli_ensemble_files_equal_pipeline_files(feature_files, ensemble_file, tmp_path):
    tables = [dio.load_features(p) for p in feature_files]
    labels = sorted({lab for _, lab, _ in tables[0].rows})
    ens, _, _ = pipeline.train_ensemble_on_tables(*tables, labels, seed=2, max_epochs=10)
    ensemble.save_ensemble(ens, tmp_path / "ens.glyph")
    for name in ("ens.glyph", "ens.chain.mlp", "ens.moment.mlp"):
        assert (tmp_path / name).read_bytes() == ensemble_file.with_name(name).read_bytes()


def test_swapped_tables_name_member_files_by_extractor(feature_files, tmp_path):
    chain, moment = feature_files
    path = tmp_path / "s.glyph"
    assert cli.main([
        "train", "--features", str(moment), "--features2", str(chain),
        "--out", str(path), "--epochs", "10", "--seed", "2",
    ]) == 0
    assert path.read_text().splitlines()[1:3] == ["model1 s.moment.mlp", "model2 s.chain.mlp"]
    assert mlp.load_model(tmp_path / "s.chain.mlp").extractor_id == "chain200"
    assert mlp.load_model(tmp_path / "s.moment.mlp").extractor_id == "moment63"
    assert [e for e, _ in ensemble.load_any_model(path).extractors] == ["moment63", "chain200"]


def test_ensemble_flag_without_features2_exit_2(feature_files, tmp_path):
    chain, _ = feature_files
    assert cli.main(["train", "--features", str(chain), "--ensemble", "--out", str(tmp_path / "e.glyph")]) == 2


@pytest.mark.parametrize("extractor, table", [("chain200", 0), ("moment63", 1)])
def test_train_two_tables_of_one_extractor_exit_2(feature_files, tmp_path, capsys, extractor, table):
    """Two tables of one extractor would train two identical members: exit 2 before any trains, no file written."""
    features = str(feature_files[table])
    capsys.readouterr()
    assert cli.main([
        "train", "--features", features, "--features2", features, "--out", str(tmp_path / "same.glyph"),
        "--epochs", "2",
    ]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: two feature tables of {extractor}: an ensemble needs two extractors\n"
    assert list(tmp_path.iterdir()) == []


def test_train_reordered_features2_exit_2(feature_files, tmp_path, capsys):
    chain, moment = feature_files
    lines = moment.read_text().splitlines()
    reordered = tmp_path / "moment.csv"
    reordered.write_text("\n".join([lines[0]] + lines[:0:-1]) + "\n")
    assert cli.main([
        "train", "--features", str(chain), "--features2", str(reordered),
        "--out", str(tmp_path / "e.glyph"), "--epochs", "2",
    ]) == 2
    assert "same samples" in capsys.readouterr().err


def test_eval_without_features2_for_ensemble_exit_2(feature_files, tmp_path):
    chain, moment = feature_files
    ens_path = tmp_path / "e.glyph"
    cli.main([
        "train", "--features", str(chain), "--features2", str(moment),
        "--ensemble", "--out", str(ens_path), "--epochs", "10", "--seed", "2",
    ])
    assert cli.main(["eval", "--model", str(ens_path), "--features", str(chain)]) == 2


@pytest.mark.parametrize("extractor, flag, raw", [
    ("moment63", "--log-moments", 1), ("chain200", "--normalize", 0),
])
def test_eval_of_a_model_on_a_table_without_its_option_exit_2(
    feature_files, corpus, tmp_path, capsys, extractor, flag, raw
):
    features, model_path = tmp_path / "f.csv", tmp_path / "m.mlp"
    assert cli.main(["extract", "--corpus", str(corpus), "--extractor", extractor, flag, "--out", str(features)]) == 0
    assert cli.main(["train", "--features", str(features), "--out", str(model_path), "--epochs", "5"]) == 0
    assert cli.main(["eval", "--model", str(model_path), "--features", str(features)]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--model", str(model_path), "--features", str(feature_files[raw])]) == 2
    out, err = capsys.readouterr()
    option = flag[2:].replace("-", "_")
    assert out == ""
    assert err == f"error: model reads {extractor} {option}=1 features (--features, then --features2), given {extractor}\n"


def test_eval_reads_an_option_written_off_as_no_option(feature_files, tmp_path):
    """A log_moments=0 table is read as one without the option, and a model trained on it writes "flags "."""
    _, moment = feature_files
    model_path, off, off_model = tmp_path / "m.mlp", tmp_path / "off.csv", tmp_path / "off.mlp"
    assert cli.main(["train", "--features", str(moment), "--out", str(model_path), "--epochs", "5"]) == 0
    header, rest = moment.read_text().split("\n", 1)
    off.write_text(f"{header} log_moments=0\n{rest}")
    assert cli.main(["eval", "--model", str(model_path), "--features", str(off)]) == 0
    assert cli.main(["train", "--features", str(off), "--out", str(off_model), "--epochs", "5"]) == 0
    assert "flags " in off_model.read_text().splitlines()
    assert off_model.read_bytes() == model_path.read_bytes()
    assert cli.main(["eval", "--model", str(off_model), "--features", str(moment)]) == 0


def test_crossval_single_extractor(corpus, tmp_path):
    out = tmp_path / "cv.txt"
    assert cli.main([
        "crossval", "--corpus", str(corpus), "--extractor", "chain200",
        "--folds", "3", "--seed", "42", "--epochs", "30", "--out", str(out),
    ]) == 0
    text = out.read_text()
    assert text.count("fold ") == 3
    assert "mean:" in text and "stddev:" in text


def test_synth_refuses_used_out(tmp_path, capsys):
    """An --out that exists and is not an empty directory is a CorpusError before anything is written."""
    out, notes = tmp_path / "d", tmp_path / "notes.txt"
    assert cli.main(["synth", "--classes", "3", "--per-class", "6", "--seed", "1", "--out", str(out)]) == 0
    notes.write_text("notes\n")
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    for used in (out, notes):
        assert cli.main(["synth", "--classes", "2", "--per-class", "2", "--seed", "2", "--out", str(used)]) == 2
        assert capsys.readouterr().err == f"error: --out {used} exists and is not an empty directory\n"
    assert len(before) == 18
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert notes.read_text() == "notes\n"


def test_seed_defaults_to_0_whatever_the_environment(monkeypatch, tmp_path):
    """Only --seed sets the seed: with GLYPHFORGE_SEED=abc set, synth without --seed writes the seed-0 corpus."""
    assert cli.main(["synth", "--out", str(tmp_path / "seed0"), "--seed", "0"]) == 0
    monkeypatch.setenv("GLYPHFORGE_SEED", "abc")
    assert cli.main(["synth", "--out", str(tmp_path / "x")]) == 0
    written = sorted(p.relative_to(tmp_path / "x") for p in (tmp_path / "x").rglob("*.pgm"))
    assert written == sorted(p.relative_to(tmp_path / "seed0") for p in (tmp_path / "seed0").rglob("*.pgm"))
    assert all((tmp_path / "x" / p).read_bytes() == (tmp_path / "seed0" / p).read_bytes() for p in written)


@pytest.mark.parametrize("extractor, flag", [("moment63", "--log-moments"), ("chain200", "--normalize")])
def test_extractor_flags_reach_predict(corpus, tmp_path, capsys, extractor, flag):
    features = tmp_path / "f.csv"
    model_path = tmp_path / "m.mlp"
    assert cli.main(["extract", "--corpus", str(corpus), "--extractor", extractor, flag, "--out", str(features)]) == 0
    assert cli.main(["train", "--features", str(features), "--out", str(model_path), "--epochs", "20", "--seed", "1"]) == 0
    model = mlp.load_model(model_path)
    assert model.extractors == [(extractor, True)]
    sample_id, _, vec = dio.load_features(features).rows[0]
    capsys.readouterr()
    assert cli.main(["predict", "--model", str(model_path), "--image", str(corpus / sample_id), "-k", "1"]) == 0
    label, score = capsys.readouterr().out.split()[1].split(":")
    want_label, want_score = mlp.predict(model, vec)[0]
    assert (label, score) == (want_label, f"{want_score:.4f}")


@pytest.mark.parametrize("extractor", ["", "bogus"])
def test_predict_unknown_extractor_exit_2(feature_files, corpus, tmp_path, capsys, extractor):
    chain, _ = feature_files
    path = tmp_path / "m.mlp"
    assert cli.main(["train", "--features", str(chain), "--out", str(path), "--epochs", "5"]) == 0
    path.write_text(path.read_text().replace("extractor chain200\n", f"extractor {extractor}\n"))
    image = sorted((corpus / "c00").iterdir())[0]
    assert cli.main(["predict", "--model", str(path), "--image", str(image)]) == 2
    assert "unknown extractor" in capsys.readouterr().err


def test_extract_non_integer_pgm_header(corpus, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(corpus, root)
    out = tmp_path / "f.csv"
    # a glyph's raster under header numbers int() reads as 64, 64 and 255, but that are not ASCII digits alone
    raster = dio.read_pgm(root / "c00" / "s000.pgm").tobytes()
    loose = [header + raster for header in (b"P5\n6_4 64\n255\n", b"P5\n64 +64\n255\n", b"P5\n64 64\n2_55\n")]
    # a non-integer header field, then ASCII samples above and below 0..maxval
    for bad in (b"P5\nabc 64\n255\n", b"P2\n2 1\n255\n300 0\n", b"P2\n2 1\n255\n0 -1\n", *loose):
        (root / "c00" / "bad.pgm").write_bytes(bad)
        with pytest.warns(UserWarning, match="skipping malformed image"):
            assert cli.main(["extract", "--corpus", str(root), "--extractor", "chain200", "--out", str(out)]) == 0
        assert len(dio.load_features(out).rows) == 24
        assert cli.main([
            "extract", "--corpus", str(root), "--extractor", "chain200", "--out", str(out), "--strict",
        ]) == 2


def test_dumped_stages_equal_each_image_alone(corpus, tmp_path, monkeypatch):
    """Each kept image's dumped stages are its own, also after a blank image mid-chunk."""
    root = tmp_path / "corpus"
    shutil.copytree(corpus, root)
    dio.write_pgm(root / "c01" / "blank.pgm", np.full((64, 64), 255, dtype=np.uint8))  # 9th of 25
    monkeypatch.setattr(pipeline, "CHUNK_SIZE", 5)  # the blank image is in the middle of the second chunk
    stages = tmp_path / "stages"
    with pytest.warns(UserWarning, match=re.escape(f"skipping {root / 'c01' / 'blank.pgm'}: ")):
        assert cli.main([
            "extract", "--corpus", str(root), "--extractor", "moment63", "--out", str(tmp_path / "f.csv"),
            "--dump-stages", str(stages),
        ]) == 0
    samples = list(dio.load_corpus(corpus))
    assert len(os.listdir(stages)) == 4 * len(samples)
    for sample in samples:
        binary = image_prep.binarize(sample.image)
        scaled = image_prep.normalize_size(binary)
        want = dict(binary=binary, scaled=scaled, contour=image_prep.find_contour(scaled), thinned=image_prep.thin(scaled))
        stem = sample.id.replace("/", "_").removesuffix(".pgm")
        for name, img in want.items():
            assert np.array_equal(dio.read_pgm(stages / f"{stem}.{name}.pgm") == 0, img), (sample.id, name)


def test_extract_reads_images_chunk_by_chunk(corpus, tmp_path, monkeypatch):
    """The first image is binarized before the images of a second chunk are read.

    One CPU, so that one process reads every image; test_each_part_reads_images_chunk_by_chunk splits the pass.
    """
    monkeypatch.setattr(pipeline, "CHUNK_SIZE", 5)
    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)
    reads, reads_at_binarize = [], []

    def read_pgm(path, _read_pgm=dio.read_pgm):
        reads.append(path)
        return _read_pgm(path)

    def binarize(gray, _binarize=image_prep.binarize):  # one image or a stack: one entry per image
        reads_at_binarize.extend([len(reads)] * (gray.shape[0] if gray.ndim == 3 else 1))
        return _binarize(gray)

    monkeypatch.setattr(dio, "read_pgm", read_pgm)
    monkeypatch.setattr(image_prep, "binarize", binarize)
    assert cli.main(["extract", "--corpus", str(corpus), "--extractor", "chain200", "--out", str(tmp_path / "f.csv")]) == 0
    assert len(reads) == len(reads_at_binarize) == 24
    assert reads_at_binarize[0] <= 5


def test_each_part_reads_images_chunk_by_chunk(corpus, tmp_path, monkeypatch):
    """Split across 3 CPUs, each part's process binarizes its first image before it reads its second chunk.

    The processes log each read and each binarized image to one file, a line each, with their pid.
    """
    monkeypatch.setattr(pipeline, "CHUNK_SIZE", 5)
    monkeypatch.setattr(pipeline, "_cpus", lambda: 3)
    log = tmp_path / "log"

    def note(event, count=1):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {event}\n" * count)

    def read_pgm(path, _read_pgm=dio.read_pgm):
        note("read")
        return _read_pgm(path)

    def binarize(gray, _binarize=image_prep.binarize):
        note("binarize", gray.shape[0] if gray.ndim == 3 else 1)
        return _binarize(gray)

    monkeypatch.setattr(dio, "read_pgm", read_pgm)
    monkeypatch.setattr(image_prep, "binarize", binarize)
    out = tmp_path / "f.csv"
    assert cli.main(["extract", "--corpus", str(corpus), "--extractor", "chain200", "--out", str(out)]) == 0
    events = {}
    for line in log.read_text().splitlines():
        pid, event = line.split()
        events.setdefault(int(pid), []).append(event)
    # 24 images in 5 chunks: parts of 1, 2 and 2 chunks, the first read by this process
    assert events[os.getpid()].count("read") == 5
    assert sorted(e.count("read") for e in events.values()) == [5, 9, 10]
    for e in events.values():
        assert e.count("binarize") == e.count("read")
        assert e.index("binarize") <= 5


@pytest.mark.parametrize("image", [b"P5\n2 2\n255\n\xff\xff\xff\xff", b"P5\nabc 64\n255\n"], ids=["blank", "malformed"])
def test_corpus_without_usable_image_exit_2(tmp_path, capsys, image):
    root = tmp_path / "corpus"
    for cls in ("c00", "c01"):
        (root / cls).mkdir(parents=True)
        for j in range(3):
            (root / cls / f"s{j}.pgm").write_bytes(image)
    out = tmp_path / "f.csv"
    for argv in (
        ["extract", "--corpus", str(root), "--extractor", "chain200", "--out", str(out)],
        ["crossval", "--corpus", str(root), "--folds", "2", "--epochs", "2"],
    ):
        capsys.readouterr()
        with pytest.warns(UserWarning, match="skipping"):
            assert cli.main(argv) == 2, argv[0]
        assert capsys.readouterr().err == "error: no usable image: every image was skipped\n"
    assert not out.exists()


@pytest.mark.parametrize("label", ["zz", "c02"], ids=["unknown", "another"])
def test_relabelled_second_table_exit_2(feature_files, ensemble_file, tmp_path, capsys, label):
    """A --features2 row whose label differs from the --features row of its sample fails train and eval."""
    chain, moment = feature_files
    lines = moment.read_text().splitlines()
    sample_id, old_label, *values = lines[1].split(",")
    assert old_label == "c00"
    relabelled = tmp_path / "moment.csv"
    relabelled.write_text("\n".join([lines[0], ",".join([sample_id, label, *values]), *lines[2:]]) + "\n")
    glyph = tmp_path / "e.glyph"
    for argv in (
        ["train", "--features", chain, "--features2", relabelled, "--out", glyph, "--epochs", "2"],
        ["eval", "--model", ensemble_file, "--features", chain, "--features2", relabelled],
    ):
        capsys.readouterr()
        assert cli.main([str(a) for a in argv]) == 2, argv[0]
        assert "same samples with the same labels" in capsys.readouterr().err
    assert not glyph.exists()


def test_blank_image_is_skipped_unless_strict(corpus, tmp_path, capsys):
    root = tmp_path / "corpus"
    shutil.copytree(corpus, root)
    dio.write_pgm(root / "c01" / "blank.pgm", np.full((64, 64), 255, dtype=np.uint8))
    out = tmp_path / "f.csv"
    for extractor in ("chain200", "moment63"):
        with pytest.warns(UserWarning, match=re.escape(f"skipping {root / 'c01' / 'blank.pgm'}: ")):
            assert cli.main([
                "extract", "--corpus", str(root), "--extractor", extractor, "--out", str(out),
                "--dump-stages", str(tmp_path / "stages"),
            ]) == 0
        assert len(dio.load_features(out).rows) == 24
    capsys.readouterr()
    assert cli.main(["extract", "--corpus", str(root), "--extractor", "chain200", "--out", str(out), "--strict"]) == 2
    assert "c01/blank.pgm" in capsys.readouterr().err
    crossval = ["crossval", "--seed", "4", "--epochs", "5", "--corpus"]
    assert cli.main([*crossval, str(corpus)]) == 0
    report = capsys.readouterr().out
    with pytest.warns(UserWarning, match=re.escape(f"skipping {root / 'c01' / 'blank.pgm'}: ")):
        assert cli.main([*crossval, str(root)]) == 0
    assert capsys.readouterr().out == report


def test_skips_and_strict_follow_sample_order(corpus, tmp_path, capsys):
    """In one chunk, a blank image read before a malformed one is warned about, and with --strict fails, first."""
    root = tmp_path / "corpus"
    shutil.copytree(corpus, root)
    dio.write_pgm(root / "c00" / "blank.pgm", np.full((64, 64), 255, dtype=np.uint8))
    bad = root / "c01" / "bad.pgm"
    bad.write_bytes(b"P5\nabc 64\n255\n")
    assert len(list(root.glob("*/*.pgm"))) <= pipeline.CHUNK_SIZE
    argv = ["extract", "--corpus", str(root), "--extractor", "chain200", "--out", str(tmp_path / "f.csv")]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert cli.main(argv) == 0
    assert [str(w.message) for w in seen] == [
        f"skipping {root / 'c00' / 'blank.pgm'}: {image_prep.NO_FOREGROUND}",
        f"skipping malformed image: {bad}: non-integer PGM width, height or maxval",
    ]
    capsys.readouterr()
    assert cli.main(argv + ["--strict"]) == 2
    assert capsys.readouterr().err == f"error: {root / 'c00' / 'blank.pgm'}: {image_prep.NO_FOREGROUND}\n"


def test_malformed_feature_and_model_files_exit_2(feature_files, ensemble_file, corpus, tmp_path):
    chain, _ = feature_files
    bad_csv = tmp_path / "bad.csv"
    lines = chain.read_text().splitlines()
    bad_csv.write_text("\n".join([lines[0], lines[1].replace(",", ",x", 3)] + lines[2:]) + "\n")
    member = ensemble_file.with_name("ens.chain.mlp")
    bad_mlp = tmp_path / "bad.mlp"
    bad_mlp.write_text("\n".join(member.read_text().splitlines()[:-1]) + "\n")
    for name in ("ens.chain.mlp", "ens.moment.mlp"):
        shutil.copyfile(ensemble_file.with_name(name), tmp_path / name)
    bad_glyph = tmp_path / "bad.glyph"
    bad_glyph.write_text(ensemble_file.read_text().replace("\nw1 ", "\nw1 x"))
    nan_csv = tmp_path / "nan.csv"
    sample_id, label, _, *values = lines[1].split(",")
    nan_csv.write_text("\n".join([lines[0], ",".join([sample_id, label, "nan", *values])] + lines[2:]) + "\n")
    unknown_csv = tmp_path / "unknown.csv"
    unknown_csv.write_text(chain.read_text().replace("extractor=chain200", "extractor=foo", 1))
    foreign_flag_csv = tmp_path / "foreign_flag.csv"  # the moment63 flag in a chain200 header
    foreign_flag_csv.write_text(chain.read_text().replace("dim=200\n", "dim=200 log_moments=1\n", 1))
    header_only_csv = tmp_path / "header_only.csv"
    header_only_csv.write_text(lines[0] + "\n")
    weight_lines = ensemble_file.read_text().splitlines()
    glyphs = {}
    for name, w1 in (("inf", "inf"), ("nan", "nan"), ("sum", "0.9")):
        glyphs[name] = tmp_path / f"{name}.glyph"
        glyphs[name].write_text("\n".join(f"w1 {w1}" if ln.startswith("w1 ") else ln for ln in weight_lines) + "\n")
    # members that disagree on the class table
    moment_member = (tmp_path / "ens.moment.mlp").read_text()
    (tmp_path / "relabelled.mlp").write_text(moment_member.replace("\nlabels c00,c01,c02\n", "\nlabels c00,c01,zz\n"))
    glyphs["classes"] = tmp_path / "classes.glyph"
    glyphs["classes"].write_text(ensemble_file.read_text().replace("model2 ens.moment.mlp", "model2 relabelled.mlp"))
    image = sorted((corpus / "c00").iterdir())[0]
    assert cli.main(["eval", "--model", str(member), "--features", str(bad_csv)]) == 2
    assert cli.main(["eval", "--model", str(bad_mlp), "--features", str(chain)]) == 2
    assert cli.main(["predict", "--model", str(bad_glyph), "--image", str(image)]) == 2
    assert cli.main(["predict", "--model", str(image), "--image", str(image)]) == 2
    assert cli.main(["predict", "--model", str(corpus), "--image", str(image)]) == 2
    assert cli.main(["eval", "--model", str(member), "--features", str(image)]) == 2
    assert cli.main(["eval", "--model", str(member), "--features", str(nan_csv)]) == 2
    assert cli.main(["eval", "--model", str(member), "--features", str(header_only_csv)]) == 2
    for csv in (unknown_csv, foreign_flag_csv, header_only_csv):
        assert cli.main(["train", "--features", str(csv), "--out", str(tmp_path / "u.mlp"), "--epochs", "2"]) == 2
    assert not (tmp_path / "u.mlp").exists()
    for path in glyphs.values():
        assert cli.main(["predict", "--model", str(path), "--image", str(image)]) == 2
    member_lines = member.read_text().splitlines()
    for name, line_start, value in (("weight", "@w1 ", "nan"), ("bias", "@b2 ", "-inf"), ("range", "feature_min ", "inf")):
        at = next(i for i, ln in enumerate(member_lines) if ln.startswith(line_start))
        at += line_start.startswith("@")  # a matrix block's first row follows its header line
        row = member_lines[at].split()
        row[-1] = value
        non_finite = tmp_path / f"{name}.mlp"
        non_finite.write_text("\n".join(member_lines[:at] + [" ".join(row)] + member_lines[at + 1 :]) + "\n")
        assert cli.main(["predict", "--model", str(non_finite), "--image", str(image)]) == 2


def test_eval_table_with_a_label_the_model_lacks_exit_2(feature_files, ensemble_file, tmp_path, capsys):
    header, first, *rest = feature_files[0].read_text().splitlines()
    sample_id, _, values = first.split(",", 2)
    relabelled = tmp_path / "relabelled.csv"
    relabelled.write_text("\n".join([header, f"{sample_id},zz,{values}", *rest]) + "\n")
    capsys.readouterr()
    member = ensemble_file.with_name("ens.chain.mlp")
    assert cli.main(["eval", "--model", str(member), "--features", str(relabelled)]) == 2
    assert capsys.readouterr().err == "error: label 'zz' not in the model's class table\n"


def test_mlp_input_size_other_than_its_extractors_dim_exit_2(corpus, tmp_path, capsys):
    model = mlp.init_model(mlp.MlpConfig(input_size=63, hidden_size=4, output_size=3), ["c00", "c01", "c02"], "moment63")
    path = tmp_path / "m.mlp"
    mlp.save_model(model, path)  # save_model refuses a chain200 model of input size 63: the file is edited instead
    path.write_text(path.read_text().replace("extractor moment63\n", "extractor chain200\n", 1))
    capsys.readouterr()
    assert cli.main(["predict", "--model", str(path), "--image", str(corpus / "c00" / "s000.pgm")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "implies dim 200, got 63" in err


def test_eval_glyph_weights_other_than_d_over_d1_plus_d2_exit_2(feature_files, ensemble_file, tmp_path, capsys):
    chain, moment = feature_files
    for name in ("ens.chain.mlp", "ens.moment.mlp"):
        shutil.copyfile(ensemble_file.with_name(name), tmp_path / name)
    weights = {"d1": "0.5", "d2": "0.5", "w1": "0.9", "w2": "0.1"}  # sum to 1, yet d_k / (d1 + d2) is 0.5
    glyph = tmp_path / "ens.glyph"
    glyph.write_text("".join(
        f"{key} {weights[key]}\n" if (key := ln.partition(" ")[0]) in weights else f"{ln}\n"
        for ln in ensemble_file.read_text().splitlines()
    ))
    capsys.readouterr()
    assert cli.main(["eval", "--model", str(glyph), "--features", str(chain), "--features2", str(moment)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "fusion weights w1=0.9 w2=0.1 are not d_k / (d1 + d2)" in err


# every training option away from its default, and the MlpConfig fields they set
NON_DEFAULT_OPTIONS = [
    "--hidden", "17", "--lr", "0.35", "--momentum", "0.25", "--epochs", "3",
    "--target-mse", "0.0025", "--calibration-fraction", "0.4", "--seed", "9",
]
NON_DEFAULT_CONFIG = dict(hidden_size=17, learning_rate=0.35, momentum=0.25, max_epochs=3, target_mse=0.0025, seed=9)


def test_training_options_reach_every_config(feature_files, corpus, tmp_path, trainings):
    chain, moment = feature_files
    assert cli.main(["train", "--features", str(chain), "--out", str(tmp_path / "m.mlp"), *NON_DEFAULT_OPTIONS]) == 0
    assert cli.main([
        "train", "--features", str(chain), "--features2", str(moment),
        "--out", str(tmp_path / "e.glyph"), *NON_DEFAULT_OPTIONS,
    ]) == 0
    assert cli.main(["crossval", "--corpus", str(corpus), "--folds", "2", *NON_DEFAULT_OPTIONS]) == 0
    saved = [mlp.load_model(tmp_path / name).config for name in ("m.mlp", "e.chain.mlp", "e.moment.mlp")]
    assert [config for config, _ in trainings[:3]] == saved
    assert [(c.input_size, c.output_size) for c in saved] == [(200, 3), (200, 3), (63, 3)]
    for config, _ in trainings:
        assert {k: getattr(config, k) for k in NON_DEFAULT_CONFIG} == NON_DEFAULT_CONFIG
    # 24 rows, 10 of them held out for calibration; a crossval fold trains on 12, 5 held out
    assert [n for _, n in trainings] == [24, 14, 14, 7, 7, 7, 7]


def test_crossval_unequal_folds_equal_per_fold_training(corpus, tmp_path, monkeypatch, trainings):
    lockstep, per_fold = tmp_path / "lockstep.txt", tmp_path / "per_fold.txt"
    argv = ["crossval", "--corpus", str(corpus), "--folds", "5", "--epochs", "4", "--seed", "3", "--out"]
    assert cli.main([*argv, str(lockstep)]) == 0
    # 5 stratified folds of 24 rows train on 18 or 21, of which 14 or 17 fit and the rest calibrate;
    # each member's folds of one length train as lanes of one group
    assert sorted(n for _, n in trainings) == [14] * 6 + [17] * 4
    # the folds trained one at a time, each by the one-set train_models call cmd_train makes
    train_models = pipeline.train_models
    monkeypatch.setattr(pipeline, "train_models", lambda table_sets, labels, **kwargs: [
        train_models([tables], labels, **kwargs)[0] for tables in table_sets
    ])
    assert cli.main([*argv, str(per_fold)]) == 0
    assert per_fold.read_text() == lockstep.read_text()


@pytest.mark.parametrize("argv", [
    ["train", "--momentum", "1.5"],
    ["train", "--lr", "0"],
    ["train", "--lr", "inf"],
    ["train", "--target-mse", "nan"],
    ["train", "--target-mse", "-1"],
    ["train", "--hidden", "-3"],
    ["train", "--hidden", "0"],
    ["train", "--epochs", "0"],
    ["train", "--calibration-fraction", "1.5"],
    ["train", "--features2", "MOMENT", "--calibration-fraction", "0"],
    ["crossval", "--folds", "1"],
    ["crossval", "--folds", "9"],  # each class of the corpus has 8 images
    ["crossval", "--momentum", "-0.5"],
    ["crossval", "--extractor", "chain200", "--log-moments"],
    ["extract", "--extractor", "chain200", "--log-moments"],
    ["extract", "--extractor", "moment63", "--normalize"],
    ["synth", "--classes", "1"],
    ["synth", "--per-class", "0"],
    ["predict", "-k", "0"],
    ["predict", "-k", "-1"],
], ids=" ".join)
def test_out_of_range_setting_exit_2(feature_files, ensemble_file, corpus, tmp_path, capsys, argv):
    chain, moment = feature_files
    command, *options = [str(moment) if a == "MOMENT" else a for a in argv]
    required = {
        "train": ["--features", str(chain), "--out", str(tmp_path / "m")],
        "crossval": ["--corpus", str(corpus), "--epochs", "2"],
        "extract": ["--corpus", str(corpus), "--out", str(tmp_path / "m")],
        "synth": ["--out", str(tmp_path / "m")],
        "predict": ["--model", str(ensemble_file), "--image", str(corpus / "c00" / "s000.pgm")],
    }
    argv = [command, *required[command], *options]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("both", [True, False], ids=["both", "neither"])
def test_predict_needs_one_image_source_before_it_reads_the_model(corpus, tmp_path, capsys, both):
    sources = ["--image", str(corpus / "c00" / "s000.pgm"), "--dir", str(corpus / "c00")] if both else []
    capsys.readouterr()
    assert cli.main(["predict", "--model", str(tmp_path / "missing.glyph"), *sources]) == 2
    assert capsys.readouterr().err == "error: predict needs exactly one of --image or --dir\n"


def test_ensemble_predict_dir_binarizes_once_per_image(ensemble_file, corpus, calls, capsys):
    images = corpus / "c01"
    assert cli.main(["predict", "--model", str(ensemble_file), "--dir", str(images)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 8
    assert calls["binarize"] == 8


@pytest.mark.parametrize("extractor, binarize, thin", [("ensemble", 24, 24), ("chain200", 24, 0)])
def test_crossval_preprocesses_once_per_image(corpus, calls, extractor, binarize, thin):
    assert cli.main([
        "crossval", "--corpus", str(corpus), "--extractor", extractor,
        "--folds", "3", "--seed", "4", "--epochs", "5",
    ]) == 0
    assert calls == {"binarize": binarize, "thin": thin}


def test_predict_dir_skips_blank_image_and_image_fails_on_it(ensemble_file, corpus, tmp_path, capsys):
    images = tmp_path / "images"
    shutil.copytree(corpus / "c00", images)
    blank = images / "blank.pgm"  # sorts first
    dio.write_pgm(blank, np.full((64, 64), 255, dtype=np.uint8))
    capsys.readouterr()
    with pytest.warns(UserWarning, match=re.escape(f"skipping {blank}: image has no foreground pixel")):
        assert cli.main(["predict", "--model", str(ensemble_file), "--dir", str(images)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines] == [str(images / f"s{j:03d}.pgm") for j in range(8)]
    assert cli.main(["predict", "--model", str(ensemble_file), "--image", str(blank)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {blank}: ")


def test_predict_dir_skips_malformed_image_and_image_fails_on_it(ensemble_file, corpus, tmp_path, capsys):
    images = tmp_path / "images"
    shutil.copytree(corpus / "c01", images)
    bad = images / "a_bad.pgm"  # sorts first
    for content, reason in ((b"P5\nabc 64\n255\n", "non-integer"), (b"P2\n2 1\n255\n300 0\n", "P2 sample outside")):
        bad.write_bytes(content)
        capsys.readouterr()
        with pytest.warns(UserWarning, match=re.escape(f"skipping malformed image: {bad}: {reason}")):
            assert cli.main(["predict", "--model", str(ensemble_file), "--dir", str(images)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[0] for ln in lines] == [str(images / f"s{j:03d}.pgm") for j in range(8)]
        assert cli.main(["predict", "--model", str(ensemble_file), "--image", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {bad}: ")


def test_predict_dir_without_a_usable_image_exit_2(ensemble_file, tmp_path, capsys):
    empty, blank = tmp_path / "empty", tmp_path / "blank"
    empty.mkdir()
    blank.mkdir()
    for name in ("a.pgm", "b.pgm"):
        dio.write_pgm(blank / name, np.full((64, 64), 255, dtype=np.uint8))
    for directory, skipped in ((empty, []), (blank, ["a.pgm", "b.pgm"])):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert cli.main(["predict", "--model", str(ensemble_file), "--dir", str(directory)]) == 2
        assert [str(w.message) for w in seen] == [
            f"skipping {directory / name}: image has no foreground pixel" for name in skipped
        ]
        assert capsys.readouterr() == ("", "error: no usable image: every image was skipped\n")


def test_blank_images_warn_once_each_naming_them(ensemble_file, corpus, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(corpus, root)
    for name, level in (("blank.pgm", 255), ("dark.pgm", 0)):
        dio.write_pgm(root / "c01" / name, np.full((64, 64), level, dtype=np.uint8))
    runs = [  # (how the command names an image of c01: by the path it read, argv)
        (f"{root / 'c01'}/", ["extract", "--corpus", str(root), "--extractor", "moment63", "--out", str(tmp_path / "f.csv")]),
        (f"{root / 'c01'}/", [
            "extract", "--corpus", str(root), "--extractor", "chain200", "--out", str(tmp_path / "f.csv"),
            "--dump-stages", str(tmp_path / "stages"),
        ]),
        (f"{root / 'c01'}/", ["crossval", "--corpus", str(root), "--seed", "4", "--epochs", "5"]),
        (f"{root / 'c01'}/", ["predict", "--model", str(ensemble_file), "--dir", str(root / "c01")]),
    ]
    for prefix, argv in runs:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert cli.main(argv) == 0
        assert sorted(str(w.message) for w in seen) == [
            f"skipping {prefix}{name}: image has no foreground pixel" for name in ("blank.pgm", "dark.pgm")
        ], argv[0]


@pytest.mark.parametrize("target_mse, epochs, stop_reason", [("1", 1, "target"), ("0", 3, "capped")])
def test_train_prints_each_member_stop_reason(feature_files, tmp_path, capsys, target_mse, epochs, stop_reason):
    chain, moment = feature_files
    capsys.readouterr()
    assert cli.main([
        "train", "--features", str(chain), "--features2", str(moment), "--out", str(tmp_path / "e.glyph"),
        "--epochs", "3", "--target-mse", target_mse,
    ]) == 0
    members = capsys.readouterr().out.splitlines()[:2]
    for k, (line, extractor) in enumerate(zip(members, ("chain200", "moment63")), start=1):
        assert re.fullmatch(rf"member {k} \({extractor}\): {epochs} epochs, final MSE \d\.\d{{6}}, stopped: {stop_reason}", line)


@pytest.mark.parametrize("original, renamed", [
    ("c01", "c,01"), ("c01/s003.pgm", "c01/s,003.pgm"), ("c01", "c\n01"), ("c01/s003.pgm", "c01/s\n003.pgm"),
    pytest.param("c01", "c\udcff1", id="c01-not-utf8"),
    pytest.param("c01/s003.pgm", "c01/s\udcff03.pgm", id="c01/s003.pgm-not-utf8"),
])
def test_comma_in_class_directory_or_image_name_exit_2(corpus, tmp_path, capsys, original, renamed):
    """The error names the path as its repr, so a newline in it still makes one error: line. A name holding the
    byte 0xff, which os.listdir reads as the surrogate U+DCFF, is not UTF-8, the text of a feature CSV, either."""
    root = tmp_path / "corpus"
    shutil.copytree(corpus, root)
    try:
        (root / original).rename(root / renamed)
    except (OSError, UnicodeEncodeError):
        pytest.skip("this filesystem refuses a name that is not UTF-8")
    with pytest.raises(CorpusError, match=re.escape(repr(str(root / renamed)))):
        dio.load_corpus(root)
    capsys.readouterr()
    out = tmp_path / "f.csv"
    assert cli.main(["extract", "--corpus", str(root), "--extractor", "chain200", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert repr(str(root / renamed)) in err and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "OUT"],
    ["train", "--features", "CHAIN", "--out", "OUT"],
    ["crossval", "--corpus", "CORPUS", "--out", "OUT"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_a_usage_error(feature_files, corpus, tmp_path, capsys, argv):
    """--seed takes a non-negative integer, the seeds numpy's generators take, in each command that has it."""
    paths = {"OUT": tmp_path / "out", "CHAIN": feature_files[0], "CORPUS": corpus}
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        cli.main([str(paths.get(a, a)) for a in argv] + ["--seed", "-1"])
    assert exit_.value.code == 2
    assert "argument --seed: want a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_open = builtins.open


def _windows_open(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None, closefd=True, opener=None):
    """open() with the defaults it has on Windows without UTF-8 mode: cp1252 text, written with \\r\\n line ends."""
    if "b" not in mode:
        encoding = encoding or "cp1252"
        if newline is None and "r" not in mode:
            newline = "\r\n"
    return _open(file, mode, buffering, encoding, errors, newline, closefd, opener)


def test_every_text_file_is_utf8_with_lf_line_ends_whatever_open_defaults_to(feature_files, tmp_path, monkeypatch):
    """Under open()'s Windows defaults, a feature CSV, a .mlp, a .glyph with its members, eval's report and its
    confusion CSV, among them the label क, are written as the same bytes as under this platform's defaults, and
    each file read back writes the same bytes again."""
    tables = [dio.load_features(path) for path in feature_files]
    for table in tables:
        table.rows = [(sample_id, "क" if label == "c00" else label, vec) for sample_id, label, vec in table.rows]
    labels = sorted({label for _, label, _ in tables[0].rows})
    ens, _, _ = pipeline.train_ensemble_on_tables(*tables, labels, seed=2, max_epochs=5)

    def write(directory, tables, member, ens):
        directory.mkdir()
        for name, table in zip(("chain.csv", "moment.csv"), tables):
            dio.save_features(table, directory / name)
        mlp.save_model(member, directory / "chain.mlp")
        ens.save(directory / "ens.glyph")
        assert cli.main([
            "eval", "--model", str(directory / "ens.glyph"), "--features", str(directory / "chain.csv"),
            "--features2", str(directory / "moment.csv"), "--report", str(directory / "report.txt"),
            "--confusion-csv", str(directory / "confusion.csv"),
        ]) == 0
        return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

    want = write(tmp_path / "native", tables, ens.model1, ens)
    assert all("क".encode() in want[name] for name in ("chain.csv", "moment.csv", "chain.mlp", "confusion.csv"))
    with monkeypatch.context() as m:
        m.setattr(builtins, "open", _windows_open)
        assert write(tmp_path / "windows", tables, ens.model1, ens) == want
        written = tmp_path / "windows"
        loaded = [dio.load_features(written / name) for name in ("chain.csv", "moment.csv")]
        member, loaded_ens = mlp.load_model(written / "chain.mlp"), ensemble.load_ensemble(written / "ens.glyph")
    assert write(tmp_path / "again", loaded, member, loaded_ens) == want


def test_a_label_stdout_cannot_encode_exit_2_without_traceback(feature_files, corpus, tmp_path):
    """Under a cp1252 stdout, as a Windows console without UTF-8 mode gives, predict's ranked line and eval's
    confused pairs, each naming a Devanagari label, end in one error: line naming the character and exit 2."""
    table = dio.load_features(feature_files[0])
    for name, labels in (("deva.csv", {"c00": "क", "c01": "ख"}), ("swapped.csv", {"c00": "ख", "c01": "क"})):
        # swapped.csv gives c00's rows c01's label and back: every row the model ranks as trained is a confused pair
        rows = [(sample_id, labels.get(label, label), vec) for sample_id, label, vec in table.rows]
        dio.save_features(dio.FeatureTable(table.extractor_id, table.dim, rows, table.option), tmp_path / name)
    model = str(tmp_path / "deva.mlp")
    assert cli.main(["train", "--features", str(tmp_path / "deva.csv"), "--out", model, "--epochs", "10"]) == 0
    env = dict(os.environ, PYTHONIOENCODING="cp1252")
    for argv in (
        ["predict", "--model", model, "--image", str(corpus / "c01" / "s000.pgm")],
        ["eval", "--model", model, "--features", str(tmp_path / "swapped.csv")],
    ):
        run = subprocess.run([sys.executable, "-m", "glyphforge.cli", *argv], env=env, capture_output=True, text=True)
        assert run.returncode == 2, (argv[0], run.stderr)
        assert re.fullmatch(
            r"error: stdout's encoding cp1252 cannot write '\\u091[56]'; set PYTHONUTF8=1 or PYTHONIOENCODING=utf-8\n",
            run.stderr,
        ), (argv[0], run.stderr)


def test_predict_refuses_an_image_path_with_a_newline_before_reading_any_image(
    ensemble_file, corpus, tmp_path, monkeypatch, capsys,
):
    """A ranked line names its image: a newline in the path would make it two stdout lines."""
    read = []
    monkeypatch.setattr(dio, "read_pgm", lambda path, _read_pgm=dio.read_pgm: read.append(path) or _read_pgm(path))
    images = tmp_path / "images"
    shutil.copytree(corpus / "c00", images)
    newline = images / "s\n0.pgm"
    shutil.copyfile(corpus / "c00" / "s000.pgm", newline)
    for source in (["--dir", str(images)], ["--image", str(newline)]):
        capsys.readouterr()
        assert cli.main(["predict", "--model", str(ensemble_file), *source]) == 2
        assert capsys.readouterr() == ("", f"error: image {str(newline)!r} has a newline in its path\n")
    assert read == []


def test_mutated_files_exit_0_1_or_2_without_traceback(feature_files, ensemble_file, corpus, tmp_path, capsys):
    """Flipped, inserted, deleted and truncated bytes in a corpus PGM, a feature CSV, a .mlp and a .glyph, given to
    the command that reads each: cli.main returns 0, 1 or 2, and a nonzero exit prints one error: line."""
    rng = np.random.default_rng(2011)
    root = tmp_path / "corpus"
    for cls in ("c00", "c01"):
        (root / cls).mkdir(parents=True)
        for name in ("s000.pgm", "s001.pgm"):
            shutil.copyfile(corpus / cls / name, root / cls / name)
    models = tmp_path / "models"  # the mutated .glyph sits beside the member files it names
    shutil.copytree(ensemble_file.parent, models)
    image = corpus / "c00" / "s000.pgm"
    pgm, csv, member, glyph = root / "c00" / "s000.pgm", tmp_path / "f.csv", models / "m.mlp", models / "m.glyph"
    cases = [  # (the valid file, where its mutants go, the command)
        (pgm, pgm, ["extract", "--corpus", root, "--extractor", "chain200", "--out", tmp_path / "x.csv"]),
        (feature_files[0], csv, ["eval", "--model", models / "ens.chain.mlp", "--features", csv]),
        (models / "ens.chain.mlp", member, ["predict", "--model", member, "--image", image]),
        (ensemble_file, glyph, ["predict", "--model", glyph, "--image", image]),
    ]
    for original, target, argv in cases:
        for mutant in _mutants(original.read_bytes(), rng, 40):
            target.write_bytes(mutant)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    code = cli.main([str(a) for a in argv])
                except Exception as exc:
                    pytest.fail(f"{argv[0]} on mutated {original.name} {mutant!r}: {exc!r}")
            err = capsys.readouterr().err
            assert code in (0, 1, 2)
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv[0], mutant, err)
