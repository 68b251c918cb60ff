import os
import re
import shutil
import time
import warnings

import numpy as np
import pytest

from glyphforge import cli, evaluation, image_prep, mlp, pipeline
from glyphforge import dataset_io as dio
from glyphforge.errors import ConfigError, CorpusError, ExtractionError, IoError, LabelError, TrainError
from glyphforge.extractors import EXTRACTORS, Extractor


@pytest.fixture(scope="module")
def samples():
    return dio.synth_corpus(3, 4, seed=11)


def test_extract_tables_matches_single_extractor_tables(samples):
    extractors = [("chain200", True), ("moment63", True)]
    tables = pipeline.extract_tables(samples, extractors)
    for table, (extractor_id, option) in zip(tables, extractors):
        single = pipeline.extract_table(samples, extractor_id, option)
        assert (table.extractor_id, table.dim, table.option) == (extractor_id, single.dim, option)
        assert [r[:2] for r in table.rows] == [r[:2] for r in single.rows]
        assert all(np.array_equal(a[2], b[2]) for a, b in zip(table.rows, single.rows))


def test_extract_tables_runs_only_needed_stages(samples, monkeypatch):
    made = []  # the stage functions called, one entry per call on a chunk's stack
    for name in ("find_contour", "thin"):
        def counted(stack, _name=name, _fn=getattr(image_prep, name)):
            made.append(_name)
            return _fn(stack)
        monkeypatch.setattr(image_prep, name, counted)
    for extractor_ids, stages in (
        (["chain200"], ["find_contour"]),
        (["moment63"], ["thin"]),
        (["chain200", "moment63"], ["find_contour", "thin"]),
    ):
        made.clear()
        pipeline.extract_tables(samples, [(e, False) for e in extractor_ids])
        assert made == stages  # the 12 samples are one chunk


@pytest.fixture
def toy(monkeypatch):
    """A third extractor, toy12, registered for the test."""
    extractor = Extractor(
        id="toy12",
        dim=12,
        stage="inverted",
        make_stage=lambda scaled: ~scaled,
        features=lambda inverted, on: inverted.reshape(len(inverted), 12, -1).mean(axis=2) * (2.0 if on else 1.0),
        flag="toy_double",
        flag_help="double the toy features",
        hidden_size=7,
        member_part="toy",
    )
    monkeypatch.setitem(EXTRACTORS, extractor.id, extractor)
    return extractor


def test_registered_extractor_runs_end_to_end(samples, tmp_path, toy, capsys):
    """A registry entry and its feature function are all a new extractor needs."""
    seen = []
    (table,) = pipeline.extract_tables(
        samples, [("toy12", True)], on_stages=lambda s, stages: seen.append(stages)
    )
    assert [list(st) for st in seen] == [["binary", "scaled", "contour", "thinned", "inverted"]] * len(samples)
    assert all(np.array_equal(st["inverted"], ~st["scaled"]) for st in seen)
    assert (table.dim, len(table.rows)) == (12, len(samples))
    vec = table.rows[0][2]
    scaled = image_prep.normalize_size(image_prep.binarize(samples[0].image))
    assert np.array_equal(vec, 2.0 * (~scaled).reshape(12, -1).mean(axis=1))

    features = tmp_path / "toy.csv"
    dio.save_features(table, features)
    assert features.read_text().startswith("# extractor=toy12 dim=12 toy_double=1\n")
    corpus = tmp_path / "corpus"
    dio.save_corpus(samples, corpus)
    from_cli = tmp_path / "cli.csv"
    assert cli.main(["extract", "--corpus", str(corpus), "--extractor", "toy12", "--toy-double", "--out", str(from_cli)]) == 0
    assert from_cli.read_bytes() == features.read_bytes()
    loaded = dio.load_features(features)

    labels = sorted({lab for _, lab, _ in loaded.rows})
    ((model, _),) = pipeline.train_models([[loaded]], labels, max_epochs=5, seed=1)
    assert (model.config.input_size, model.config.hidden_size) == (12, 7)
    path = tmp_path / "toy.mlp"
    model.save(path)
    model = mlp.load_model(path)
    assert model.extractors == [("toy12", True)]

    capsys.readouterr()
    assert cli.main(["predict", "--model", str(path), "--image", str(corpus / samples[0].id), "-k", "1"]) == 0
    label, score = capsys.readouterr().out.split()[1].split(":")
    want_label, want_score = mlp.predict(model, vec)[0]
    assert (label, score) == (want_label, f"{want_score:.4f}")


# --- a corpus pass split across processes ---------------------------------------
# The same outputs, warnings and errors for any number of parts, and no child process left behind.
# pipeline._cpus, the one CPU-count lookup, is patched to force 1, 2 or 3 parts; CHUNK_SIZE 8 makes the 38
# files of split_corpus 5 chunks, cut into parts of files [0, 16) and [16, 38) for 2 parts, and [0, 8),
# [8, 24) and [24, 38) for 3.

BLANK, BAD = "c01/blank.pgm", "c02/bad.pgm"  # files 12 and 25: parts 2 and 3 of 3


@pytest.fixture
def chunks_of_8(monkeypatch):
    monkeypatch.setattr(pipeline, "CHUNK_SIZE", 8)


@pytest.fixture(scope="module")
def split_corpus(tmp_path_factory):
    """36 glyphs of a 3x12 synth corpus, a blank image and a malformed one."""
    root = tmp_path_factory.mktemp("corpus")
    dio.save_corpus(dio.synth_corpus(3, 12, seed=4), root)
    dio.write_pgm(root / BLANK, np.full((64, 64), 255, np.uint8))
    (root / BAD).write_bytes(b"P5\nabc 64\n255\n")
    ids = [f for f, _, _ in dio.load_corpus(root).files]
    assert len(ids) == 38 and ids.index(BLANK) == 12 and ids.index(BAD) == 25
    return root


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child os.fork made."""
    pids = []

    def fork(_fork=os.fork):
        pid = _fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run(argv, capsys):
    """(exit code, stdout, stderr, each warning's (category, message, filename, lineno)) of cli.main(argv)."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def strict_pass(corpus):
    """(ids of the chunks a strict pass yields, its error): the chunks before the first unusable image."""
    ids = []
    with pytest.raises((CorpusError, IoError)) as error:
        for chunk_ids, _, _ in pipeline.iter_features(dio.load_corpus(corpus, strict=True), [("chain200", False)]):
            ids += chunk_ids
    return ids, repr(error.value)


def outputs(corpus, model, images, out, capsys):
    """Every output of extract, crossval and predict --dir over the corpus, and of each --strict failure."""
    seen = {}
    options = [("chain200", None), ("chain200", "--normalize"), ("moment63", None), ("moment63", "--log-moments")]
    for extractor, option in options:
        csv = out / f"{extractor}{option}.csv"
        argv = ["extract", "--corpus", corpus, "--extractor", extractor, "--out", csv] + ([option] if option else [])
        seen[extractor, option] = run(argv, capsys), csv.read_bytes()
    report = out / "crossval.txt"
    seen["crossval"] = run(["crossval", "--corpus", corpus, "--folds", "2", "--epochs", "2", "--out", report], capsys)
    seen["crossval --out"] = report.read_bytes()
    seen["predict"] = run(["predict", "--model", model, "--dir", images, "-k", "3"], capsys)
    strict = ["extract", "--corpus", corpus, "--extractor", "chain200", "--out", out / "strict.csv", "--strict"]
    seen["strict"] = run(strict, capsys), strict_pass(corpus)  # the blank image in part 2, the malformed one in 3
    shutil.move(corpus / BLANK, out / "blank.pgm")
    try:
        seen["strict, malformed"] = run(strict, capsys), strict_pass(corpus)  # the malformed image alone
    finally:
        shutil.move(out / "blank.pgm", corpus / BLANK)
    assert not (out / "strict.csv").exists()
    return seen


def test_any_number_of_parts_gives_the_same_outputs_warnings_and_errors(
    split_corpus, chunks_of_8, tmp_path, monkeypatch, capsys, forks,
):
    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)
    tables = [tmp_path / "chain.csv", tmp_path / "moment.csv"]
    for extractor, table in zip(("chain200", "moment63"), tables):
        assert run(["extract", "--corpus", split_corpus, "--extractor", extractor, "--out", table], capsys)[0] == 0
    model = tmp_path / "ens.glyph"
    train = ["train", "--features", tables[0], "--features2", tables[1], "--epochs", "3", "--out", model]
    assert run(train, capsys)[0] == 0
    images = tmp_path / "images"
    images.mkdir()
    for path in sorted(split_corpus.glob("*/*.pgm")):
        shutil.copyfile(path, images / f"{path.parent.name}_{path.name}")

    seen, out = {}, tmp_path / "out"  # one directory, as stdout names the files written
    out.mkdir()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
        forks.clear()
        seen[cpus] = outputs(split_corpus, model, images, out, capsys)
        # each of the 10 passes makes a child for each part after the first, and so does crossval's training of
        # 2 folds x 2 members, cut into min(cpus, 4) parts
        assert len(forks) == 10 * (cpus - 1) + min(cpus, 4) - 1
        assert_no_child()
    assert seen[2] == seen[1]
    assert seen[3] == seen[1]

    one = seen[1]
    assert [w[1] for w in one["predict"][3]] == [
        f"skipping {images}/c01_blank.pgm: image has no foreground pixel",
        f"skipping malformed image: {images}/c02_bad.pgm: non-integer PGM width, height or maxval",
    ]
    for key in [("chain200", None), ("moment63", "--log-moments"), "crossval"]:
        code, _, _, caught = one[key][0] if isinstance(key, tuple) else one[key]
        assert code == 0 and [w[1] for w in caught] == [
            f"skipping {split_corpus / BLANK}: image has no foreground pixel",
            f"skipping malformed image: {split_corpus / BAD}: non-integer PGM width, height or maxval",
        ]
    assert len(one["predict"][1].splitlines()) == 36
    assert one["strict"][0][:3] == (2, "", f"error: {split_corpus / BLANK}: image has no foreground pixel\n")
    malformed = f"error: {split_corpus / BAD}: non-integer PGM width, height or maxval\n"
    assert one["strict, malformed"][0][:3] == (2, "", malformed)
    # the chunks before the first unusable image: file 12 leaves one chunk, file 24 of 37 three
    assert [len(one[key][1][0]) for key in ("strict", "strict, malformed")] == [8, 24]


def test_skips_after_the_last_chunk_of_a_part_warn_in_order(split_corpus, chunks_of_8, monkeypatch):
    """A part whose last files are unusable reads them after its last chunk; their warnings still come, in order."""
    files = dio.load_corpus(split_corpus).files
    kept = [f for f in files if f[0] not in (BLANK, BAD)]
    # 18 files, 3 chunks: the second of 2 parts is files [8, 18), a full chunk and then both unusable files
    samples = dio.SampleFiles(kept[:16] + [f for f in files if f[0] in (BLANK, BAD)])
    seen = {}
    for cpus in (1, 2):
        monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ids = [i for chunk_ids, _, _ in pipeline.iter_features(samples, [("chain200", False)]) for i in chunk_ids]
        seen[cpus] = ids, [(str(w.message), w.filename, w.lineno) for w in caught]
    assert seen[2] == seen[1]
    assert seen[1][0] == [f[0] for f in kept[:16]]
    assert [m for m, _, _ in seen[1][1]] == [
        f"skipping {split_corpus / BLANK}: image has no foreground pixel",
        f"skipping malformed image: {split_corpus / BAD}: non-integer PGM width, height or maxval",
    ]


# the module every skip warning comes from, matched whole, as a -W option or PYTHONWARNINGS matches a module
MODULE = re.escape(pipeline.__name__) + r"\Z"


def chain_passes(corpus, passes=1):
    for _ in range(passes):
        pipeline.extract_table(dio.load_corpus(corpus), "chain200")


def test_two_passes_in_one_process_warn_alike_at_any_number_of_parts(split_corpus, chunks_of_8, monkeypatch):
    """The default action shows a warning once per call site; each skip has one, whichever process read the image."""
    seen = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            chain_passes(split_corpus, 2)
        seen[cpus] = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    assert seen[2] == seen[1]
    assert seen[3] == seen[1]
    assert [(category, message) for category, message, _, _ in seen[1]] == [
        (UserWarning, f"skipping {split_corpus / BLANK}: image has no foreground pixel"),
        (UserWarning, f"skipping malformed image: {split_corpus / BAD}: non-integer PGM width, height or maxval"),
    ]


def test_a_filter_naming_the_module_ignores_every_skip_at_any_number_of_parts(split_corpus, chunks_of_8, monkeypatch):
    for cpus in (1, 2, 3):
        monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.filterwarnings("ignore", category=UserWarning, module=MODULE)
            chain_passes(split_corpus)
        assert caught == [], cpus


def test_a_filter_naming_the_module_makes_the_first_skip_the_error_at_any_number_of_parts(
    split_corpus, chunks_of_8, monkeypatch,
):
    """The blank image is read in part 1 of 1 or 2 and in part 2 of 3; each child still running is reaped."""
    skip = "^" + re.escape(f"skipping {split_corpus / BLANK}: image has no foreground pixel") + "$"
    for cpus in (1, 2, 3):
        monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            warnings.filterwarnings("error", category=UserWarning, module=MODULE)
            with pytest.raises(UserWarning, match=skip):
                chain_passes(split_corpus)
        assert_no_child()


def test_no_child_outlives_a_pass(split_corpus, chunks_of_8, tmp_path, monkeypatch, capsys, forks):
    monkeypatch.setattr(pipeline, "_cpus", lambda: 3)
    extract = ["extract", "--corpus", split_corpus, "--extractor", "chain200", "--out", tmp_path / "f.csv"]
    # a normal run
    assert run(extract, capsys)[0] == 0
    assert len(forks) == 2
    assert_no_child()
    # a --strict failure raised by the child of part 2, while the child of part 3 has one of its own
    blank = (2, "", f"error: {split_corpus / BLANK}: image has no foreground pixel\n")
    assert run(extract + ["--strict"], capsys)[:3] == blank
    assert len(forks) == 4
    assert_no_child()
    # a --strict failure of 2 parts raised by this process, in part 1, while the child of part 2 runs
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    assert run(extract + ["--strict"], capsys)[:3] == blank
    assert len(forks) == 5
    assert_no_child()
    # a consumer that closes the pass after its first chunk
    monkeypatch.setattr(pipeline, "_cpus", lambda: 3)
    passes = pipeline.iter_features(dio.load_corpus(split_corpus), [("chain200", False)])
    ids, _, _ = next(passes)
    assert len(ids) == 8 and len(forks) == 7
    passes.close()
    assert_no_child()


def test_a_dump_stages_pass_splits_like_any_other_pass(split_corpus, chunks_of_8, tmp_path, monkeypatch, capsys, forks):
    """Each part writes the stages of its own images: the same stage files, table and warnings at any number of parts."""
    csv, seen = tmp_path / "f.csv", {}  # one table path, as stdout names it
    for cpus in (1, 2, 3):
        monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
        forks.clear()
        stages = tmp_path / f"stages{cpus}"
        extract = ["extract", "--corpus", split_corpus, "--extractor", "chain200", "--out", csv, "--dump-stages", stages]
        result = run(extract, capsys)
        assert len(forks) == cpus - 1
        assert_no_child()
        seen[cpus] = result, csv.read_bytes(), {path.name: path.read_bytes() for path in stages.iterdir()}
    assert seen[2] == seen[1]
    assert seen[3] == seen[1]
    (code, _, err, caught), table, files = seen[1]
    assert (code, err) == (0, "") and [w[1] for w in caught] == [
        f"skipping {split_corpus / BLANK}: image has no foreground pixel",
        f"skipping malformed image: {split_corpus / BAD}: non-integer PGM width, height or maxval",
    ]
    assert len(files) == 4 * 36 and "c02_s011.thinned.pgm" in files
    assert run(["extract", "--corpus", split_corpus, "--extractor", "chain200", "--out", csv], capsys)[0] == 0
    assert csv.read_bytes() == table


def test_a_child_without_a_result_is_an_error_naming_its_part(
    split_corpus, chunks_of_8, tmp_path, monkeypatch, capsys, forks,
):
    monkeypatch.setattr(pipeline, "_cpus", lambda: 3)
    parent = os.getpid()

    def chunk_features(chunk, extractors, on_stages, _chunk_features=pipeline._chunk_features):
        if os.getpid() != parent:
            os._exit(3)
        return _chunk_features(chunk, extractors, on_stages)

    monkeypatch.setattr(pipeline, "_chunk_features", chunk_features)
    part = r"^part 2 of 3 of the files \(c00/s008.pgm to c01/s010.pgm\) ended without a result \(exit status 3\)$"
    with pytest.raises(ExtractionError, match=part):
        pipeline.extract_table(dio.load_corpus(split_corpus), "chain200")
    assert len(forks) == 2
    assert_no_child()
    # through the CLI, exit 1: the error is the program's, not the input's
    extract = ["extract", "--corpus", split_corpus, "--extractor", "chain200", "--out", tmp_path / "f.csv"]
    code, out, err, _ = run(extract, capsys)
    assert (code, out) == (1, "") and err.startswith("error: part 2 of 3 of the files")
    assert not (tmp_path / "f.csv").exists()
    assert_no_child()


# --- training split across processes -------------------------------------------------
# train_models cuts its members, in set order, into contiguous parts, one per CPU and at most one per member;
# pipeline._cpus is patched to force the count. The 7 members of TRAIN_SETS are 3 crossval folds of
# (chain200, moment63) and one chain200 table alone: 3 CPUs cut them into members [1, 2], [3, 4] and [5, 7].

TRAIN_KWARGS = {"max_epochs": 5, "target_mse": 0.03, "seed": 5}
LAYERS = ("w1", "b1", "w2", "b2", "feature_min", "feature_max")


@pytest.fixture(scope="module")
def train_sets():
    """{name: (table sets, labels)}: 3 folds x 2 extractors and a one-table set, and the one-table set alone."""
    tables = pipeline.extract_tables(dio.synth_corpus(3, 9, seed=8), [("chain200", False), ("moment63", False)])
    labels = [lab for _, lab, _ in tables[0].rows]
    splits = evaluation.kfold_splits(labels, 3, 2)
    folds = [[t.subset(train_idx) for t in tables] for train_idx, _ in splits]
    classes = sorted(set(labels))
    return {"folds and one table": (folds + [tables[:1]], classes), "one table": ([tables[:1]], classes)}


def members_of(model):
    return [model] if isinstance(model, mlp.MlpModel) else [model.model1, model.model2]


def layer_bytes(member):
    return [getattr(member, name).tobytes() for name in LAYERS]


def trained_bytes(results):
    """(each member's layer and scaling bytes and its report, each fusion's d1, d2, w1 and w2), floats as hex."""
    members, fusions = [], []
    for model, reports in results:
        for member, report in zip(members_of(model), reports, strict=True):
            trace = [mse.hex() for mse in report.mse_trace]
            members.append((layer_bytes(member), report.epochs_run, trace, report.stop_reason))
        if not isinstance(model, mlp.MlpModel):
            fusions.append([x.hex() for x in (model.weights.d1, model.weights.d2, model.weights.w1, model.weights.w2)])
    return members, fusions


@pytest.mark.parametrize("tables, error, message", [
    (lambda t: t, ConfigError, "^a set of 3 feature tables: a model reads one, or two fused$"),
    (lambda t: [], ConfigError, "^a set of 0 feature tables: a model reads one, or two fused$"),
    (lambda t: [x.subset([0]) for x in t[:2]], TrainError, "^calibration split leaves no training samples$"),
], ids=["three tables", "no table", "two tables of one row"])
def test_a_set_no_model_can_train_on_is_an_error_before_any_member_trains(
    samples, toy, monkeypatch, tables, error, message,
):
    """EnsembleModel fuses two members: three tables or none are a ConfigError; two tables of one row leave no row
    to train on beside the calibration holdout."""
    extracted = pipeline.extract_tables(samples, [("chain200", False), ("moment63", False), ("toy12", False)])
    labels = sorted({lab for _, lab, _ in extracted[0].rows})
    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)  # a forked child's calls would not be seen here
    monkeypatch.setattr(mlp, "train_lanes", lambda *args: pytest.fail("a member trained"))
    with pytest.raises(error, match=message):
        pipeline.train_models([tables(extracted)], labels, **TRAIN_KWARGS)


def test_crossval_with_a_third_registered_extractor_exit_2(samples, toy, tmp_path, capsys):
    """crossval's default --extractor ensemble extracts every registered extractor: three tables no model reads."""
    dio.save_corpus(samples, tmp_path / "corpus")
    code, out, err, _ = run(["crossval", "--corpus", tmp_path / "corpus", "--folds", "2", "--epochs", "2"], capsys)
    assert (code, out, err) == (2, "", "error: a set of 3 feature tables: a model reads one, or two fused\n")


def test_a_label_outside_the_class_table_is_a_label_error_before_any_member_trains(train_sets, monkeypatch):
    """train_models maps labels to class indices as evaluation does: a row's label outside labels is a LabelError."""
    (tables,), classes = train_sets["one table"]
    monkeypatch.setattr(mlp, "train_lanes", lambda *args: pytest.fail("a member trained"))
    with pytest.raises(LabelError, match="label 'c02' not in the model's class table"):
        pipeline.train_models([tables], classes[:2], **TRAIN_KWARGS)


@pytest.mark.parametrize("name", ["folds and one table", "one table"])
def test_trained_bytes_do_not_depend_on_the_cpu_count(train_sets, monkeypatch, forks, name):
    table_sets, labels = train_sets[name]
    members = sum(len(tables) for tables in table_sets)
    seen = {}
    for cpus in (1, 2, 3, 7):
        monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
        forks.clear()
        seen[cpus] = trained_bytes(pipeline.train_models(table_sets, labels, **TRAIN_KWARGS))
        assert len(forks) == min(cpus, members) - 1  # a one-member training forks nothing
        assert_no_child()
    assert seen[2] == seen[1]
    assert seen[3] == seen[1]
    assert seen[7] == seen[1]
    if members > 1:  # lanes that stop at the target after 3, 4 or 5 epochs and lanes capped at 5
        assert {reason for _, _, _, reason in seen[1][0]} == {"target", "capped"}


@pytest.fixture
def made(monkeypatch):
    """(model, its layer bytes at init) of every model mlp.init_model made."""
    models = []

    def init_model(*args, _init_model=mlp.init_model, **kwargs):
        model = _init_model(*args, **kwargs)
        models.append((model, layer_bytes(model)))
        return model

    monkeypatch.setattr(mlp, "init_model", init_model)
    return models


@pytest.fixture(scope="module")
def whole(train_sets):
    """Each member's layer bytes after a whole training of the folds and one table."""
    members, _ = trained_bytes(pipeline.train_models(*train_sets["folds and one table"], **TRAIN_KWARGS))
    return [layers for layers, *_ in members]


def states(made, whole):
    """For each model a call made, "init" or "trained" when it holds its init bytes or those of a whole training."""
    return [
        "init" if layer_bytes(model) == init else "trained" if layer_bytes(model) == layers else "half-updated"
        for (model, init), layers in zip(made, whole, strict=True)
    ]


def failing_part(child=None, parent=None):
    """A _train_part that runs child() in each forked child and parent() in this process, where given."""
    pid, train_part = os.getpid(), pipeline._train_part

    def part(members, datasets):
        action = parent if os.getpid() == pid else child
        if action:
            action()
        return train_part(members, datasets)

    return part


def test_a_training_child_without_a_result_is_an_error_naming_its_part(
    train_sets, whole, split_corpus, chunks_of_8, monkeypatch, forks, made, capsys,
):
    table_sets, labels = train_sets["folds and one table"]
    monkeypatch.setattr(pipeline, "_cpus", lambda: 3)
    monkeypatch.setattr(pipeline, "_train_part", failing_part(child=lambda: os._exit(1)))
    part = r"^part 2 of 3 of the members \(3 to 4\) ended without a result \(exit status 1\)$"
    with pytest.raises(TrainError, match=part):
        pipeline.train_models(table_sets, labels, **TRAIN_KWARGS)
    assert len(forks) == 2
    assert_no_child()
    assert states(made, whole) == ["trained"] * 2 + ["init"] * 5
    # through the CLI, exit 1: crossval's 2 folds x 2 members, cut into members [1], [2] and [3, 4]
    code, out, err, _ = run(["crossval", "--corpus", split_corpus, "--folds", "2", "--epochs", "2"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: part 2 of 3 of the members (2 to 2) ended without a result (exit status 1)\n"
    assert_no_child()


def test_an_error_in_a_training_child_is_raised_as_it_was(train_sets, whole, monkeypatch, forks, made):
    table_sets, labels = train_sets["folds and one table"]

    def fail():
        raise TrainError(f"no training in process {os.getpid()}")

    monkeypatch.setattr(pipeline, "_cpus", lambda: 3)
    monkeypatch.setattr(pipeline, "_train_part", failing_part(child=fail))
    with pytest.raises(TrainError, match=r"^no training in process (\d+)$") as error:
        pipeline.train_models(table_sets, labels, **TRAIN_KWARGS)
    assert int(str(error.value).split()[-1]) == forks[0]  # raised by the child of part 2, read first
    assert len(forks) == 2
    assert_no_child()
    assert states(made, whole) == ["trained"] * 2 + ["init"] * 5


def test_an_error_in_this_process_part_kills_every_training_child(train_sets, whole, monkeypatch, forks, made):
    """The children would sleep for a minute: they are killed and reaped, not waited for."""
    table_sets, labels = train_sets["folds and one table"]

    def fail():
        raise RuntimeError("this process's part failed")

    monkeypatch.setattr(pipeline, "_cpus", lambda: 3)
    monkeypatch.setattr(pipeline, "_train_part", failing_part(child=lambda: time.sleep(60), parent=fail))
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="^this process's part failed$"):
        pipeline.train_models(table_sets, labels, **TRAIN_KWARGS)
    assert time.monotonic() - started < 30
    assert len(forks) == 2
    assert_no_child()
    assert states(made, whole) == ["init"] * 7
