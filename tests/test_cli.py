import os

import numpy as np
import pytest

from glyphforge import cli, dataset_io as dio


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


def test_synth_writes_corpus(corpus):
    samples = dio.load_corpus(corpus)
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


def test_extract_dump_stages(corpus, tmp_path):
    out = tmp_path / "f.csv"
    stages = tmp_path / "stages"
    assert cli.main([
        "extract", "--corpus", str(corpus), "--extractor", "chain200",
        "--out", str(out), "--dump-stages", str(stages),
    ]) == 0
    names = os.listdir(stages)
    assert any(n.endswith(".contour.pgm") for n in names)
    assert any(n.endswith(".thinned.pgm") for n in names)


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
    assert cli.main([
        "train", "--features", str(chain), "--out", str(out),
        "--epochs", "20", "--seed", "1",
    ]) == 0
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


def test_eval_without_features2_for_ensemble_exit_2(feature_files, tmp_path):
    chain, moment = feature_files
    ens_path = tmp_path / "e.glyph"
    cli.main([
        "train", "--features", str(chain), "--features2", str(moment),
        "--ensemble", "--out", str(ens_path), "--epochs", "10", "--seed", "2",
    ])
    assert cli.main(["eval", "--model", str(ens_path), "--features", str(chain)]) == 2


def test_crossval_single_extractor(corpus, tmp_path):
    out = tmp_path / "cv.txt"
    assert cli.main([
        "crossval", "--corpus", str(corpus), "--extractor", "chain200",
        "--folds", "3", "--seed", "42", "--epochs", "30", "--out", str(out),
    ]) == 0
    text = out.read_text()
    assert text.count("fold ") == 3
    assert "mean:" in text and "stddev:" in text


def test_seed_env_default(monkeypatch):
    monkeypatch.setenv("GLYPHFORGE_SEED", "123")
    parser = cli.build_parser()
    args = parser.parse_args(["synth", "--out", "x"])
    assert args.seed == 123
