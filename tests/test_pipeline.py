import numpy as np
import pytest

from glyphforge import cli, image_prep, mlp, pipeline
from glyphforge import dataset_io as dio
from glyphforge.errors import FormatError
from glyphforge.extractors import EXTRACTORS, Extractor


@pytest.fixture(scope="module")
def samples():
    return dio.synth_corpus(3, 4, seed=11)


def test_extract_tables_matches_single_extractor_tables(samples):
    extractors = [("chain200", {"normalize": True}), ("moment63", {"log_moments": True})]
    tables = pipeline.extract_tables(samples, extractors)
    for table, (extractor_id, flags) in zip(tables, extractors):
        single = pipeline.extract_table(samples, extractor_id, flags)
        assert (table.extractor_id, table.dim, table.flags) == (extractor_id, single.dim, flags)
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
        pipeline.extract_tables(samples, [(e, {}) for e in extractor_ids])
        assert made == stages  # the 12 samples are one chunk


@pytest.mark.parametrize("extractor_id", ["", "chain100"])
def test_unknown_extractor_is_format_error(samples, extractor_id):
    with pytest.raises(FormatError, match="unknown extractor"):
        pipeline.extract_tables(samples, [(extractor_id, {})])


def test_registered_extractor_runs_end_to_end(samples, tmp_path, monkeypatch, capsys):
    """A registry entry and its feature function are all a new extractor needs."""
    toy = Extractor(
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
    monkeypatch.setitem(EXTRACTORS, toy.id, toy)
    seen = []
    (table,) = pipeline.extract_tables(
        samples, [("toy12", {"toy_double": True})], on_stages=lambda s, stages: seen.append(stages)
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
    assert model.extractors == [("toy12", {"toy_double": True})]

    capsys.readouterr()
    assert cli.main(["predict", "--model", str(path), "--image", str(corpus / samples[0].id), "-k", "1"]) == 0
    label, score = capsys.readouterr().out.split()[1].split(":")
    want_label, want_score = mlp.predict(model, vec)[0]
    assert (label, score) == (want_label, f"{want_score:.4f}")
