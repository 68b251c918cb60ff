import re

import numpy as np
import pytest

from glyphforge import ensemble, evaluation, mlp
from glyphforge.dataset_io import FeatureTable
from glyphforge.errors import ConfigError, DegenerateWeights, FormatError, IoError, ShapeError
from glyphforge.extractors import EXTRACTORS


class TestComputeWeights:
    def test_paper_success_rates(self):
        # exact quotient is 0.57318 / 0.42682; reference values carry only
        # three decimals, so compare at 1e-3
        w = ensemble.compute_weights(0.8819, 0.6567)
        assert w.w1 == pytest.approx(0.574, abs=1e-3)
        assert w.w2 == pytest.approx(0.426, abs=1e-3)

    def test_symmetry(self):
        w = ensemble.compute_weights(0.7, 0.7)
        assert w.w1 == w.w2 == 0.5

    def test_boundary(self):
        w = ensemble.compute_weights(0.9, 0.0)
        assert (w.w1, w.w2) == (1.0, 0.0)

    def test_normalization_invariants(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            d1, d2 = rng.random(2)
            if d1 + d2 == 0:
                continue
            w = ensemble.compute_weights(d1, d2)
            assert w.w1 + w.w2 == pytest.approx(1.0, abs=1e-12)
            assert w.w1 == pytest.approx(d1 / (d1 + d2), abs=1e-12)
            assert w.w1 >= 0 and w.w2 >= 0

    def test_degenerate(self):
        with pytest.raises(DegenerateWeights):
            ensemble.compute_weights(0.0, 0.0)


class TestFuse:
    def test_hand_example(self):
        w = ensemble.FusionWeights(d1=0.8819, d2=0.6567, w1=0.574, w2=0.426)
        ranked = ensemble.fuse(w, [0.9, 0.1], [0.2, 0.8])
        assert ranked[0][0] == 0
        assert ranked[0][1] == pytest.approx(0.574 * 0.9 + 0.426 * 0.2)
        assert ranked[1][1] == pytest.approx(0.3982)

    def test_identical_members(self):
        w = ensemble.compute_weights(0.3, 0.9)
        o = np.array([0.2, 0.7, 0.5])
        ranked = ensemble.fuse(w, o, o)
        for i, score in ranked:
            assert score == pytest.approx(o[i])

    def test_degenerate_weight_follows_member_one(self):
        w = ensemble.FusionWeights(d1=1.0, d2=0.0, w1=1.0, w2=0.0)
        o1 = np.array([0.1, 0.8, 0.3])
        ranked = ensemble.fuse(w, o1, np.array([0.9, 0.1, 0.2]))
        assert [i for i, _ in ranked] == [1, 2, 0]

    def test_length_mismatch(self):
        w = ensemble.compute_weights(0.5, 0.5)
        with pytest.raises(ShapeError):
            ensemble.fuse(w, [0.1, 0.2], [0.3])

    def test_convexity_bound(self):
        rng = np.random.default_rng(42)
        w = ensemble.compute_weights(*rng.random(2))
        o1, o2 = rng.random(8), rng.random(8)
        for i, score in ensemble.fuse(w, o1, o2):
            assert min(o1[i], o2[i]) - 1e-12 <= score <= max(o1[i], o2[i]) + 1e-12

    def test_unanimity(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            o1, o2 = rng.random(6), rng.random(6)
            if np.argmax(o1) != np.argmax(o2):
                continue
            w = ensemble.compute_weights(rng.random() + 1e-6, rng.random() + 1e-6)
            assert ensemble.fuse(w, o1, o2)[0][0] == np.argmax(o1)

    def test_weight_scaling_preserves_ranking(self):
        rng = np.random.default_rng(44)
        o1, o2 = rng.random(5), rng.random(5)
        w = ensemble.compute_weights(0.6, 0.3)
        scaled = ensemble.FusionWeights(d1=w.d1, d2=w.d2, w1=3 * w.w1, w2=3 * w.w2)
        base = [i for i, _ in ensemble.fuse(w, o1, o2)]
        assert [i for i, _ in ensemble.fuse(scaled, o1, o2)] == base

    def test_brute_force_argmax_oracle(self):
        rng = np.random.default_rng(45)
        for _ in range(500):
            m = int(rng.integers(2, 12))
            o1, o2 = rng.random(m), rng.random(m)
            w = ensemble.compute_weights(rng.random() + 1e-9, rng.random() + 1e-9)
            top = ensemble.fuse(w, o1, o2)[0][0]
            best, best_score = 0, -1.0
            for i in range(m):
                score = w.w1 * o1[i] + w.w2 * o2[i]
                if score > best_score:
                    best, best_score = i, score
            assert top == best


# the two members' inputs: a chain200 vector, then a moment63 vector
X1, X2 = np.zeros(200), np.zeros(63)


def constant_model(confs, labels, extractor_id="chain200"):
    """A member of extractor_id whose confidences are confs whatever its input."""
    cfg = mlp.MlpConfig(input_size=EXTRACTORS[extractor_id].dim, hidden_size=2, output_size=len(confs))
    model = mlp.init_model(cfg, labels, extractor_id)
    model.w1[:] = 0
    model.w2[:] = 0
    model.b2[:] = np.log(np.array(confs) / (1 - np.array(confs)))
    return model


def holdout(classes):
    """The members' held-out tables, chain200 then moment63: one X1 and one X2 row of each label in classes."""
    members = (("chain200", X1), ("moment63", X2))
    return [FeatureTable(e, len(x), [(f"s{i}", c, x) for i, c in enumerate(classes)]) for e, x in members]


class TestCalibrate:
    def test_one_perfect_one_useless(self):
        labels = ["a", "b"]
        m1 = constant_model([0.9, 0.1], labels)  # always predicts class 0
        m2 = constant_model([0.1, 0.9], labels, "moment63")  # always predicts class 1
        w = ensemble.calibrate(m1, m2, holdout(["a"] * 5))
        assert (w.w1, w.w2) == (1.0, 0.0)

    def test_equal_accuracies(self):
        labels = ["a", "b"]
        m1 = constant_model([0.9, 0.1], labels)
        m2 = constant_model([0.9, 0.1], labels, "moment63")
        w = ensemble.calibrate(m1, m2, holdout(["a", "b"]))
        assert w.w1 == w.w2 == 0.5

    def test_both_zero_degenerate(self):
        labels = ["a", "b"]
        m1 = constant_model([0.9, 0.1], labels)
        m2 = constant_model([0.9, 0.1], labels, "moment63")
        with pytest.raises(DegenerateWeights):
            ensemble.calibrate(m1, m2, holdout(["b"]))

    def test_nan_top_score_ranks_last_as_eval_ranks_it(self):
        """A member whose score for the true class is nan scores 0 there, as eval scores it; argmax would pick it."""
        labels = ["a", "b"]
        m1 = constant_model([np.nan, 0.2], labels)  # mlp.ranking puts b first
        m2 = constant_model([0.9, 0.1], labels, "moment63")
        tables = holdout(["a"] * 4)
        w = ensemble.calibrate(m1, m2, tables)
        assert w.d1 == evaluation.evaluate(m1, tables[:1]).top_k_accuracy[1] == 0.0
        assert (w.d2, w.w1, w.w2) == (1.0, 0.0, 1.0)


class TestEnsembleModel:
    def build(self):
        labels = ["a", "b", "c"]
        m1 = constant_model([0.8, 0.3, 0.1], labels)
        m2 = constant_model([0.2, 0.6, 0.4], labels, "moment63")
        return ensemble.EnsembleModel(m1, m2, ensemble.compute_weights(0.8, 0.4))

    def test_label_table_must_match(self):
        m1 = constant_model([0.8, 0.2], ["a", "b"])
        m2 = constant_model([0.8, 0.2], ["a", "x"], "moment63")
        with pytest.raises(ShapeError):
            ensemble.EnsembleModel(m1, m2, ensemble.compute_weights(0.5, 0.5))

    def test_predict_labels(self):
        ens = self.build()
        ranked = ens.predict(X1, X2)
        assert ranked[0][0] == "a"
        assert len(ranked) == 3

    def test_scores_rows_are_the_fused_member_confidences(self):
        m1, m2 = (mlp.init_model(mlp.MlpConfig(2, 4, 3, seed=seed), ["a", "b", "c"]) for seed in (1, 2))
        ens = ensemble.EnsembleModel(m1, m2, ensemble.compute_weights(0.8, 0.4))
        x1, x2 = np.arange(8.0).reshape(4, 2), np.arange(8.0, 0.0, -1.0).reshape(4, 2)
        batch = ens.scores([x1, x2])
        assert batch.shape == (4, 3)
        for row, v1, v2 in zip(batch, x1, x2):
            o1, o2 = mlp.forward(m1, v1), mlp.forward(m2, v2)
            assert np.array_equal(row, ens.weights.w1 * o1 + ens.weights.w2 * o2)
            assert ens.predict(v1, v2) == [(ens.labels[i], s) for i, s in ensemble.fuse(ens.weights, o1, o2)]

    def test_save_load_round_trip(self, tmp_path):
        ens = self.build()
        path = tmp_path / "ens.glyph"
        ensemble.save_ensemble(ens, path)
        loaded = ensemble.load_ensemble(path)
        assert loaded.weights == ens.weights
        assert loaded.labels == ens.labels
        assert np.array_equal(loaded.model1.b2, ens.model1.b2)
        a = ens.predict(X1, X2)
        b = loaded.predict(X1, X2)
        assert a == b

    @pytest.mark.parametrize("ids", [("chain200", "chain200"), ("moment63", "moment63"), ("", "moment63")])
    def test_members_not_of_two_registered_extractors_is_config_error(self, tmp_path, ids):
        """Their member files would share a name, or have none: nothing is written."""
        ens = self.build()
        for model, extractor_id in zip((ens.model1, ens.model2), ids):
            model.extractor_id = extractor_id
        with pytest.raises(ConfigError, match="want two different registered extractors"):
            ensemble.save_ensemble(ens, tmp_path / "ens.glyph")
        assert list(tmp_path.iterdir()) == []

    def test_glyph_naming_one_member_twice_is_format_error(self, tmp_path):
        """Both lines name the chain200 member, whose labels agree with themselves: load refuses it as save does."""
        path = tmp_path / "ens.glyph"
        ensemble.save_ensemble(self.build(), path)
        path.write_text(path.read_text().replace("model2 ens.moment.mlp", "model2 ens.chain.mlp"))
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: .*want two different registered extractors"):
            ensemble.load_ensemble(path)

    def test_members_disagreeing_on_class_table_is_format_error(self, tmp_path):
        path = tmp_path / "ens.glyph"
        ensemble.save_ensemble(self.build(), path)
        mlp.save_model(constant_model([0.2, 0.6, 0.4], ["a", "b", "x"], "moment63"), tmp_path / "ens.moment.mlp")
        with pytest.raises(FormatError, match=f"{path}: member models disagree on the class table"):
            ensemble.load_ensemble(path)

    def saved_with(self, tmp_path, line):
        """The path of build() saved, with its line of line's first three characters replaced by line."""
        path = tmp_path / "ens.glyph"
        ensemble.save_ensemble(self.build(), path)
        lines = [line if ln.startswith(line[:3]) else ln for ln in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("line", ["d1 nan", "d1 inf", "d1 -0.25", "d2 1.5"])
    def test_calibration_accuracy_outside_unit_interval(self, tmp_path, line):
        with pytest.raises(FormatError, match="calibration accuracies"):
            ensemble.load_ensemble(self.saved_with(tmp_path, line))

    @pytest.mark.parametrize("line", ["d1  0.8", "d1 +0.8", "d2 0.4_0", "d2 \u0660.4"])
    def test_header_number_not_as_written_is_format_error(self, tmp_path, line):
        """float() would read each as the written 0.8 or 0.4."""
        with pytest.raises(FormatError, match="missing or bad field"):
            ensemble.load_ensemble(self.saved_with(tmp_path, line))

    @pytest.mark.parametrize("d1, d2", [(0.8819, 0.6567), (1 / 3, 2 / 3), (0.1, 0.7), (1.0, 0.0)])
    def test_loaded_weights_are_compute_weights_of_the_written_d(self, tmp_path, d1, d2):
        ens = self.build()
        ens.weights = ensemble.compute_weights(d1, d2)
        path = tmp_path / "ens.glyph"
        ensemble.save_ensemble(ens, path)
        assert ensemble.load_ensemble(path).weights == ensemble.compute_weights(d1, d2)

    def test_weights_other_than_d_over_d1_plus_d2_are_format_error(self, tmp_path):
        path = tmp_path / "ens.glyph"
        ensemble.save_ensemble(self.build(), path)
        weights = {"d1": "0.5", "d2": "0.5", "w1": "0.9", "w2": "0.1"}  # sum to 1, yet d_k / (d1 + d2) is 0.5
        lines = [f"{k} {weights[k]}" if (k := ln.partition(" ")[0]) in weights else ln
                 for ln in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"fusion weights w1=0.9 w2=0.1 are not d_k / \(d1 \+ d2\)"):
            ensemble.load_ensemble(path)

    @pytest.mark.parametrize("line, key", [("model1 ens.moment.mlp", "model1"), ("d1 0.8", "d1")])
    def test_repeated_header_key_is_format_error(self, tmp_path, line, key):
        path = tmp_path / "ens.glyph"
        ensemble.save_ensemble(self.build(), path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(FormatError, match=f"repeated key '{key}'"):
            ensemble.load_ensemble(path)

    @pytest.mark.parametrize("line, key", [("model3 nothing.mlp", "model3"), ("bogus 1", "bogus"), ("", "")])
    def test_header_key_no_writer_writes_is_format_error(self, tmp_path, line, key):
        path = tmp_path / "ens.glyph"
        ensemble.save_ensemble(self.build(), path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: unknown key '{key}'$"):
            ensemble.load_ensemble(path)

    @pytest.mark.parametrize("key", ["model1", "model2"])
    def test_glyph_without_a_member_line_is_format_error(self, tmp_path, key):
        path = tmp_path / "ens.glyph"
        ensemble.save_ensemble(self.build(), path)
        path.write_text("".join(ln for ln in path.read_text().splitlines(True) if not ln.startswith(key + " ")))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: missing field \\('{key}'\\)$"):
            ensemble.load_ensemble(path)

    @pytest.mark.parametrize("load", [ensemble.load_ensemble, ensemble.load_any_model])
    def test_unreadable_file(self, tmp_path, load):
        path = tmp_path / "binary.glyph"
        path.write_bytes(b"\xff\xfe\x00\x80")
        with pytest.raises(FormatError):
            load(path)
        with pytest.raises(IoError):
            load(tmp_path)
        with pytest.raises(IoError):
            load(tmp_path / "missing.glyph")
