import numpy as np
import pytest

from glyphforge import ensemble, mlp
from glyphforge.errors import DegenerateWeights, FormatError, IoError, ShapeError


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


def constant_model(confs, labels):
    cfg = mlp.MlpConfig(input_size=2, hidden_size=2, output_size=len(confs))
    model = mlp.init_model(cfg, labels)
    model.w1[:] = 0
    model.w2[:] = 0
    model.b2[:] = np.log(np.array(confs) / (1 - np.array(confs)))
    return model


class TestCalibrate:
    def test_one_perfect_one_useless(self):
        labels = ["a", "b"]
        m1 = constant_model([0.9, 0.1], labels)  # always predicts class 0
        m2 = constant_model([0.1, 0.9], labels)  # always predicts class 1
        holdout = [(np.zeros(2), np.zeros(2), 0)] * 5
        w = ensemble.calibrate(m1, m2, holdout)
        assert (w.w1, w.w2) == (1.0, 0.0)

    def test_equal_accuracies(self):
        labels = ["a", "b"]
        m1 = constant_model([0.9, 0.1], labels)
        m2 = constant_model([0.9, 0.1], labels)
        holdout = [(np.zeros(2), np.zeros(2), 0), (np.zeros(2), np.zeros(2), 1)]
        w = ensemble.calibrate(m1, m2, holdout)
        assert w.w1 == w.w2 == 0.5

    def test_both_zero_degenerate(self):
        labels = ["a", "b"]
        m1 = constant_model([0.9, 0.1], labels)
        m2 = constant_model([0.9, 0.1], labels)
        with pytest.raises(DegenerateWeights):
            ensemble.calibrate(m1, m2, [(np.zeros(2), np.zeros(2), 1)])


class TestEnsembleModel:
    def build(self):
        labels = ["a", "b", "c"]
        m1 = constant_model([0.8, 0.3, 0.1], labels)
        m2 = constant_model([0.2, 0.6, 0.4], labels)
        return ensemble.EnsembleModel(m1, m2, ensemble.compute_weights(0.8, 0.4))

    def test_label_table_must_match(self):
        m1 = constant_model([0.8, 0.2], ["a", "b"])
        m2 = constant_model([0.8, 0.2], ["a", "x"])
        with pytest.raises(ShapeError):
            ensemble.EnsembleModel(m1, m2, ensemble.compute_weights(0.5, 0.5))

    def test_predict_labels(self):
        ens = self.build()
        ranked = ens.predict(np.zeros(2), np.zeros(2))
        assert ranked[0][0] == "a"
        assert len(ranked) == 3

    def test_save_load_round_trip(self, tmp_path):
        ens = self.build()
        path = tmp_path / "ens.glyph"
        ensemble.save_ensemble(ens, path)
        loaded = ensemble.load_ensemble(path)
        assert loaded.weights == ens.weights
        assert loaded.labels == ens.labels
        assert np.array_equal(loaded.model1.b2, ens.model1.b2)
        a = ens.predict(np.zeros(2), np.zeros(2))
        b = loaded.predict(np.zeros(2), np.zeros(2))
        assert a == b

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
