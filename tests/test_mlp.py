import contextlib
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from glyphforge import mlp
from glyphforge.errors import ConfigError, FormatError, IoError, ShapeError, TrainError


def small_model(inp=5, hid=3, out=2, seed=0, **kw):
    cfg = mlp.MlpConfig(input_size=inp, hidden_size=hid, output_size=out, seed=seed, **kw)
    return mlp.init_model(cfg)


def train_one(model, dataset):
    """The TrainingReport of training model alone: a one-lane train_lanes call."""
    (report,) = mlp.train_lanes([model], [dataset])
    return report


def finite_difference_grads(model, x, target, eps=1e-4):
    """Central-difference oracle for d(loss)/d(weights)."""
    def loss():
        out = mlp.forward(model, x)
        return 0.5 * float(np.sum((out - target) ** 2))

    grads = []
    for mat in (model.w1, model.b1, model.w2, model.b2):
        g = np.zeros_like(mat)
        it = np.nditer(mat, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = mat[idx]
            mat[idx] = orig + eps
            up = loss()
            mat[idx] = orig - eps
            down = loss()
            mat[idx] = orig
            g[idx] = (up - down) / (2 * eps)
        grads.append(g)
    return grads


class TestConfig:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            mlp.MlpConfig(input_size=0, hidden_size=3, output_size=2)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            mlp.MlpConfig(input_size=2, hidden_size=2, output_size=2, momentum=1.0)

    @pytest.mark.parametrize("field, value", [
        ("hidden_size", 0), ("learning_rate", 0.0), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")), ("momentum", -0.1), ("max_epochs", 0),
        ("target_mse", float("nan")), ("target_mse", -1.0), ("target_mse", float("inf")),
    ])
    def test_out_of_range_is_config_error(self, field, value):
        with pytest.raises(ConfigError):
            mlp.MlpConfig(**dict(dict(input_size=2, hidden_size=2, output_size=2), **{field: value}))


class TestInit:
    def test_shapes(self):
        model = small_model(200, 50, 20)
        assert model.w1.shape == (50, 200)
        assert model.w2.shape == (20, 50)
        assert model.b1.shape == (50,) and model.b2.shape == (20,)

    def test_same_seed_identical(self):
        a, b = small_model(seed=42), small_model(seed=42)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)

    def test_different_seed_differs(self):
        assert not np.array_equal(small_model(seed=1).w1, small_model(seed=2).w1)

    def test_init_range(self):
        model = small_model(10, 7, 4)
        r = np.sqrt(6 / (10 + 7))
        assert np.abs(model.w1).max() <= r
        assert not model.b1.any() and not model.b2.any()


class TestForward:
    def test_zero_weights_give_half(self):
        model = small_model()
        model.w1[:] = 0
        model.w2[:] = 0
        out = mlp.forward(model, np.ones(5))
        assert np.allclose(out, 0.5)

    def test_zero_input_hidden_half(self):
        model = small_model()
        x = np.zeros(5)
        hidden = mlp.sigmoid(model.w1 @ x + model.b1)
        assert np.allclose(hidden, 0.5)

    def test_1_1_1_hand_value(self):
        model = small_model(1, 1, 1)
        model.w1[:] = 1
        model.w2[:] = 1
        out = mlp.forward(model, np.zeros(1))
        assert out[0] == pytest.approx(1 / (1 + np.exp(-0.5)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mlp.forward(small_model(), np.ones(4))

    def test_outputs_in_open_unit_interval(self):
        rng = np.random.default_rng(5)
        model = small_model(8, 6, 4)
        for _ in range(10):
            out = mlp.forward(model, rng.normal(size=8))
            assert ((out > 0) & (out < 1)).all()


class TestGradients:
    @pytest.mark.parametrize("shape", [(5, 3, 2), (10, 7, 4)])
    def test_matches_finite_differences(self, shape):
        rng = np.random.default_rng(6)
        model = small_model(*shape, seed=9)
        for _ in range(10):
            x = rng.normal(size=shape[0])
            target = rng.random(shape[2])
            analytic = mlp.gradients(model, x, target)[:4]
            numeric = finite_difference_grads(model, x, target)
            for a, n in zip(analytic, numeric):
                denom = np.maximum(np.abs(n), 1e-8)
                assert (np.abs(a - n) / denom).max() < 1e-4


class TestTrain:
    def test_empty_dataset(self):
        with pytest.raises(TrainError):
            train_one(small_model(), [])

    def test_bad_class_index(self):
        with pytest.raises(TrainError):
            train_one(small_model(), [(np.ones(5), 7)])

    def test_singleton_memorization(self):
        model = small_model(4, 6, 3, max_epochs=500)
        train_one(model, [(np.array([1.0, 0.0, 2.0, -1.0]), 2)])
        assert mlp.predict(model, np.array([1.0, 0.0, 2.0, -1.0]))[0][0] == "2"

    def test_xor(self):
        data = [
            (np.array([0.0, 0.0]), 0),
            (np.array([0.0, 1.0]), 1),
            (np.array([1.0, 0.0]), 1),
            (np.array([1.0, 1.0]), 0),
        ]
        cfg = mlp.MlpConfig(
            input_size=2, hidden_size=4, output_size=2,
            max_epochs=5000, target_mse=1e-3, seed=3,
        )
        model = mlp.init_model(cfg)
        train_one(model, data)
        hits = sum(mlp.predict(model, x)[0][0] == str(c) for x, c in data)
        assert hits == 4

    def test_determinism(self):
        rng = np.random.default_rng(7)
        data = [(rng.normal(size=5), int(rng.integers(2))) for _ in range(20)]
        m1 = small_model(seed=11, max_epochs=30)
        m2 = small_model(seed=11, max_epochs=30)
        train_one(m1, data)
        train_one(m2, data)
        assert np.array_equal(m1.w1, m2.w1) and np.array_equal(m1.w2, m2.w2)

    def test_single_step_descends(self):
        model = small_model(seed=4, momentum=0.0, learning_rate=0.01, max_epochs=1)
        x = np.arange(5.0)
        target = np.array([1.0, 0.0])
        model.feature_min = model.feature_max = x  # what training takes from its one row: both losses at one scaling
        before = mlp.gradients(model, x, target)[4]
        train_one(model, [(x, 0)])
        after = mlp.gradients(model, x, target)[4]
        assert after <= before

    def test_mse_trace_recorded(self):
        rng = np.random.default_rng(8)
        data = [(rng.normal(size=5), int(rng.integers(2))) for _ in range(10)]
        report = train_one(small_model(seed=5, max_epochs=15), data)
        assert report.epochs_run == len(report.mse_trace) <= 15


def seed_gradients(model, x, target):
    """The reference loop's step at scaled input x: np.outer gradients (gw1, gb1, gw2, gb2) and output - target."""
    hidden = mlp.sigmoid(model.w1 @ x + model.b1)
    out = mlp.sigmoid(model.w2 @ hidden + model.b2)
    err = out - target
    delta_o = err * out * (1.0 - out)
    delta_h = (model.w2.T @ delta_o) * hidden * (1.0 - hidden)
    return np.outer(delta_h, x), delta_h, np.outer(delta_o, hidden), delta_o, err


def negative_zeros(*arrays) -> int:
    """The number of -0.0 entries in arrays."""
    return sum(int(np.count_nonzero((a == 0.0) & np.signbit(a))) for a in arrays)


def seed_train(model, dataset):
    """Reference: the original per-sample, per-array online backprop loop; (MSE trace, -0.0 outer-product entries).

    Scales each sample on every step, by the dataset's min-max statistics,
    and takes seed_gradients, then updates each of w1, b1, w2, b2 by
    delta = -lr * g + momentum * v. It also counts the -0.0 entries of every
    step's np.outer gradients gw1 and gw2, where the trainer's BLAS outer
    products may give +0.0.
    """
    cfg = model.config
    xs = np.array([x for x, _ in dataset], dtype=np.float64)
    model.feature_min, model.feature_max = xs.min(axis=0), xs.max(axis=0)
    span = model.feature_max - model.feature_min
    safe = np.where(span > 0, span, 1.0)
    targets = np.zeros((len(dataset), cfg.output_size))
    targets[np.arange(len(dataset)), [c for _, c in dataset]] = 1.0
    params = [model.w1, model.b1, model.w2, model.b2]
    vel = [np.zeros_like(m) for m in params]
    rng = np.random.default_rng(cfg.seed + 1)
    trace, zeros = [], 0
    for _ in range(cfg.max_epochs):
        sq_err = 0.0
        for i in rng.permutation(len(dataset)):
            x = np.where(span > 0, (xs[i] - model.feature_min) / safe, 0.0)
            *grads, err = seed_gradients(model, x, targets[i])
            zeros += negative_zeros(grads[0], grads[2])
            sq_err += 2.0 * (0.5 * float(np.dot(err, err)))
            for mat, g, v in zip(params, grads, vel):
                delta = -cfg.learning_rate * g + cfg.momentum * v
                mat += delta
                v[...] = delta
        mse = sq_err / (len(dataset) * cfg.output_size)
        trace.append(mse)
        if mse <= cfg.target_mse:
            break
    return trace, zeros


def wide_range_dataset(n=30, seed=3):
    """Features spanning ~1e-3..1e5 plus one constant (span 0) column."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n, 6)) * np.array([1e-3, 1.0, 1e3, 1e5, 10.0, 0.0])
    xs[:, 5] = 7.0
    return [(x, i % 3) for i, x in enumerate(xs)]


def hu_like_dataset(rng):
    """24 rows of 63 values of random sign spanning ~1e-12..1e1 in magnitude, as raw Hu invariants do, in 3 classes."""
    xs = np.sign(rng.normal(size=(24, 63))) * 10.0 ** rng.uniform(-12, 1, size=(24, 63))
    return [(x, i % 3) for i, x in enumerate(xs)]


def saturating_model(seed, dataset):
    """A 63-45-3 model whose w1, times 1e4, drives a hidden pre-activation t of a training row below -709.

    There the sigmoid's exp(-t) overflows to inf, giving exactly 0.0. The
    rows are min-max scaled by the dataset's statistics, as training does.
    """
    model = small_model(63, 45, 3, seed=seed, max_epochs=5)
    model.w1 *= 1e4
    xs = np.array([x for x, _ in dataset])
    probe = replace(model, feature_min=xs.min(axis=0), feature_max=xs.max(axis=0))
    assert (mlp.scale_input(probe, xs) @ model.w1.T).min() < -709
    return model


@pytest.mark.parametrize("length", [1, 7, 8, 45, 63, 64, 201])
def test_reciprocal_is_division(length):
    """np.reciprocal, the step's 1 / (1 + exp(t)), is np.divide(1.0, v) bit for bit on numpy's running SIMD target.

    The values cover the sigmoid's whole range of 1 + exp(t), among them values
    above 2**1022, whose reciprocals are subnormal; the lengths cover SIMD
    tails, and a strided view the non-contiguous loop.
    """
    with np.errstate(over="ignore"):
        v = 1.0 + np.exp(np.linspace(-50.0, 709.7, 997))
    big = np.ldexp(np.random.default_rng(5).uniform(1.0, 2.0, 16), 1022)
    v = np.concatenate([v, [1.0, np.inf, np.finfo(np.float64).max, 2.0**1022, 2.0**1023], big])
    for start in range(0, len(v) - length + 1, length):
        chunk = v[start : start + length]
        want = np.divide(1.0, chunk).tobytes()
        assert np.reciprocal(chunk).tobytes() == want, start
        assert np.reciprocal(chunk, chunk.copy()).tobytes() == want, start  # into an output, as the step calls it
    strided = v[::3][:length]
    assert np.reciprocal(strided).tobytes() == np.divide(1.0, strided).tobytes()


class TestTrainBitIdentity:
    def test_train_matches_seed_loop(self):
        """One model alone and three lanes of other seeds in lockstep each equal the reference loop, for several rates.

        The default rates, two others, and a learning rate of 1 given as a
        Python int with the least legal momentum, 0.0. The span-0 column
        scales to 0.0, so the reference's np.outer gw1 holds -0.0 wherever
        the hidden delta is negative, where the trainer's BLAS outer product
        may give +0.0: the weights must match all the same.
        """
        data = wide_range_dataset()
        defaults = mlp.MlpConfig(1, 1, 1)
        assert (defaults.learning_rate, defaults.momentum) == (0.8, 0.7)
        for learning_rate, momentum in [(0.8, 0.7), (0.35, 0.25), (1, 0.0)]:
            case = (learning_rate, momentum)
            kw = dict(inp=6, hid=5, out=3, max_epochs=4, target_mse=1e-12, learning_rate=learning_rate,
                      momentum=momentum)
            refs = []
            for seed in (17, 18, 19):
                ref = small_model(seed=seed, **kw)
                ref_trace, zeros = seed_train(ref, data)
                assert zeros, (case, seed)
                refs.append((ref, ref_trace))
            alone, lanes = small_model(seed=17, **kw), [small_model(seed=seed, **kw) for seed in (17, 18, 19)]
            reports = [train_one(alone, data), *mlp.train_lanes(lanes, [data] * 3)]
            for model, report, (ref, ref_trace) in zip([alone, *lanes], reports, [refs[0], *refs]):
                assert report.epochs_run == 4, case
                assert report.mse_trace == ref_trace, case
                for name in ("w1", "b1", "w2", "b2"):
                    assert getattr(model, name).tobytes() == getattr(ref, name).tobytes(), (case, name)

    def test_gradients_match_seed_loop_step(self):
        """mlp.gradients equals the reference step bit for bit, but for the sign of a zero in gw1 and gw2.

        Its outer products are BLAS calls, which give +0.0 where np.outer's
        multiply gives -0.0, so gw1 and gw2 are compared after adding +0.0,
        which turns -0.0 into +0.0 and leaves every other value as it is;
        gb1, gb2 and the loss are compared as they are. The span-0 column
        scales to 0.0, so the reference's gw1 does hold -0.0 entries.
        """
        data = wide_range_dataset()
        model = small_model(6, 5, 3, seed=17)
        xs = np.array([x for x, _ in data])
        model.feature_min, model.feature_max = xs.min(axis=0), xs.max(axis=0)
        zeros = 0
        for x, c in data:
            target = np.eye(3)[c]
            *want, err = seed_gradients(model, mlp.scale_input(model, x), target)
            got = mlp.gradients(model, x, target)
            zeros += negative_zeros(want[0], want[2])
            assert [(g + 0.0).tobytes() for g in got[:4:2]] == [(g + 0.0).tobytes() for g in want[::2]]
            assert [g.tobytes() for g in got[1:4:2]] == [g.tobytes() for g in want[1::2]]
            assert got[4] == 0.5 * float(np.dot(err, err))
        assert zeros

    def test_saturated_units_train_without_overflow_warning(self, monkeypatch):
        """Saturated units train without a warning and equal the reference loop bit for bit.

        A hidden unit saturated at exactly 0.0 or 1.0 has a zero delta, so the
        reference's np.outer gw1 and gw2 hold -0.0 entries, where the
        trainer's BLAS outer products may give +0.0.
        """
        data = hu_like_dataset(np.random.default_rng(21))

        def trained():
            model = saturating_model(6, data)
            train_one(model, data)
            return model, mlp.forward(model, data[0][0])

        with monkeypatch.context() as m:
            m.setattr(np, "errstate", lambda **_: contextlib.nullcontext())
            with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
                allowed, allowed_out = trained()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            silenced, silenced_out = trained()
        ref = saturating_model(6, data)
        with np.errstate(over="ignore"):
            _, zeros = seed_train(ref, data)
        assert zeros
        # hidden units saturated at exactly 0.0 or 1.0 on every row get zero gradients: their biases stay 0.0
        assert not ref.b1.all()
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(silenced, name).tobytes() == getattr(allowed, name).tobytes() == getattr(ref, name).tobytes()
        assert silenced_out.tobytes() == allowed_out.tobytes()

    def test_scale_matrix_equals_rows(self):
        model = small_model(6, 3, 3)
        xs = np.array([x for x, _ in wide_range_dataset()])
        model.feature_min, model.feature_max = xs.min(axis=0), xs.max(axis=0)
        scaled = mlp.scale_input(model, xs)
        rows = np.array([mlp.scale_input(model, x) for x in xs])
        assert np.array_equal(scaled, rows)
        assert not scaled[:, 5].any()
        assert scaled[:, :5].min() == 0.0 and scaled[:, :5].max() == 1.0


def assert_lanes_equal_separate_runs(make_model, datasets):
    """train_lanes over fresh models equals one mlp.train per lane: weights, MSE traces and stop reasons."""
    lanes = [make_model(k) for k in range(len(datasets))]
    reports = mlp.train_lanes(lanes, datasets)
    for k, (lane, report, dataset) in enumerate(zip(lanes, reports, datasets)):
        alone = make_model(k)
        want = train_one(alone, dataset)
        assert (report.mse_trace, report.stop_reason) == (want.mse_trace, want.stop_reason), k
        for name in ("w1", "b1", "w2", "b2", "feature_min", "feature_max"):
            assert getattr(lane, name).tobytes() == getattr(alone, name).tobytes(), (k, name)
    return reports


class TestTrainLanes:
    def test_lanes_stop_on_their_own(self):
        def dataset(seed, n=12):
            rng = np.random.default_rng(seed)
            xs = rng.normal(size=(n, 6))
            return [(x, int(x[1] > 0) + int(x[4] > 0)) for x in xs]

        reports = assert_lanes_equal_separate_runs(
            lambda k: small_model(6, 5, 3, seed=k + 1, max_epochs=80, target_mse=0.02),
            [dataset(1), dataset(1), dataset(3), dataset(4)],
        )
        # lanes leave at different epochs; one runs on to the cap
        assert [(r.epochs_run, r.stop_reason) for r in reports] == [
            (34, "target"), (39, "target"), (66, "target"), (80, "capped"),
        ]

    def test_saturated_wide_range_lanes(self):
        rng = np.random.default_rng(21)
        datasets = [hu_like_dataset(rng) for _ in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_lanes_equal_separate_runs(lambda k: saturating_model(6 + k, datasets[k]), datasets)

    def test_unequal_lengths_and_shapes_train_apart(self):
        data = wide_range_dataset(30)
        datasets = [data, data[:20], data[5:25], data[:20]]
        hidden = [5, 5, 5, 4]  # lanes 1 and 2 share a group; 0 and 3 each train alone
        assert_lanes_equal_separate_runs(
            lambda k: small_model(6, hidden[k], 3, seed=k, max_epochs=6, target_mse=1e-12), datasets
        )

    @pytest.mark.parametrize("datasets, error", [
        ([[(np.ones(5), 0)], [(np.ones(5), 7)]], TrainError),
        # lanes of unequal length train in groups of their own: the bad lane is in the second group
        ([[(np.ones(5), 0)], [(np.ones(5), 1), (np.ones(5), 7)]], TrainError),
        ([[(np.ones(5), 0)], [(np.ones(5), 1), (np.ones(4), 0)]], ShapeError),
    ])
    def test_bad_lane_fails_before_training(self, datasets, error):
        models = [small_model(seed=1, max_epochs=2), small_model(seed=2, max_epochs=2)]
        before = [getattr(models[0], name).copy() for name in ("w1", "feature_min", "feature_max")]
        with pytest.raises(error):
            mlp.train_lanes(models, datasets)
        for name, want in zip(("w1", "feature_min", "feature_max"), before):
            assert np.array_equal(getattr(models[0], name), want), name


class TestBatchedForward:
    def test_rows_equal_one_at_a_time(self):
        model = small_model(6, 5, 3, seed=2)
        data = wide_range_dataset(40)
        train_one(model, data[:20])  # the other 20 rows fall outside the frozen range
        xs = np.array([x for x, _ in data])
        batch = mlp.forward(model, xs)
        assert batch.shape == (40, 3)
        for x, row in zip(xs, batch):
            assert np.array_equal(row, mlp.forward(model, x))
            scaled = mlp.scale_input(model, x)
            with np.errstate(over="ignore"):
                hidden = mlp.sigmoid(model.w1 @ scaled + model.b1)
                assert np.array_equal(row, mlp.sigmoid(model.w2 @ hidden + model.b2))

    @pytest.mark.parametrize("shape", [(2, 4), (2, 2, 5), ()])
    def test_wrong_shape(self, shape):
        with pytest.raises(ShapeError):
            mlp.forward(small_model(), np.ones(shape))


class TestPredict:
    def make(self, confs):
        model = small_model(3, 2, len(confs))
        model.w1[:] = 0
        model.w2[:] = 0
        model.b2[:] = np.log(np.array(confs) / (1 - np.array(confs)))
        return model

    def test_ranking_sorted(self):
        model = self.make([0.1, 0.9, 0.3])
        ranked = mlp.predict(model, np.zeros(3))
        assert [lab for lab, _ in ranked] == ["1", "2", "0"]

    def test_tie_break_by_class_index(self):
        model = self.make([0.5, 0.5, 0.5])
        ranked = mlp.predict(model, np.zeros(3))
        assert [lab for lab, _ in ranked] == ["0", "1", "2"]

    @pytest.mark.parametrize("shape", [(1,), (2,), (20,), (1, 20), (40, 3), (525, 20)])
    def test_ranking_is_score_descending_ties_by_index(self, shape):
        """mlp.ranking of a vector, or of each matrix row, is the sort by (-score, class index).

        Each row gets repeated scores and both signed zeros, which compare
        equal and so tie.
        """
        rng = np.random.default_rng(sum(shape))
        scores = rng.normal(size=shape)
        rows = scores.reshape(-1, shape[-1])
        for row in rows:
            picks = rng.integers(0, len(row), size=4)
            row[picks[0]] = row[picks[1]]
            row[picks[2]], row[picks[3]] = 0.0, -0.0
        want = [sorted(range(len(row)), key=lambda i: (-row[i], i)) for row in rows.tolist()]
        got = mlp.ranking(scores)
        assert got.shape == shape
        assert got.reshape(-1, shape[-1]).tolist() == want

    def test_top1_is_argmax(self):
        rng = np.random.default_rng(9)
        model = small_model(6, 5, 4, seed=13)
        x = rng.normal(size=6)
        assert mlp.predict(model, x)[0][0] == model.labels[int(np.argmax(mlp.forward(model, x)))]


def _swap_blocks(lines, first, second):
    """lines with the block headed by first and the one headed by second, which follows it, swapped."""
    a = next(i for i, ln in enumerate(lines) if ln.startswith(first + " "))
    b = next(i for i, ln in enumerate(lines) if ln.startswith(second + " "))
    c = next((i for i, ln in enumerate(lines) if i > b and ln.startswith("@")), len(lines))
    return lines[:a] + lines[b:c] + lines[a:b] + lines[c:]


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        model = small_model(
            200, 4, 3, seed=21, learning_rate=0.35, momentum=0.25, max_epochs=17, target_mse=2.5e-4
        )
        model.extractor_id = "chain200"
        model.option = True
        model.feature_min = np.random.default_rng(1).normal(size=200)
        model.feature_max = model.feature_min + 1.5
        path = tmp_path / "m.mlp"
        mlp.save_model(model, path)
        loaded = mlp.load_model(path)
        assert np.array_equal(loaded.w1, model.w1)
        assert np.array_equal(loaded.w2, model.w2)
        assert np.array_equal(loaded.b1, model.b1)
        assert np.array_equal(loaded.feature_min, model.feature_min)
        assert loaded.labels == model.labels
        assert loaded.extractor_id == "chain200"
        assert loaded.option is True
        assert loaded.config == model.config
        assert path.read_text().splitlines()[2:10] == [
            "input_size 200", "hidden_size 4", "output_size 3", "learning_rate 0.35",
            "momentum 0.25", "max_epochs 17", "target_mse 0.00025", "seed 21",
        ]
        # a leading '-' and an exponent's sign are numbers as written
        path.write_text(path.read_text().replace("seed 21\n", "seed -21\n").replace("0.00025\n", "2.5e-05\n"))
        cfg = mlp.load_model(path).config
        assert (cfg.seed, cfg.target_mse) == (-21, 2.5e-05)

    def test_one_class_empty_label_round_trips(self, tmp_path):
        """A feature CSV with empty labels trains a one-class [""] model: its "labels " line reads back as [""]."""
        model = mlp.init_model(mlp.MlpConfig(63, 4, 1, seed=3), [""], "moment63")
        path = tmp_path / "m.mlp"
        mlp.save_model(model, path)
        assert "labels \n" in path.read_text()
        loaded = mlp.load_model(path)
        assert loaded.labels == [""]
        assert np.array_equal(loaded.b2, model.b2)

    @pytest.mark.parametrize("corrupt", [
        lambda lines: lines[:-1],  # last b2 row missing: truncated block
        lambda lines: lines[:-1] + ["0.5 nan? 0.1"],  # non-numeric weight
        lambda lines: lines[:-1] + ["0.5 0.2"],  # short row
        lambda lines: [ln.replace("@w2 3 4", "@w2 3 four") for ln in lines],
        lambda lines: [ln.replace("flags ", "flags normalize=yes") for ln in lines],
        lambda lines: [ln.replace("feature_min ", "feature_min x ") for ln in lines],
        lambda lines: [ln.replace("@b1 1 4", "@b1 -1 4") for ln in lines],  # would re-read its own header forever
        lambda lines: [ln.replace("flags ", "flags normalize=1") for ln in lines],  # another extractor's flag
        lambda lines: _swap_blocks(lines, "@b1", "@w2"),  # every block well formed, b1 and w2 out of order
        lambda lines: lines + ["@x 1 1", "0.5"],  # a well-formed block after @b2
        lambda lines: [ln.replace("extractor moment63", "extractor chain200") for ln in lines],  # input_size 63, not 200
        lambda lines: lines[:-1] + ["1_0 0.5 0.1"],  # float() reads 1_0 as 10.0
        lambda lines: [ln.replace("feature_min 0.0", "feature_min \u0660.0") for ln in lines],  # an Arabic-Indic 0
        lambda lines: [ln for ln in lines if not ln.startswith("extractor ")],
        lambda lines: [ln for ln in lines if not ln.startswith("flags ")],
        lambda lines: [ln.replace("extractor moment63", "extractor zzz") for ln in lines],
        lambda lines: [ln.replace("extractor moment63", "extractor ") for ln in lines],
        # header numbers int() and float() read as the written ones: 4, 4, 4, 4 and 0.8
        lambda lines: [ln.replace("hidden_size 4", "hidden_size +4") for ln in lines],
        lambda lines: [ln.replace("hidden_size 4", "hidden_size 0_4") for ln in lines],
        lambda lines: [ln.replace("hidden_size 4", "hidden_size \u0664") for ln in lines],  # an Arabic-Indic 4
        lambda lines: [ln.replace("hidden_size 4", "hidden_size  4") for ln in lines],
        lambda lines: [ln.replace("learning_rate 0.8", "learning_rate 0.8_0") for ln in lines],
        lambda lines: [ln for ln in lines if not ln.startswith("feature_min ")],
        lambda lines: [ln for ln in lines if not ln.startswith("feature_max ")],
        lambda lines: [ln.replace("labels 0,1,2", "labels 0,0,2") for ln in lines],
        lambda lines: [ln for ln in lines if not ln.startswith("labels ")],
    ])
    def test_malformed_body_is_format_error(self, tmp_path, corrupt):
        model = small_model(63, 4, 3, seed=21)  # its identity scaling writes feature_min 0.0 ... and feature_max 1.0 ...
        model.extractor_id = "moment63"
        path = tmp_path / "m.mlp"
        mlp.save_model(model, path)
        mlp.load_model(path)  # it loads before the corruption
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
        with pytest.raises(FormatError):
            mlp.load_model(path)

    @pytest.mark.parametrize("extractor_id, error", [
        ("", "unknown extractor ''"),  # init_model's default
        ("zzz", "unknown extractor 'zzz'"),
        ("chain200", "extractor chain200 implies dim 200, got 63"),
    ])
    def test_model_load_would_refuse_is_not_saved(self, tmp_path, extractor_id, error):
        model = mlp.init_model(mlp.MlpConfig(63, 4, 3), extractor_id=extractor_id)
        path = tmp_path / "m.mlp"
        with pytest.raises(ConfigError, match=f"cannot save {re.escape(str(path))}: {error}"):
            mlp.save_model(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", ["2", "-1", "01", ""])
    def test_flag_other_than_0_or_1_is_format_error(self, tmp_path, value):
        model = small_model(63, 4, 3, seed=21)
        model.extractor_id, model.option = "moment63", True
        path = tmp_path / "m.mlp"
        mlp.save_model(model, path)
        path.write_text(path.read_text().replace("flags log_moments=1\n", f"flags log_moments={value}\n"))
        with pytest.raises(FormatError, match=f"log_moments={value} is not 0 or 1"):
            mlp.load_model(path)

    @pytest.mark.parametrize("line, key", [
        ("labels x,y,z", "labels"), ("seed 5", "seed"), ("flags log_moments=1,log_moments=0", "log_moments"),
    ])
    def test_repeated_header_key_is_format_error(self, tmp_path, line, key):
        model = small_model(63, 4, 3, seed=21)
        model.extractor_id = "moment63"
        path = tmp_path / "m.mlp"
        mlp.save_model(model, path)
        lines = path.read_text().splitlines()
        at = lines.index("flags ")
        lines[at : at + 1] = [line] if line.startswith("flags") else [lines[at], line]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"repeated key '{key}'"):
            mlp.load_model(path)

    @pytest.mark.parametrize("line, key", [("bogus 1", "bogus"), ("", ""), ("Seed 5", "Seed")])
    def test_header_key_no_writer_writes_is_format_error(self, tmp_path, line, key):
        model = small_model(63, 4, 3, seed=21)
        model.extractor_id = "moment63"
        path = tmp_path / "m.mlp"
        mlp.save_model(model, path)
        lines = path.read_text().splitlines()
        lines.insert(lines.index("flags ") + 1, line)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: unknown key '{key}'$"):
            mlp.load_model(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.mlp"
        path.write_text("not a model\n")
        with pytest.raises(FormatError):
            mlp.load_model(path)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "binary.mlp"
        path.write_bytes(b"P5\n2 2\n255\n\xff\xfe\x00\x80")
        with pytest.raises(FormatError):
            mlp.load_model(path)
        with pytest.raises(IoError):
            mlp.load_model(tmp_path)
