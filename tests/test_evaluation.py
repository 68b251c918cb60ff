import numpy as np
import pytest

from glyphforge import evaluation as ev
from glyphforge.errors import ConfigError, LabelError, SplitError


def labels_for(counts):
    out = []
    for lab, n in counts.items():
        out.extend([lab] * n)
    return out


class TestSplit:
    def test_65_35(self):
        labels = labels_for({"a": 50, "b": 50})
        train, test = ev.split(labels, ev.SplitPlan(seed=1))
        assert len(train) == 65 and len(test) == 35
        assert sorted(train + test) == list(range(100))

    def test_determinism(self):
        labels = labels_for({"a": 30, "b": 20, "c": 10})
        plan = ev.SplitPlan(seed=9)
        assert ev.split(labels, plan) == ev.split(labels, plan)

    def test_stratified_proportions(self):
        labels = labels_for({"a": 40, "b": 40, "c": 20})
        train, _ = ev.split(labels, ev.SplitPlan(train_fraction=0.65, seed=2))
        for lab, n in (("a", 40), ("b", 40), ("c", 20)):
            got = sum(labels[i] == lab for i in train)
            assert abs(got - 0.65 * n) <= 1

    def test_kfold_partition(self):
        labels = labels_for({"a": 33, "b": 33, "c": 33})
        folds = [test_idx for _, test_idx in ev.kfold_splits(labels, 3, 3)]
        assert [len(f) for f in folds] == [33, 33, 33]
        assert sorted(i for f in folds for i in f) == list(range(99))
        assert not (set(folds[0]) & set(folds[1]))

    def test_kfold_too_few_samples(self):
        labels = labels_for({"a": 10, "tiny": 2})
        with pytest.raises(SplitError, match="tiny"):
            ev.kfold_splits(labels, 3, 4)


class TestEvaluate:
    """Each ranking row holds class indices into the label table, best first."""

    LABELS = ["a", "b"]

    def test_perfect_predictor(self):
        truth = ["a", "b", "a"]
        rankings = [[0, 1] if t == "a" else [1, 0] for t in truth]
        rep = ev.evaluate_rankings(rankings, truth, self.LABELS)
        assert rep.top_k_accuracy[1] == 1.0
        assert rep.top_k_accuracy[5] == 1.0
        assert np.array_equal(rep.confusion, [[2, 0], [0, 1]])
        assert rep.confused_pairs == []

    def test_true_label_always_third(self):
        labels = ["a", "b", "c"]
        rankings = [[1, 2, 0], [0, 2, 1], [0, 1, 2]]
        rep = ev.evaluate_rankings(rankings, ["a", "b", "c"], labels)
        assert rep.top_k_accuracy[1] == 0.0
        assert rep.top_k_accuracy[3] == 1.0
        assert rep.top_k_accuracy[5] == 1.0

    def test_three_of_four_correct(self):
        rankings = [[0, 1], [0, 1], [1, 0], [1, 0]]
        truth = ["a", "a", "a", "b"]
        rep = ev.evaluate_rankings(rankings, truth, self.LABELS)
        assert rep.top_k_accuracy[1] == 0.75
        assert rep.confusion[0, 1] == 1
        assert rep.confused_pairs == [("a", "b", 1)]

    def test_row_sums_and_trace(self):
        rng = np.random.default_rng(51)
        labels = ["a", "b", "c", "d"]
        truth = [labels[i] for i in rng.integers(0, 4, size=40)]
        rankings = [rng.permutation(4) for _ in truth]
        rep = ev.evaluate_rankings(rankings, truth, labels)
        assert rep.confusion.sum() == rep.n_samples
        assert rep.top_k_accuracy[1] == np.trace(rep.confusion) / rep.n_samples
        for lab, row in zip(labels, rep.confusion):
            assert row.sum() == truth.count(lab)
        assert rep.top_k_accuracy[1] <= rep.top_k_accuracy[3] <= rep.top_k_accuracy[5]

    def test_unknown_label_rejected(self):
        with pytest.raises(LabelError):
            ev.evaluate_rankings([[0]], ["zz"], self.LABELS)


class TestCrossValidate:
    def test_fold_sizes_and_mean(self):
        labels = labels_for({"a": 33, "b": 33, "c": 33})
        rep = ev.CrossValReport([
            ev.evaluate_rankings(
                [(np.arange(3) + "abc".index(labels[i])) % 3 for i in test_idx],  # the true class first
                [labels[i] for i in test_idx],
                ["a", "b", "c"],
            )
            for _, test_idx in ev.kfold_splits(labels, 3, 6)
        ])
        assert [r.n_samples for r in rep.fold_reports] == [33, 33, 33]
        assert rep.mean_top_k[1] == 1.0
        assert rep.mean_top_k[1] == pytest.approx(
            np.mean([r.top_k_accuracy[1] for r in rep.fold_reports])
        )

    def test_never_tests_on_training_sample(self):
        labels = labels_for({"a": 9, "b": 9})
        seen = []
        for train_idx, test_idx in ev.kfold_splits(labels, 3, 7):
            assert not (set(train_idx) & set(test_idx))
            seen.extend(test_idx)
        assert sorted(seen) == list(range(18))

    def test_kfold_is_no_split_mode(self):
        with pytest.raises(ConfigError, match="unknown split mode 'kfold'"):
            ev.SplitPlan(mode="kfold")


class TestReportFormatting:
    def test_confusion_csv(self):
        rep = ev.evaluate_rankings([[0, 1], [1, 0]], ["a", "a"], ["a", "b"])
        csv = ev.confusion_csv(rep)
        lines = csv.strip().split("\n")
        assert lines[0] == "true\\pred,a,b"
        assert lines[1] == "a,1,1"
        assert lines[2] == "b,0,0"

    def test_text_report_mentions_accuracies(self):
        rep = ev.evaluate_rankings([[0, 1]], ["a"], ["a", "b"])
        text = ev.format_report(rep)
        assert "top-1 accuracy: 1.0000" in text
        assert "samples: 1" in text
