"""Scoring: top-k accuracy, confusion matrix, splits, k-fold splits and their report."""

from dataclasses import dataclass, field

import numpy as np

from . import dataset_io, mlp
from .errors import ConfigError, FormatError, SplitError
from .extractors import EXTRACTORS

TOP_KS = (1, 3, 5)


@dataclass
class EvalReport:
    labels: list
    n_samples: int
    top_k_accuracy: dict
    confusion: np.ndarray
    confused_pairs: list  # (true label, predicted label, count), count desc


@dataclass
class SplitPlan:
    mode: str = "fraction"  # "fraction" | "kfold"
    train_fraction: float = 0.65
    folds: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.train_fraction < 1:
            raise ConfigError("train_fraction must be in (0, 1)")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.mode not in ("fraction", "kfold"):
            raise ConfigError(f"unknown split mode {self.mode!r}")


def _by_class(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return groups


def split(labels, plan: SplitPlan):
    """Partition sample indices deterministically under plan.seed.

    fraction mode returns (train_idx, test_idx); kfold mode returns a list
    of disjoint folds covering all indices. Both are stratified: each
    class's train share stays within one sample of the global fraction,
    with the overall train size fixed at round(fraction * n).
    """
    labels = list(labels)
    n = len(labels)
    rng = np.random.default_rng(plan.seed)
    groups = sorted(_by_class(labels).items())
    if plan.mode == "kfold":
        folds = [[] for _ in range(plan.folds)]
        for lab, idxs in groups:
            if len(idxs) < plan.folds:
                raise SplitError(
                    f"class {lab!r} has {len(idxs)} samples, fewer than "
                    f"{plan.folds} folds"
                )
            order = rng.permutation(len(idxs))
            for j, k in enumerate(order):
                folds[j % plan.folds].append(idxs[k])
        return [sorted(f) for f in folds]

    n_train = int(np.floor(plan.train_fraction * n + 0.5))  # round half up
    # largest-remainder allocation keeps per-class counts within +-1
    # of proportional while hitting n_train exactly
    quotas = [(lab, plan.train_fraction * len(idxs)) for lab, idxs in groups]
    take = {lab: int(np.floor(q)) for lab, q in quotas}
    leftover = n_train - sum(take.values())
    by_rem = sorted(quotas, key=lambda t: (-(t[1] - np.floor(t[1])), t[0]))
    for lab, _ in by_rem[: max(leftover, 0)]:
        take[lab] += 1
    train = []
    for lab, idxs in groups:
        order = rng.permutation(len(idxs))
        train.extend(idxs[k] for k in order[: take[lab]])
    train_set = set(train)
    test = [i for i in range(n) if i not in train_set]
    return sorted(train), test


def evaluate_rankings(rankings, true_labels, labels) -> EvalReport:
    """Score ranked predictions against the truth.

    rankings is a (samples, classes) matrix: row i holds the i-th sample's
    class indices into labels, best first.
    """
    rankings = np.asarray(rankings)
    if len(rankings) == 0:
        raise ValueError("empty test set")
    truth = np.array(mlp.class_indices(true_labels, labels))
    hits = {k: int(np.count_nonzero(rankings[:, :k] == truth[:, None])) for k in TOP_KS}
    m = len(labels)
    confusion = np.zeros((m, m), dtype=np.int64)
    np.add.at(confusion, (truth, rankings[:, 0]), 1)
    n = len(rankings)
    pairs = [
        (labels[r], labels[c], int(confusion[r, c]))
        for r in range(m)
        for c in range(m)
        if r != c and confusion[r, c] > 0
    ]
    pairs.sort(key=lambda t: (-t[2], t[0], t[1]))
    return EvalReport(
        labels=list(labels),
        n_samples=n,
        top_k_accuracy={k: hits[k] / n for k in TOP_KS},
        confusion=confusion,
        confused_pairs=pairs,
    )


def _feature_names(pairs):
    """(extractor_id, option) pairs as the feature CSV headers name them: "chain200, moment63 log_moments=1"."""
    return ", ".join(e + (f" {EXTRACTORS[e].flag}=1" if on else "") for e, on in pairs)


def evaluate(model, tables) -> EvalReport:
    """model's EvalReport on tables, one per member in member order; another extractor or option is a FormatError."""
    given = [(t.extractor_id, t.option) for t in tables]
    if given != model.extractors:
        wanted, given = _feature_names(model.extractors), _feature_names(given)
        raise FormatError(f"model reads {wanted} features (--features, then --features2), given {given}")
    dataset_io.check_same_samples(tables)
    scores = model.scores([[v for _, _, v in t.rows] for t in tables])
    truth = [lab for _, lab, _ in tables[0].rows]
    return evaluate_rankings(mlp.ranking(scores), truth, model.labels)


@dataclass
class CrossValReport:
    fold_reports: list
    mean_top_k: dict = field(init=False)
    std_top_k: dict = field(init=False)

    def __post_init__(self):
        accs = {
            k: [r.top_k_accuracy[k] for r in self.fold_reports] for k in TOP_KS
        }
        self.mean_top_k = {k: float(np.mean(v)) for k, v in accs.items()}
        self.std_top_k = {k: float(np.std(v)) for k, v in accs.items()}


def kfold_splits(true_labels, plan: SplitPlan):
    """Each fold's (train_idx, test_idx) under a kfold plan: the fold tests, the other folds train.

    A model trained on a fold's train_idx never scores a sample it saw.
    """
    if plan.mode != "kfold":
        raise ValueError("kfold_splits needs a kfold SplitPlan")
    folds = split(true_labels, plan)
    return [
        (sorted(i for g, fold in enumerate(folds) if g != f for i in fold), test_idx)
        for f, test_idx in enumerate(folds)
    ]


def format_report(report: EvalReport, max_pairs: int = 10) -> str:
    """Human-readable report text."""
    lines = [f"samples: {report.n_samples}"]
    for k in TOP_KS:
        lines.append(f"top-{k} accuracy: {report.top_k_accuracy[k]:.4f}")
    if report.confused_pairs:
        lines.append("most confused pairs (true -> predicted : count):")
        for true_lab, pred_lab, count in report.confused_pairs[:max_pairs]:
            lines.append(f"  {true_lab} -> {pred_lab} : {count}")
    return "\n".join(lines)


def confusion_csv(report: EvalReport) -> str:
    """Confusion matrix as CSV with a header row of labels."""
    lines = ["true\\pred," + ",".join(report.labels)]
    for lab, row in zip(report.labels, report.confusion):
        lines.append(lab + "," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines)
