"""Weighted-majority fusion of the two MLP classifiers.

Fusion weights are proportional to each member's measured success rate:
w_k = d_k / (d_1 + d_2). The fused score for class i is the convex
combination w1 * o1[i] + w2 * o2[i].
"""

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import mlp
from .dataset_io import open_text
from .errors import DegenerateWeights, FormatError, ShapeError


@dataclass(frozen=True)
class FusionWeights:
    d1: float
    d2: float
    w1: float
    w2: float


def compute_weights(d1: float, d2: float) -> FusionWeights:
    if d1 < 0 or d2 < 0:
        raise ValueError("success rates must be nonnegative")
    total = d1 + d2
    if total == 0:
        raise DegenerateWeights("both success rates are zero")
    return FusionWeights(d1=d1, d2=d2, w1=d1 / total, w2=d2 / total)


def fuse(weights: FusionWeights, o1: np.ndarray, o2: np.ndarray):
    """Ranked (class_index, score), score descending, ties by class index."""
    o1 = np.asarray(o1, dtype=np.float64)
    o2 = np.asarray(o2, dtype=np.float64)
    if o1.shape != o2.shape:
        raise ShapeError(f"confidence lengths differ: {o1.shape} vs {o2.shape}")
    scores = weights.w1 * o1 + weights.w2 * o2
    return [(i, float(scores[i])) for i in mlp.rank_order(scores)]


def calibrate(model1: mlp.MlpModel, model2: mlp.MlpModel, holdout) -> FusionWeights:
    """Weights from top-1 accuracies on a held-out calibration set.

    holdout: sequence of (features_for_model1, features_for_model2, class_index).
    """
    if len(holdout) == 0:
        raise DegenerateWeights("empty calibration set")
    hits1 = hits2 = 0
    for x1, x2, cls in holdout:
        if int(np.argmax(mlp.forward(model1, x1))) == cls:
            hits1 += 1
        if int(np.argmax(mlp.forward(model2, x2))) == cls:
            hits2 += 1
    return compute_weights(hits1 / len(holdout), hits2 / len(holdout))


@dataclass
class EnsembleModel:
    """Two member MLPs (chain-code first, moments second) plus fusion weights."""

    model1: mlp.MlpModel
    model2: mlp.MlpModel
    weights: FusionWeights

    def __post_init__(self):
        if self.model1.labels != self.model2.labels:
            raise ShapeError("member models disagree on the class table")

    @property
    def labels(self):
        return self.model1.labels

    @property
    def extractors(self):
        """The members' (extractor_id, flags) pairs, model1 first."""
        return self.model1.extractors + self.model2.extractors

    def rank(self, vectors):
        """Ranked (label, fused score) for one vector per extractor."""
        x1, x2 = vectors
        return self.predict(x1, x2)

    def fusion_summary(self):
        """One line: the calibration accuracies and the fusion weights."""
        w = self.weights
        return [f"fusion: calibration accuracy d1={w.d1:.4f} d2={w.d2:.4f}, weights w1={w.w1:.4f} w2={w.w2:.4f}"]

    def save(self, path) -> None:
        save_ensemble(self, path)

    def predict(self, x1: np.ndarray, x2: np.ndarray):
        """Ranked (label, fused score) for one sample's two feature vectors."""
        o1 = mlp.forward(self.model1, x1)
        o2 = mlp.forward(self.model2, x2)
        return [
            (self.labels[i], score) for i, score in fuse(self.weights, o1, o2)
        ]


ENSEMBLE_MAGIC = "glyphforge-ensemble v1"


def save_ensemble(ens: EnsembleModel, path) -> None:
    """Write <stem>.chain.mlp and <stem>.moment.mlp beside the ensemble file, which names them."""
    directory = os.path.dirname(os.path.abspath(path))
    stem = os.path.splitext(os.path.basename(path))[0]
    member_paths = (f"{stem}.chain.mlp", f"{stem}.moment.mlp")
    mlp.save_model(ens.model1, os.path.join(directory, member_paths[0]))
    mlp.save_model(ens.model2, os.path.join(directory, member_paths[1]))
    lines = [ENSEMBLE_MAGIC, f"model1 {member_paths[0]}", f"model2 {member_paths[1]}"]
    lines += [f"{f.name} {f.type(getattr(ens.weights, f.name))!r}" for f in fields(FusionWeights)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_ensemble(path) -> EnsembleModel:
    """The ensemble and its member files; the weights must be finite and sum to 1."""
    with open_text(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != ENSEMBLE_MAGIC:
        raise FormatError(f"{path}: not a {ENSEMBLE_MAGIC} file")
    header = dict(ln.partition(" ")[::2] for ln in lines[1:] if ln)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        model1 = mlp.load_model(os.path.join(directory, header["model1"]))
        model2 = mlp.load_model(os.path.join(directory, header["model2"]))
        weights = FusionWeights(**{f.name: f.type(header[f.name]) for f in fields(FusionWeights)})
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: missing or non-numeric field ({exc})") from exc
    if not math.isclose(weights.w1 + weights.w2, 1.0):  # also false for inf or nan
        raise FormatError(f"{path}: fusion weights w1={weights.w1!r} w2={weights.w2!r} do not sum to 1")
    return EnsembleModel(model1=model1, model2=model2, weights=weights)


def load_any_model(path):
    """The model in a .glyph or .mlp file, by its magic line: an EnsembleModel or an MlpModel."""
    with open_text(path) as fh:
        magic = fh.readline().strip()
    if magic == ENSEMBLE_MAGIC:
        return load_ensemble(path)
    return mlp.load_model(path)
