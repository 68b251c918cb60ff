"""Weighted-majority fusion of the two MLP classifiers.

Fusion weights are proportional to each member's measured success rate:
w_k = d_k / (d_1 + d_2). The fused score for class i is the convex
combination w1 * o1[i] + w2 * o2[i].
"""

import os
from dataclasses import dataclass

import numpy as np

from . import evaluation, mlp
from .dataset_io import field_lines, from_fields, header_dict, read_lines, write_lines
from .errors import ConfigError, DegenerateWeights, FormatError, ShapeError
from .extractors import EXTRACTORS


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


def fused_scores(weights: FusionWeights, o1: np.ndarray, o2: np.ndarray) -> np.ndarray:
    """w1 * o1 + w2 * o2 for the members' confidences: one sample's, or a (B, classes) matrix each."""
    o1 = np.asarray(o1, dtype=np.float64)
    o2 = np.asarray(o2, dtype=np.float64)
    if o1.shape != o2.shape:
        raise ShapeError(f"confidence lengths differ: {o1.shape} vs {o2.shape}")
    return weights.w1 * o1 + weights.w2 * o2


def fuse(weights: FusionWeights, o1: np.ndarray, o2: np.ndarray):
    """Ranked (class_index, score) of one sample, score descending, ties by class index."""
    scores = fused_scores(weights, o1, o2)
    return mlp.ranked(range(len(scores)), scores)


def calibrate(model1: mlp.MlpModel, model2: mlp.MlpModel, holdout) -> FusionWeights:
    """Weights from each member's top-1 as eval scores it (evaluation.evaluate) on its holdout table, model1's first."""
    return compute_weights(*(evaluation.evaluate(m, [t]).top_k_accuracy[1] for m, t in zip((model1, model2), holdout)))


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
        """The members' (extractor_id, option) pairs, model1 first."""
        return self.model1.extractors + self.model2.extractors

    def scores(self, matrices):
        """(B, classes) fused scores of B samples: one (B, dim) matrix per extractor."""
        x1, x2 = matrices
        return fused_scores(self.weights, mlp.forward(self.model1, x1), mlp.forward(self.model2, x2))

    def fusion_summary(self):
        """One line: the calibration accuracies and the fusion weights."""
        w = self.weights
        return [f"fusion: calibration accuracy d1={w.d1:.4f} d2={w.d2:.4f}, weights w1={w.w1:.4f} w2={w.w2:.4f}"]

    def save(self, path) -> None:
        save_ensemble(self, path)

    def predict(self, x1: np.ndarray, x2: np.ndarray):
        """Ranked (label, fused score) for one sample's two feature vectors."""
        return mlp.ranked(self.labels, self.scores([np.asarray(x1)[None], np.asarray(x2)[None]])[0])


ENSEMBLE_MAGIC = "glyphforge-ensemble v1"


def _member_ids(members):
    """The members' extractor ids; members not of two different registered extractors are a ConfigError."""
    ids = [m.extractor_id for m in members]
    if len(EXTRACTORS.keys() & set(ids)) < len(ids):
        raise ConfigError(f"ensemble members of extractors {ids}: want two different registered extractors")
    return ids


def save_ensemble(ens: EnsembleModel, path) -> None:
    """Write <stem>.<part>.mlp for each member beside the ensemble file, which names them.

    Each member's file is named by its extractor's member_part (chain for
    chain200, moment for moment63), whatever the member order. Members that
    are not of two different registered extractors, whose files would
    overwrite each other, are a ConfigError before any file is written.
    """
    directory = os.path.dirname(os.path.abspath(path))
    stem = os.path.splitext(os.path.basename(path))[0]
    members = (ens.model1, ens.model2)
    member_paths = [f"{stem}.{EXTRACTORS[i].member_part}.mlp" for i in _member_ids(members)]
    for model, member_path in zip(members, member_paths):
        mlp.save_model(model, os.path.join(directory, member_path))
    lines = [ENSEMBLE_MAGIC, f"model1 {member_paths[0]}", f"model2 {member_paths[1]}", *field_lines(ens.weights)]
    write_lines(path, lines)


def load_ensemble(path) -> EnsembleModel:
    """The ensemble and its members of two extractors: d1, d2 in [0, 1] not both 0, w1, w2 as compute_weights gives."""
    header = header_dict([ln for ln in read_lines(path, ENSEMBLE_MAGIC)[1:] if ln], " ", path)
    written = from_fields(FusionWeights, header, path, ("model1", "model2"))
    d1, d2 = written.d1, written.d2
    if not (0 <= d1 <= 1 and 0 <= d2 <= 1 and d1 + d2 > 0):  # also false for nan
        raise FormatError(f"{path}: calibration accuracies d1={d1!r} d2={d2!r} are not in [0, 1] or are both 0")
    weights = compute_weights(d1, d2)
    if written != weights:  # also true for an inf or nan weight
        raise FormatError(f"{path}: fusion weights w1={written.w1!r} w2={written.w2!r} are not d_k / (d1 + d2)")
    directory = os.path.dirname(os.path.abspath(path))
    try:
        model1, model2 = (mlp.load_model(os.path.join(directory, header[k])) for k in ("model1", "model2"))
    except KeyError as exc:
        raise FormatError(f"{path}: missing field ({exc})") from exc
    try:
        _member_ids((model1, model2))
        return EnsembleModel(model1=model1, model2=model2, weights=weights)
    except (ConfigError, ShapeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_any_model(path):
    """The model in a .glyph or .mlp file, by its magic line: an EnsembleModel or an MlpModel."""
    if read_lines(path)[:1] == [ENSEMBLE_MAGIC]:
        return load_ensemble(path)
    return mlp.load_model(path)
