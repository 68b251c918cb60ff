"""End-to-end glue: raw image -> features -> trained models -> rankings."""

import numpy as np

from . import chain_features, dataset_io, ensemble, image_prep, mlp, moment_features
from .errors import FormatError, TrainError

DEFAULT_HIDDEN = {"chain200": 50, "moment63": 45}
# the one option each extractor takes; an extractor's flags dict holds it when on
EXTRACTOR_FLAG = {"chain200": "normalize", "moment63": "log_moments"}


def preprocess_stages(image: np.ndarray, extractor_ids):
    """The binary stages of one grayscale glyph that the extractors need.

    Binarize and normalize always run; the contour only for chain200 and
    the skeleton only for moment63.
    """
    binary = image_prep.binarize(image)
    scaled = image_prep.normalize_size(binary)
    stages = {"binary": binary, "scaled": scaled}
    if "chain200" in extractor_ids:
        stages["contour"] = image_prep.find_contour(scaled)
    if "moment63" in extractor_ids:
        stages["thinned"] = image_prep.thin(scaled)
    return stages


def extract_features(image: np.ndarray, extractors):
    """One feature vector per (extractor_id, flags) pair, from one preprocessing pass."""
    for extractor_id, _ in extractors:
        if extractor_id not in EXTRACTOR_FLAG:
            raise FormatError(f"unknown extractor {extractor_id!r}")
    stages = preprocess_stages(image, [e for e, _ in extractors])
    vectors = []
    for extractor_id, flags in extractors:
        if extractor_id == "chain200":
            vectors.append(chain_features.extract_chain_features(
                stages["contour"], normalize=flags.get("normalize", False)))
        else:
            vectors.append(moment_features.moment_zone_features(
                stages["thinned"], log_scale=flags.get("log_moments", False)))
    return vectors


def extract_tables(samples, extractors):
    """One FeatureTable per (extractor_id, flags) pair, in one pass over the samples."""
    rows = [[] for _ in extractors]
    for s in samples:
        for table_rows, vec in zip(rows, extract_features(s.image, extractors)):
            table_rows.append((s.id, s.label, vec))
    return [
        dataset_io.FeatureTable(
            extractor_id, dataset_io.EXTRACTOR_DIMS[extractor_id], table_rows, dict(flags)
        )
        for (extractor_id, flags), table_rows in zip(extractors, rows)
    ]


def extract_table(samples, extractor_id: str, flags=None) -> dataset_io.FeatureTable:
    (table,) = extract_tables(samples, [(extractor_id, flags or {})])
    return table


def train_mlp_on_table(
    table: dataset_io.FeatureTable,
    labels,
    hidden_size: int = None,
    learning_rate: float = 0.8,
    momentum: float = 0.7,
    max_epochs: int = 1000,
    target_mse: float = 1e-3,
    seed: int = 0,
):
    """Train one MLP on a feature table; returns (model, report)."""
    if not table.rows:
        raise TrainError("feature table has no rows")
    labels = list(labels)
    label_pos = {lab: i for i, lab in enumerate(labels)}
    config = mlp.MlpConfig(
        input_size=table.dim,
        hidden_size=hidden_size or DEFAULT_HIDDEN.get(table.extractor_id, 50),
        output_size=len(labels),
        learning_rate=learning_rate,
        momentum=momentum,
        max_epochs=max_epochs,
        target_mse=target_mse,
        seed=seed,
    )
    model = mlp.init_model(config, labels, extractor_id=table.extractor_id)
    model.extractor_flags = dict(table.flags)
    dataset = [(vec, label_pos[lab]) for _, lab, vec in table.rows]
    report = mlp.train(model, dataset)
    return model, report


def train_ensemble_on_tables(
    table1: dataset_io.FeatureTable,
    table2: dataset_io.FeatureTable,
    labels,
    calibration_fraction: float = 0.2,
    seed: int = 0,
    **train_kwargs,
):
    """Train both member MLPs plus fusion weights from a calibration split.

    The calibration split is carved out of the training data (never the
    test set); both tables must list the same samples in the same order.
    Returns (EnsembleModel, report1, report2).
    """
    dataset_io.check_same_samples([table1, table2])
    labels = list(labels)
    label_pos = {lab: i for i, lab in enumerate(labels)}
    n = len(table1.rows)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_cal = max(1, int(round(calibration_fraction * n)))
    cal_idx = set(int(i) for i in order[:n_cal])
    fit_idx = [i for i in range(n) if i not in cal_idx]
    if not fit_idx:
        raise TrainError("calibration split leaves no training samples")
    model1, report1 = train_mlp_on_table(
        table1.subset(fit_idx), labels, seed=seed, **train_kwargs
    )
    model2, report2 = train_mlp_on_table(
        table2.subset(fit_idx), labels, seed=seed, **train_kwargs
    )
    holdout = [
        (table1.rows[i][2], table2.rows[i][2], label_pos[table1.rows[i][1]])
        for i in sorted(cal_idx)
    ]
    weights = ensemble.calibrate(model1, model2, holdout)
    return ensemble.EnsembleModel(model1, model2, weights), report1, report2


def train_model(tables, labels, calibration_fraction: float = 0.2, **train_kwargs):
    """Train one MLP per feature table, fused by calibrated weights when there are two.

    train_kwargs are train_mlp_on_table's seed and hyperparameters. Returns
    (MlpModel or EnsembleModel, one TrainingReport per member in table order).
    """
    if len(tables) == 1:
        model, report = train_mlp_on_table(*tables, labels, **train_kwargs)
        return model, [report]
    model, *reports = train_ensemble_on_tables(
        *tables, labels, calibration_fraction=calibration_fraction, **train_kwargs
    )
    return model, reports
