"""End-to-end glue: raw image -> features -> trained models -> rankings."""

import functools
import itertools
import warnings

import numpy as np

from . import dataset_io, ensemble, image_prep, mlp
from .errors import ConfigError, CorpusError, EmptyGlyph, FormatError, TrainError
from .extractors import EXTRACTORS

CALIBRATION_FRACTION = 0.2  # default share of the training rows held out to calibrate fusion weights
# images per thin call: thinning all 1500 images of the paper-scale corpus
# as one stack took extract's peak RSS from 45 to 85 MB, and chunks of 8
# ran ~9% slower than chunks of 32
CHUNK_SIZE = 32


def _preprocess_chunk(images, extractor_ids):
    """The binary stages each image of a chunk needs, or the EmptyGlyph it raised.

    Binarize and normalize run per image; each stage the extractors read,
    once on the stack of the chunk's images.
    """
    stages = []
    for image in images:
        try:
            gray = np.asarray(image, dtype=np.uint8)
            if gray.size and gray.min() == gray.max():
                # binarize would warn without naming the image, and then find no foreground
                raise EmptyGlyph("image has no foreground pixel")
            binary = image_prep.binarize(gray)
            stages.append({"binary": binary, "scaled": image_prep.normalize_size(binary)})
        except EmptyGlyph as exc:
            stages.append(exc)
    kept = [st for st in stages if isinstance(st, dict)]
    if kept:
        scaled = np.stack([st["scaled"] for st in kept])
        makers = {EXTRACTORS[e].stage: EXTRACTORS[e].make_stage for e in extractor_ids}
        for name, make_stage in makers.items():
            for st, img in zip(kept, make_stage(scaled)):
                st[name] = img
    return stages


def _stage_chunks(samples, extractor_ids, strict):
    """Per CHUNK_SIZE samples, the (sample, stages) pairs of those with foreground.

    samples may be an iterator; it is read one chunk at a time. A sample
    whose image has no foreground pixel is skipped with a warning that names
    it; with strict it is a CorpusError instead.
    """
    samples = iter(samples)
    while chunk := list(itertools.islice(samples, CHUNK_SIZE)):
        kept = []
        for sample, stages in zip(chunk, _preprocess_chunk([s.image for s in chunk], extractor_ids)):
            if isinstance(stages, EmptyGlyph):
                if strict:
                    raise CorpusError(f"{sample.id}: {stages}")
                warnings.warn(f"skipping {sample.id}: {stages}")
            else:
                kept.append((sample, stages))
        yield kept


def _chunk_features(kept, extractors, on_stages):
    """(sample, vectors) for one chunk's (sample, stages) pairs: one call per extractor on its stage's stack."""
    if not kept:
        return []
    if on_stages:
        for sample, stages in kept:
            on_stages(sample, stages)
    columns = []
    for extractor_id, flags in extractors:
        e = EXTRACTORS[extractor_id]
        columns.append(e.features(np.stack([st[e.stage] for _, st in kept]), flags.get(e.flag, False)))
    return list(zip([s for s, _ in kept], zip(*columns)))


def iter_features(samples, extractors, strict: bool = False, on_stages=None):
    """(sample, vectors) for each sample with foreground: one vector per (extractor_id, flags) pair.

    Samples are read CHUNK_SIZE at a time; those without foreground are
    skipped, or fail with strict (see _stage_chunks). An unknown extractor id
    is a FormatError. With on_stages, every registered stage is made, and
    on_stages(sample, stages) sees each sample's stages dict ("binary",
    "scaled" and each extractor's stage) before its vectors are made.
    """
    for extractor_id, _ in extractors:
        if extractor_id not in EXTRACTORS:
            raise FormatError(f"unknown extractor {extractor_id!r}")
    chunks = _stage_chunks(samples, list(EXTRACTORS) if on_stages else [e for e, _ in extractors], strict)
    # map, not a loop variable: a chunk's stages are freed before the next
    # chunk is preprocessed (holding two chunks cost ~0.5 MB of peak RSS)
    for features in map(functools.partial(_chunk_features, extractors=extractors, on_stages=on_stages), chunks):
        yield from features


def extract_tables(samples, extractors, strict: bool = False, on_stages=None):
    """One FeatureTable per (extractor_id, flags) pair, in one pass over the samples.

    Samples without foreground are skipped, or fail with strict; on_stages
    sees each kept sample's stages (see iter_features).
    """
    rows = [[] for _ in extractors]
    for s, vectors in iter_features(samples, extractors, strict, on_stages):
        for table_rows, vec in zip(rows, vectors):
            table_rows.append((s.id, s.label, vec))
    return [
        dataset_io.FeatureTable(extractor_id, EXTRACTORS[extractor_id].dim, table_rows, dict(flags))
        for (extractor_id, flags), table_rows in zip(extractors, rows)
    ]


def extract_table(
    samples, extractor_id: str, flags=None, strict: bool = False, on_stages=None
) -> dataset_io.FeatureTable:
    """extract_tables for one extractor: its FeatureTable."""
    (table,) = extract_tables(samples, [(extractor_id, flags or {})], strict, on_stages)
    return table


def train_mlp_on_table(table: dataset_io.FeatureTable, labels, hidden_size: int = None, **config):
    """Train one MLP on a feature table; returns (model, report).

    config: MlpConfig training fields, each left out keeps its MlpConfig default.
    """
    if not table.rows:
        raise TrainError("feature table has no rows")
    if hidden_size is None:
        hidden_size = EXTRACTORS[table.extractor_id].hidden_size
    labels = list(labels)
    label_pos = {lab: i for i, lab in enumerate(labels)}
    config = mlp.MlpConfig(
        input_size=table.dim, hidden_size=hidden_size, output_size=len(labels), **config
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
    calibration_fraction: float = CALIBRATION_FRACTION,
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


def train_model(tables, labels, calibration_fraction: float = CALIBRATION_FRACTION, **train_kwargs):
    """Train one MLP per feature table, fused by calibrated weights when there are two.

    train_kwargs are train_mlp_on_table's keyword arguments. The calibration
    fraction is checked even for one table, which does not use it. Returns
    (MlpModel or EnsembleModel, one TrainingReport per member in table order).
    """
    if not 0 < calibration_fraction < 1:
        raise ConfigError("calibration_fraction must be in (0, 1)")
    if len(tables) == 1:
        model, report = train_mlp_on_table(*tables, labels, **train_kwargs)
        return model, [report]
    model, *reports = train_ensemble_on_tables(
        *tables, labels, calibration_fraction=calibration_fraction, **train_kwargs
    )
    return model, reports
