"""End-to-end glue: raw image -> features -> trained models -> rankings."""

import itertools
import warnings

import numpy as np

from . import dataset_io, ensemble, image_prep, mlp
from .errors import ConfigError, CorpusError, FormatError, TrainError
from .extractors import EXTRACTORS

CALIBRATION_FRACTION = 0.2  # default share of the training rows held out to calibrate fusion weights
# images per thin call: thinning all 1500 images of the paper-scale corpus
# as one stack took extract's peak RSS from 45 to 85 MB, and chunks of 8
# ran ~9% slower than chunks of 32
CHUNK_SIZE = 32


def _preprocess(chunk, strict):
    """(kept samples, their binary images, their (len(kept), 60, 60) normalized stack), or None if none is kept.

    The chunk's images of one shape are binarized and normalized as one
    stack. A uniform image has no foreground: it is skipped with a warning
    that names it, in sample order, or with strict the first one is a
    CorpusError.
    """
    shapes = {}
    for i, sample in enumerate(chunk):
        shapes.setdefault(sample.image.shape, []).append(i)
    groups = [(np.array(idx), np.stack([chunk[i].image for i in idx])) for idx in shapes.values()]
    blank = np.zeros(len(chunk), bool)
    for idx, gray in groups:
        blank[idx] = image_prep.uniform(gray)
    for i in np.flatnonzero(blank):
        reason = f"{chunk[i].id}: {image_prep.NO_FOREGROUND}"
        if strict:
            raise CorpusError(reason)
        warnings.warn(f"skipping {reason}")
    kept, binaries, scaled = [], [], []
    for idx, gray in groups:
        keep = ~blank[idx]
        if keep.any():
            binary = image_prep.binarize(gray[keep])
            kept.extend(idx[keep])
            binaries.extend(binary)
            scaled.append(image_prep.normalize_size(binary))
    if not kept:
        return None
    order = np.argsort(kept)  # sample order, when the chunk holds more than one shape
    return [chunk[kept[j]] for j in order], [binaries[j] for j in order], np.concatenate(scaled)[order]


def _chunk_features(chunk, extractors, strict, on_stages):
    """(kept samples, one (len(kept), dim) matrix per extractor) for one chunk, or None if it keeps none.

    _preprocess binarizes and normalizes the chunk and skips, or with
    strict fails on, each sample without foreground. Each stage the
    extractors read is made once, as one (N, H, W) stack of the kept
    images, and each extractor reads that stack. With on_stages, every
    registered stage is made, and on_stages(sample, stages) sees each kept
    sample's stages dict ("binary", "scaled" and each stage) first.
    """
    if (preprocessed := _preprocess(chunk, strict)) is None:
        return None
    kept, binaries, scaled = preprocessed
    needed = list(EXTRACTORS) if on_stages else [x for x, _ in extractors]
    makers = {EXTRACTORS[x].stage: EXTRACTORS[x].make_stage for x in needed}
    stacks = {name: make_stage(scaled) for name, make_stage in makers.items()}
    if on_stages:
        stages = {"binary": binaries, "scaled": scaled, **stacks}
        for i, sample in enumerate(kept):
            on_stages(sample, {name: stack[i] for name, stack in stages.items()})
    matrices = []
    for extractor_id, flags in extractors:
        e = EXTRACTORS[extractor_id]
        matrices.append(e.features(stacks[e.stage], flags.get(e.flag, False)))
    return kept, matrices


def iter_features(samples, extractors, strict: bool = False, on_stages=None):
    """(kept samples, matrices) for each chunk that keeps a sample: one matrix per (extractor_id, flags) pair.

    Samples are read and processed CHUNK_SIZE at a time (see _chunk_features
    for skipped samples, strict and on_stages); a chunk's stages are freed
    before the next chunk is read. An unknown extractor id is a FormatError.
    """
    for extractor_id, _ in extractors:
        if extractor_id not in EXTRACTORS:
            raise FormatError(f"unknown extractor {extractor_id!r}")
    samples = iter(samples)
    while chunk := list(itertools.islice(samples, CHUNK_SIZE)):
        if features := _chunk_features(chunk, extractors, strict, on_stages):
            yield features


def extract_tables(samples, extractors, strict: bool = False, on_stages=None):
    """One FeatureTable per (extractor_id, flags) pair, in one pass over the samples.

    Samples without foreground are skipped, or fail with strict; a pass
    that keeps no sample is a CorpusError. on_stages sees each kept
    sample's stages (see iter_features).
    """
    rows = [[] for _ in extractors]
    for kept, matrices in iter_features(samples, extractors, strict, on_stages):
        for table_rows, matrix in zip(rows, matrices):
            table_rows.extend((s.id, s.label, vec) for s, vec in zip(kept, matrix))
    if not rows[0]:
        raise CorpusError("no usable image: every image was skipped")
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


def train_models(
    table_sets, labels, calibration_fraction: float = CALIBRATION_FRACTION,
    hidden_size: int = None, seed: int = 0, **config,
):
    """Train one model per set of feature tables, every member MLP in one mlp.train_lanes call.

    A set trains one MLP per table, fused by calibrated weights when there
    are two. One table trains on all its rows. Two tables must list the same
    samples in the same order: a seeded calibration_fraction of the rows is
    held out (never the test set), each member trains on the rest, and the
    members' top-1 accuracies on the holdout give the fusion weights. The
    fraction is checked even for one table, which does not use it.
    hidden_size None takes each extractor's own; config: the other MlpConfig
    training fields, each left out keeps its MlpConfig default.

    Members of one extractor on equally many rows, such as the folds of a
    cross-validation, train as lanes in lockstep; each equals its training
    alone bit for bit. Returns one (MlpModel or EnsembleModel, one
    TrainingReport per member in table order) pair per set.
    """
    if not 0 < calibration_fraction < 1:
        raise ConfigError("calibration_fraction must be in (0, 1)")
    labels = list(labels)
    label_pos = {lab: i for i, lab in enumerate(labels)}
    members, datasets, holdouts = [], [], []
    for tables in table_sets:
        dataset_io.check_same_samples(tables)
        rows = tables[0].rows
        fit_idx, cal_idx = range(len(rows)), []
        if len(tables) > 1:
            order = np.random.default_rng(seed).permutation(len(rows))
            cal_idx = sorted(int(i) for i in order[: max(1, int(round(calibration_fraction * len(rows))))])
            fit_idx = sorted(set(fit_idx) - set(cal_idx))
            if not fit_idx:
                raise TrainError("calibration split leaves no training samples")
        holdouts.append([(*(t.rows[i][2] for t in tables), label_pos[rows[i][1]]) for i in cal_idx])
        for table in tables:
            size = EXTRACTORS[table.extractor_id].hidden_size if hidden_size is None else hidden_size
            cfg = mlp.MlpConfig(input_size=table.dim, hidden_size=size, output_size=len(labels), seed=seed, **config)
            model = mlp.init_model(cfg, labels, extractor_id=table.extractor_id)
            model.extractor_flags = dict(table.flags)
            members.append(model)
            datasets.append([(table.rows[i][2], label_pos[table.rows[i][1]]) for i in fit_idx])
    reports, members = iter(mlp.train_lanes(members, datasets)), iter(members)
    results = []
    for tables, holdout in zip(table_sets, holdouts):
        models = list(itertools.islice(members, len(tables)))
        model = models[0] if len(models) == 1 else ensemble.EnsembleModel(*models, ensemble.calibrate(*models, holdout))
        results.append((model, list(itertools.islice(reports, len(tables)))))
    return results


def train_ensemble_on_tables(table1, table2, labels, **train_kwargs):
    """train_models on one set of two tables; returns (EnsembleModel, report1, report2)."""
    ((model, reports),) = train_models([[table1, table2]], labels, **train_kwargs)
    return (model, *reports)
