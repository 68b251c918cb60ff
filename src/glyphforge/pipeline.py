"""End-to-end glue: raw image -> features -> trained models -> rankings."""

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


def _chunk_features(chunk, extractors, strict, on_stages):
    """(sample, vectors) for each sample of one chunk that has foreground.

    Binarize and normalize run per image; a sample without foreground is
    skipped with a warning that names it, or with strict is a CorpusError.
    Each stage the extractors read is made once, as one (N, H, W) stack of
    the kept images, and each extractor reads that stack. With on_stages,
    every registered stage is made, and on_stages(sample, stages) sees each
    kept sample's stages dict ("binary", "scaled" and each stage) first.
    """
    kept, binaries, scaled = [], [], []
    for sample in chunk:
        try:
            gray = np.asarray(sample.image, dtype=np.uint8)
            if gray.size and gray.min() == gray.max():
                # binarize would warn without naming the image, and then find no foreground
                raise EmptyGlyph("image has no foreground pixel")
            binary = image_prep.binarize(gray)
            scaled.append(image_prep.normalize_size(binary))
        except EmptyGlyph as exc:
            if strict:
                raise CorpusError(f"{sample.id}: {exc}") from exc
            warnings.warn(f"skipping {sample.id}: {exc}")
            continue
        kept.append(sample)
        binaries.append(binary)
    if not kept:
        return []
    scaled = np.stack(scaled)
    needed = list(EXTRACTORS) if on_stages else [x for x, _ in extractors]
    makers = {EXTRACTORS[x].stage: EXTRACTORS[x].make_stage for x in needed}
    stacks = {name: make_stage(scaled) for name, make_stage in makers.items()}
    if on_stages:
        stages = {"binary": binaries, "scaled": scaled, **stacks}
        for i, sample in enumerate(kept):
            on_stages(sample, {name: stack[i] for name, stack in stages.items()})
    columns = []
    for extractor_id, flags in extractors:
        e = EXTRACTORS[extractor_id]
        columns.append(e.features(stacks[e.stage], flags.get(e.flag, False)))
    return list(zip(kept, zip(*columns)))


def iter_features(samples, extractors, strict: bool = False, on_stages=None):
    """(sample, vectors) for each sample with foreground: one vector per (extractor_id, flags) pair.

    Samples are read and processed CHUNK_SIZE at a time (see _chunk_features
    for skipped samples, strict and on_stages); a chunk's stages are freed
    before the next chunk is read. An unknown extractor id is a FormatError.
    """
    for extractor_id, _ in extractors:
        if extractor_id not in EXTRACTORS:
            raise FormatError(f"unknown extractor {extractor_id!r}")
    samples = iter(samples)
    while chunk := list(itertools.islice(samples, CHUNK_SIZE)):
        yield from _chunk_features(chunk, extractors, strict, on_stages)


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


def train_model(
    tables, labels, calibration_fraction: float = CALIBRATION_FRACTION,
    hidden_size: int = None, seed: int = 0, **config,
):
    """Train one MLP per feature table, fused by calibrated weights when there are two.

    One table trains on all its rows. Two tables must list the same samples
    in the same order: a seeded calibration_fraction of the rows is held out
    (never the test set), each member trains on the rest, and the members'
    top-1 accuracies on the holdout give the fusion weights. The fraction is
    checked even for one table, which does not use it. hidden_size None
    takes each extractor's own; config: the other MlpConfig training fields,
    each left out keeps its MlpConfig default. Returns (MlpModel or
    EnsembleModel, one TrainingReport per member in table order).
    """
    if not 0 < calibration_fraction < 1:
        raise ConfigError("calibration_fraction must be in (0, 1)")
    dataset_io.check_same_samples(tables)
    rows = tables[0].rows
    if not rows:
        raise TrainError("feature table has no rows")
    labels = list(labels)
    label_pos = {lab: i for i, lab in enumerate(labels)}
    fit_idx, cal_idx = range(len(rows)), []
    if len(tables) > 1:
        order = np.random.default_rng(seed).permutation(len(rows))
        cal_idx = sorted(int(i) for i in order[: max(1, int(round(calibration_fraction * len(rows))))])
        fit_idx = sorted(set(fit_idx) - set(cal_idx))
        if not fit_idx:
            raise TrainError("calibration split leaves no training samples")
    members, reports = [], []
    for table in tables:
        size = EXTRACTORS[table.extractor_id].hidden_size if hidden_size is None else hidden_size
        cfg = mlp.MlpConfig(input_size=table.dim, hidden_size=size, output_size=len(labels), seed=seed, **config)
        model = mlp.init_model(cfg, labels, extractor_id=table.extractor_id)
        model.extractor_flags = dict(table.flags)
        reports.append(mlp.train(model, [(table.rows[i][2], label_pos[table.rows[i][1]]) for i in fit_idx]))
        members.append(model)
    if len(members) == 1:
        return members[0], reports
    holdout = [(*(t.rows[i][2] for t in tables), label_pos[rows[i][1]]) for i in cal_idx]
    return ensemble.EnsembleModel(*members, ensemble.calibrate(*members, holdout)), reports


def train_ensemble_on_tables(table1, table2, labels, **train_kwargs):
    """train_model on two tables; returns (EnsembleModel, report1, report2)."""
    model, reports = train_model([table1, table2], labels, **train_kwargs)
    return (model, *reports)
