"""End-to-end glue: raw image -> features -> trained models -> rankings."""

import itertools

import numpy as np

from . import dataset_io, ensemble, image_prep, mlp
from .errors import ConfigError, CorpusError, TrainError
from .extractors import EXTRACTORS

CALIBRATION_FRACTION = 0.2  # default share of the training rows held out to calibrate fusion weights
# images per chunk, each stage taking the chunk as one stack: over the
# paper-scale corpus (extract chain200 then moment63 in one process, two
# sets of 12 and 16 alternating runs), chunks of 64 and 128 took peak RSS
# from ~35.5 to ~37.5 and ~42.2 MB, and their median time moved by -9% and
# +5% (64) and by -11% and -4% (128); chunks of 8 took 33-40% more time
CHUNK_SIZE = 32


def _chunk_features(chunk, extractors, on_stages):
    """One (len(chunk), dim) matrix per extractor for one chunk of samples, each with foreground.

    The chunk's images of one shape are binarized and normalized as one
    stack, then put back in sample order. Each stage the extractors read is
    made once, as one (N, H, W) stack, and each extractor reads that stack.
    With on_stages, every registered stage is made, and on_stages(sample,
    stages) sees each sample's stages dict ("binary", "scaled" and each
    stage) first.
    """
    shapes = {}
    for i, sample in enumerate(chunk):
        shapes.setdefault(sample.image.shape, []).append(i)
    stacked, binaries, scaled = [], [], []
    for idx in shapes.values():
        binary = image_prep.binarize(np.stack([chunk[i].image for i in idx]))
        stacked.extend(idx)
        binaries.extend(binary)
        scaled.append(image_prep.normalize_size(binary))
    order = np.argsort(stacked)  # sample order, when the chunk holds more than one shape
    binaries, scaled = [binaries[j] for j in order], np.concatenate(scaled)[order]
    needed = list(EXTRACTORS) if on_stages else [x for x, _ in extractors]
    makers = {EXTRACTORS[x].stage: EXTRACTORS[x].make_stage for x in needed}
    stacks = {name: make_stage(scaled) for name, make_stage in makers.items()}
    if on_stages:
        stages = {"binary": binaries, "scaled": scaled, **stacks}
        for i, sample in enumerate(chunk):
            on_stages(sample, {name: stack[i] for name, stack in stages.items()})
    matrices = []
    for extractor_id, option in extractors:
        e = EXTRACTORS[extractor_id]
        matrices.append(e.features(stacks[e.stage], option))
    return matrices


def iter_features(samples, extractors, on_stages=None):
    """(chunk, matrices) for each chunk of samples: one matrix per (extractor_id, option) pair.

    Samples are read and processed CHUNK_SIZE at a time (see _chunk_features
    for on_stages); a chunk's stages are freed before the next chunk is read.
    Each sample must have foreground: dataset_io.read_samples skips the
    others.
    """
    samples = iter(samples)
    while chunk := list(itertools.islice(samples, CHUNK_SIZE)):
        yield chunk, _chunk_features(chunk, extractors, on_stages)


def extract_tables(samples, extractors, on_stages=None):
    """One FeatureTable per (extractor_id, option) pair, in one pass over the samples.

    A pass over no sample is a CorpusError. on_stages sees each sample's
    stages (see iter_features).
    """
    rows = [[] for _ in extractors]
    for chunk, matrices in iter_features(samples, extractors, on_stages):
        for table_rows, matrix in zip(rows, matrices):
            table_rows.extend((s.id, s.label, vec) for s, vec in zip(chunk, matrix))
    if not rows[0]:
        raise CorpusError("no usable image: every image was skipped")
    return [
        dataset_io.FeatureTable(extractor_id, EXTRACTORS[extractor_id].dim, table_rows, option)
        for (extractor_id, option), table_rows in zip(extractors, rows)
    ]


def extract_table(samples, extractor_id: str, option=False, on_stages=None) -> dataset_io.FeatureTable:
    """extract_tables for one extractor: its FeatureTable."""
    (table,) = extract_tables(samples, [(extractor_id, option)], on_stages)
    return table


def train_models(
    table_sets, labels, calibration_fraction: float = CALIBRATION_FRACTION,
    hidden_size: int = None, seed: int = 0, **config,
):
    """Train one model per set of feature tables, every member MLP in one mlp.train_lanes call.

    A set trains one MLP per table, fused by calibrated weights when there
    are two. One table trains on all its rows. Two tables must be of two
    extractors (a ConfigError before any member trains) and list the same
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
        if len({t.extractor_id for t in tables}) < len(tables):  # its members would train alike on the same rows
            raise ConfigError(f"two feature tables of {tables[-1].extractor_id}: an ensemble needs two extractors")
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
            model.option = table.option
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
