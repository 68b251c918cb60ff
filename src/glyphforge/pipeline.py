"""End-to-end glue: raw image -> features -> trained models -> rankings."""

import contextlib
import itertools
import os
import pickle
import signal
import sys
import traceback
import warnings

import numpy as np

from . import dataset_io, ensemble, image_prep, mlp
from .errors import ConfigError, CorpusError, ExtractionError, TrainError
from .extractors import EXTRACTORS

CALIBRATION_FRACTION = 0.2  # default share of the training rows held out to calibrate fusion weights
# images per chunk, each stage taking the chunk as one stack: over the
# paper-scale corpus (extract chain200 then moment63 in one process, two
# sets of 12 and 16 alternating runs), chunks of 64 and 128 took peak RSS
# from ~35.5 to ~37.5 and ~42.2 MB, and their median time moved by -9% and
# +5% (64) and by -11% and -4% (128); chunks of 8 took 33-40% more time
CHUNK_SIZE = 32


def _chunk_features(chunk, extractors, on_stages):
    """(ids, labels, matrices) of one chunk of samples, each with foreground: a (len(chunk), dim) matrix per extractor.

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
    return [s.id for s in chunk], [s.label for s in chunk], matrices


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        return os.cpu_count() or 1


def _spans(n: int, unit: int = 1) -> list:
    """(start, stop) of each contiguous part of n items, cut at whole units of unit items.

    At most one part per CPU this process may use and at most one per unit;
    one part, (0, n), where os.fork does not exist.
    """
    units = -(-n // unit)
    parts = max(1, min(_cpus(), units)) if hasattr(os, "fork") else 1
    cuts = [min(n, unit * (k * units // parts)) for k in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


def _parts(samples, on_stages) -> list:
    """samples cut into contiguous parts of whole chunks (_spans).

    One part, samples itself, unless samples is a dataset_io.SampleFiles and on_stages is None.
    """
    if not isinstance(samples, dataset_io.SampleFiles) or on_stages:
        return [samples]
    spans = _spans(len(samples.files), CHUNK_SIZE)
    return [dataset_io.SampleFiles(samples.files[a:b], samples.strict) for a, b in spans]


def _part_features(samples, extractors, on_stages=None):
    """Each skip text of samples and each chunk's (ids, labels, matrices), in sample order, extracted here."""
    chunk = []
    for sample in samples:
        if isinstance(sample, str):
            yield sample
            continue
        chunk.append(sample)
        if len(chunk) == CHUNK_SIZE:
            yield _chunk_features(chunk, extractors, on_stages)
            chunk = []
    if chunk:
        yield _chunk_features(chunk, extractors, on_stages)


def _items(fn, args):
    """(the items fn(*args) yields until an exception stops it, that exception or None), run in this process."""
    items, error = [], None
    try:
        for item in fn(*args):
            items.append(item)
    except Exception as exc:
        error = exc
    return items, error


def _fork(fn, args):
    """(pid, read end of its pipe) of a forked child that sends the pickled _items(fn, args), then exits."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # os._exit never flushes the parent's buffers or runs its atexit hooks
        code = 1
        try:
            os.close(r)
            payload = pickle.dumps(_items(fn, args))
            with os.fdopen(w, "wb") as pipe:
                pipe.write(payload)
            code = 0
        except BaseException:  # not re-raised: the child must never return into its parent's frames
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _child_items(children, names, error):
    """The items of each child in turn, then its exception, if any; children loses each child it reaps.

    A child that ends without a result is an error (error, an exception class) with the child's name from names.
    """
    for name in names:
        pid, pipe = children[0]
        with pipe:
            payload = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del children[0]
        if status or not payload:
            raise error(f"{name} ended without a result (exit status {status})")
        items, exc = pickle.loads(payload)
        yield from items
        if exc is not None:
            raise exc


@contextlib.contextmanager
def _forked(fn, parts, names, error):
    """The items of a forked child per args of parts, each running fn(*args) (_fork), as one lazy iterator.

    The children start on entry and are read in part order, each when the iterator reaches it (_child_items,
    which names a child that ends without a result by its entry of names). Every child not yet read at exit,
    after an exception or an early stop, is killed and reaped.
    """
    children = []  # (pid, pipe) of each child not yet reaped, in part order
    try:
        if parts:
            sys.stdout.flush()
            sys.stderr.flush()
        for args in parts:
            children.append(_fork(fn, args))
        yield _child_items(children, names, error)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def iter_features(samples, extractors, on_stages=None):
    """(ids, labels, matrices) for each chunk of samples, in sample order: one matrix per (extractor_id, option) pair.

    Samples are read and processed CHUNK_SIZE at a time (see _chunk_features
    for on_stages); a chunk's stages are freed before the next chunk is read.
    Each sample must have foreground: a dataset_io.SampleFiles yields a skip
    text in place of each image it skips, warned here from one call site. A
    pass that yields no chunk is a CorpusError.

    A SampleFiles pass without on_stages is cut into contiguous parts (_parts),
    one per CPU this process may use. This process forks a child for each part
    after the first and extracts the first itself. Every part's skip texts and
    chunks go through one loop: the first part's as it reads them, then each
    child's in part order, each child's error after them. So chunks, warnings
    and the first --strict error come in sample order, the same for any number
    of parts, under any warnings filter and across passes. A child that ends
    without a result is an ExtractionError naming its part. Every child not yet
    read is killed and reaped when the iteration fails or stops early.
    """
    first, *rest = _parts(samples, on_stages)
    names = [
        f"part {k} of {len(rest) + 1} of the files ({part.files[0][0]} to {part.files[-1][0]})"
        for k, part in enumerate(rest, start=2)
    ]
    with _forked(_part_features, [(part, extractors) for part in rest], names, ExtractionError) as child_items:
        chunks = 0
        for item in itertools.chain(_part_features(first, extractors, on_stages), child_items):
            if isinstance(item, str):
                warnings.warn(item)
            else:
                chunks += 1
                yield item
        if not chunks:
            raise CorpusError("no usable image: every image was skipped")


def extract_tables(samples, extractors, on_stages=None):
    """One FeatureTable per (extractor_id, option) pair, in one pass over the samples (see iter_features)."""
    rows = [[] for _ in extractors]
    for ids, labels, matrices in iter_features(samples, extractors, on_stages):
        for table_rows, matrix in zip(rows, matrices):
            table_rows.extend(zip(ids, labels, matrix))
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
    """Train one model per set of feature tables, their member MLPs split across the CPUs this process may use.

    A set trains one MLP per table, fused by calibrated weights when there
    are two. One table trains on all its rows. Two tables must be of two
    extractors (a ConfigError before any member trains) and list the same
    samples in the same order: a seeded calibration_fraction of the rows is
    held out (never the test set), each member trains on the rest, and the
    members' top-1 accuracies on the holdout give the fusion weights. The
    fraction is checked even for one table, which does not use it.
    hidden_size None takes each extractor's own; config: the other MlpConfig
    training fields, each left out keeps its MlpConfig default.

    The members, in set order and table order within a set, are cut into
    contiguous parts (_spans), at most one per CPU and one per member. This
    process forks a child for each part after the first, trains the first
    part itself, then takes each child's trained members and reports from a
    pipe in part order; a child that ends without a result is a TrainError
    naming its part, a child's own error is raised here as it was, and no
    child outlives the call. Each part trains in one mlp.train_lanes call:
    its members of one extractor on equally many rows, such as the folds of
    a cross-validation, train as lanes in lockstep, and each equals its
    training alone bit for bit, so the trained bytes do not depend on the
    number of CPUs. Returns one (MlpModel or EnsembleModel, one
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
    (a, b), *rest = spans = _spans(len(members))
    names = [f"part {k} of {len(spans)} of the members ({i + 1} to {j})" for k, (i, j) in enumerate(rest, start=2)]
    with _forked(_train_part, [(members[i:j], datasets[i:j]) for i, j in rest], names, TrainError) as child_items:
        trained = iter([*_train_part(members[a:b], datasets[a:b]), *child_items])
    results = []
    for tables, holdout in zip(table_sets, holdouts):
        models, reports = zip(*itertools.islice(trained, len(tables)))
        model = models[0] if len(models) == 1 else ensemble.EnsembleModel(*models, ensemble.calibrate(*models, holdout))
        results.append((model, list(reports)))
    return results


def _train_part(members, datasets):
    """Each of members with its TrainingReport, in member order, trained here in one mlp.train_lanes call."""
    yield from zip(members, mlp.train_lanes(members, datasets))


def train_ensemble_on_tables(table1, table2, labels, **train_kwargs):
    """train_models on one set of two tables; returns (EnsembleModel, report1, report2)."""
    ((model, reports),) = train_models([[table1, table2]], labels, **train_kwargs)
    return (model, *reports)
