"""Command-line entry point: extract / train / eval / crossval / predict / synth.

Exit codes: 0 success, 1 domain error (training/evaluation), 2 usage,
out-of-range setting, malformed file, IO error or a character that
stdout's encoding cannot hold.
"""

import argparse
import functools
import os
import sys

from . import dataset_io, ensemble, evaluation, mlp, pipeline
from .errors import ConfigError, CorpusError, FormatError, GlyphforgeError, IoError, LabelError, SplitError
from .extractors import EXTRACTORS


def _seed(text) -> int:
    """--seed's value: ASCII digits, a non-negative integer as numpy's generators take; other text is a usage error."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"want a non-negative integer, got {text!r}")
    return int(text)


def _add_seed(parser):
    parser.add_argument("--seed", type=_seed, default=0, help="RNG seed, a non-negative integer (default: 0)")


# training option -> (the pipeline.train_models keyword it sets, type, help): an MlpConfig
# field or calibration_fraction; an option not given keeps that keyword's default
_TRAIN_OPTIONS = {
    "--hidden": ("hidden_size", int, "hidden layer size (default: the extractor's own)"),
    "--lr": ("learning_rate", float, "learning rate"),
    "--momentum": ("momentum", float, "momentum term"),
    "--epochs": ("max_epochs", int, "max training epochs"),
    "--target-mse": ("target_mse", float, "early-stop epoch MSE"),
    "--calibration-fraction": ("calibration_fraction", float, "held-out share for fusion weights"),
}


def _add_train_flags(parser):
    for option, (dest, type_, help_) in _TRAIN_OPTIONS.items():
        parser.add_argument(option, dest=dest, type=type_, help=help_)


def _add_extractor_options(parser):
    """Each extractor's option: --normalize for flag normalize, on or off."""
    for e in EXTRACTORS.values():
        parser.add_argument("--" + e.flag.replace("_", "-"), dest=e.flag, action="store_true", help=e.flag_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glyphforge",
        description="Handwritten-glyph recognition: chain-code and moment "
        "features, MLP classifiers, weighted-majority fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic benchmark corpus")
    p.add_argument("--classes", type=int, default=20)
    p.add_argument("--per-class", type=int, default=75)
    p.add_argument("--out", required=True, help="corpus output directory")
    _add_seed(p)

    p = sub.add_parser("extract", help="extract a feature table from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--extractor", choices=tuple(EXTRACTORS), required=True)
    p.add_argument("--out", required=True, help="feature CSV path")
    _add_extractor_options(p)
    p.add_argument("--strict", action="store_true", help="fail on malformed or blank images instead of skipping")
    p.add_argument("--dump-stages", metavar="DIR", help="write intermediate binary images as PGM")

    p = sub.add_parser("train", help="train an MLP, or with two feature tables the fused pair")
    p.add_argument("--features", required=True, help="feature CSV")
    p.add_argument("--features2", help="second feature CSV: train both MLPs plus fusion weights")
    p.add_argument("--ensemble", action="store_true", help="optional; only checks that --features2 is given")
    p.add_argument("--out", required=True, help="model file path")
    _add_train_flags(p)
    _add_seed(p)

    p = sub.add_parser("eval", help="evaluate a trained model on a feature table")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--features2", help="second feature CSV (ensemble models)")
    p.add_argument("--report", help="write the text report to this path too")
    p.add_argument("--confusion-csv", help="write the confusion matrix as CSV")

    p = sub.add_parser("crossval", help="k-fold cross-validation on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--extractor", choices=(*EXTRACTORS, "ensemble"), default="ensemble")
    p.add_argument("--folds", type=int, default=3)
    _add_extractor_options(p)
    p.add_argument("--out", help="write the structured report to this path")
    _add_train_flags(p)
    _add_seed(p)

    p = sub.add_parser("predict", help="rank classes for one image or a directory")
    p.add_argument("--model", required=True)
    p.add_argument("--image", help="single PGM image")
    p.add_argument("--dir", help="directory of PGM images")
    p.add_argument("-k", type=int, default=5, help="ranks to print")
    return parser


def _extractors(extractor_ids, args):
    """(extractor_id, option) pairs, each option on when given; another extractor's option is a ConfigError."""
    for e in EXTRACTORS.values():
        if getattr(args, e.flag) and e.id not in extractor_ids:
            raise ConfigError(f"--{e.flag.replace('_', '-')} is an option of {e.id}, which this command does not run")
    return [(e, getattr(args, EXTRACTORS[e].flag)) for e in extractor_ids]


def _load_tables(args):
    """The --features table, then the --features2 table when given."""
    return [dataset_io.load_features(p) for p in (args.features, args.features2) if p]


def _train_kwargs(args):
    """pipeline.train_models' keyword arguments: the seed and the training options given."""
    dests = [dest for dest, _, _ in _TRAIN_OPTIONS.values() if getattr(args, dest) is not None]
    return dict({dest: getattr(args, dest) for dest in dests}, seed=args.seed)


def cmd_synth(args) -> int:
    # a second corpus written into a used directory would mix with what is there, and extract would read both
    if os.path.exists(args.out) and not (os.path.isdir(args.out) and not os.listdir(args.out)):
        raise CorpusError(f"--out {args.out} exists and is not an empty directory")
    samples = dataset_io.synth_corpus(args.classes, args.per_class, seed=args.seed)
    dataset_io.save_corpus(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _dump_stages(directory, sample, stages) -> None:
    """Write each stage of one sample as <directory>/<class>_<name>.<stage>.pgm."""
    stem = sample.id.replace("/", "_").removesuffix(".pgm")
    for name, img in stages.items():
        dataset_io.write_binary_pgm(os.path.join(directory, f"{stem}.{name}.pgm"), img)


def cmd_extract(args) -> int:
    ((extractor_id, option),) = _extractors([args.extractor], args)
    samples = dataset_io.load_corpus(args.corpus, strict=args.strict)
    on_stages = None
    if args.dump_stages:
        os.makedirs(args.dump_stages, exist_ok=True)
        on_stages = functools.partial(_dump_stages, args.dump_stages)
    table = pipeline.extract_table(samples, extractor_id, option, on_stages=on_stages)
    dataset_io.save_features(table, args.out)
    print(f"extracted {len(table.rows)} x {table.dim} features to {args.out}")
    return 0


def cmd_train(args) -> int:
    """Train one MLP on --features, or two fused on --features and --features2.

    pipeline.train_models trains an ensemble's two members in two processes
    when this process may use two CPUs; the files written and stdout are the
    same bytes for any CPU count.
    """
    if args.ensemble and not args.features2:
        raise CorpusError("--ensemble needs --features2")
    tables = _load_tables(args)
    labels = sorted({lab for _, lab, _ in tables[0].rows})
    ((model, reports),) = pipeline.train_models([tables], labels, **_train_kwargs(args))
    model.save(args.out)
    for k, (table, report) in enumerate(zip(tables, reports), start=1):
        print(
            f"member {k} ({table.extractor_id}): {report.epochs_run} epochs, "
            f"final MSE {report.final_mse:.6f}, stopped: {report.stop_reason}"
        )
    for line in model.fusion_summary():
        print(line)
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = ensemble.load_any_model(args.model)
    report = evaluation.evaluate(model, _load_tables(args))
    text = evaluation.format_report(report)
    print(text)
    if args.report:
        dataset_io.write_lines(args.report, [text])
    if args.confusion_csv:
        dataset_io.write_lines(args.confusion_csv, [evaluation.confusion_csv(report)])
    return 0


def _tops(accuracies):
    """"top1=... top3=... top5=..." of a {k: accuracy} dict, each float as its repr."""
    return " ".join(f"top{k}={accuracies[k]!r}" for k in evaluation.TOP_KS)


def cmd_crossval(args) -> int:
    """Extract the corpus once, train every fold in one pipeline.train_models call, and evaluate each fold.

    Extraction and training each split their work across the CPUs this
    process may use (pipeline.iter_features, pipeline.train_models); the
    report and stdout are the same bytes for any CPU count.
    """
    extractors = _extractors(tuple(EXTRACTORS) if args.extractor == "ensemble" else (args.extractor,), args)
    tables = pipeline.extract_tables(dataset_io.load_corpus(args.corpus), extractors)
    labels = [lab for _, lab, _ in tables[0].rows]
    splits = evaluation.kfold_splits(labels, evaluation.SplitPlan(mode="kfold", folds=args.folds, seed=args.seed))
    table_sets = [[t.subset(train_idx) for t in tables] for train_idx, _ in splits]
    trained = pipeline.train_models(table_sets, sorted(set(labels)), **_train_kwargs(args))
    report = evaluation.CrossValReport([
        evaluation.evaluate(model, [t.subset(test) for t in tables]) for (model, _), (_, test) in zip(trained, splits)
    ])
    text = "\n".join([
        f"crossval extractor={args.extractor} folds={args.folds} seed={args.seed}",
        *(f"fold {f}: n={rep.n_samples} {_tops(rep.top_k_accuracy)}" for f, rep in enumerate(report.fold_reports)),
        f"mean: {_tops(report.mean_top_k)}",
        f"stddev: {_tops(report.std_top_k)}",
    ])
    print(text)
    if args.out:
        dataset_io.write_lines(args.out, [text])
    return 0


def cmd_predict(args) -> int:
    """Rank each image; --dir reads and extracts pipeline.CHUNK_SIZE images at a time.

    --dir splits its sorted file list across the CPUs this process may use
    (pipeline.iter_features) and scores each chunk in one call, in sample
    order: its output and warnings do not depend on the number of CPUs. A
    malformed image, or one without foreground, is skipped with a warning
    naming it under --dir, and is an error naming it (exit 2) under --image.
    A --dir that leaves no image to rank is iter_features' CorpusError. A
    path with a newline, whose ranked line would span two lines, is a
    CorpusError before any image is read.
    """
    if args.k < 1:
        raise ConfigError("-k must be >= 1")
    if bool(args.image) == bool(args.dir):
        raise CorpusError("predict needs exactly one of --image or --dir")
    model = ensemble.load_any_model(args.model)
    paths = (
        [args.image]
        if args.image
        else sorted(
            os.path.join(args.dir, n)
            for n in os.listdir(args.dir)
            if n.endswith(".pgm")
        )
    )
    if newline := [path for path in paths if "\n" in path]:
        raise CorpusError(f"image {newline[0]!r} has a newline in its path")
    samples = dataset_io.SampleFiles([(path, "", path) for path in paths], strict=bool(args.image))
    for ids, _, matrices in pipeline.iter_features(samples, model.extractors):
        for sample_id, scores in zip(ids, model.scores(matrices)):
            listing = "  ".join(f"{lab}:{score:.4f}" for lab, score in mlp.ranked(model.labels, scores)[: args.k])
            print(f"{sample_id}  {listing}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "extract": cmd_extract,
    "train": cmd_train,
    "eval": cmd_eval,
    "crossval": cmd_crossval,
    "predict": cmd_predict,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, CorpusError, IoError, FormatError, SplitError, LabelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GlyphforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeEncodeError as exc:  # files are written as UTF-8: only a print to stdout can fail to encode
        char = ascii(exc.object[exc.start : exc.end])
        print(f"error: stdout's encoding {sys.stdout.encoding} cannot write {char}; set PYTHONUTF8=1 or "
              "PYTHONIOENCODING=utf-8", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
