"""Command-line entry point: extract / train / eval / crossval / predict / synth.

Exit codes: 0 success, 1 domain error (training/evaluation), 2 usage,
out-of-range setting, malformed file or IO error. GLYPHFORGE_SEED sets the
default --seed for every subcommand.
"""

import argparse
import functools
import os
import sys

from . import dataset_io, ensemble, evaluation, mlp, pipeline
from .errors import ConfigError, CorpusError, FormatError, GlyphforgeError, IoError
from .extractors import EXTRACTORS


def _default_seed() -> int:
    seed = os.environ.get("GLYPHFORGE_SEED", "0")
    try:
        return int(seed)
    except ValueError:
        raise ConfigError(f"GLYPHFORGE_SEED must be an integer, not {seed!r}") from None


def _add_seed(parser):
    parser.add_argument(
        "--seed", type=int, default=_default_seed(), help="RNG seed (default: $GLYPHFORGE_SEED or 0)"
    )


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


def _add_extractor_flags(parser):
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
    _add_extractor_flags(p)
    p.add_argument("--strict", action="store_true", help="fail on malformed images instead of skipping")
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
    _add_extractor_flags(p)
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
    """(extractor_id, flags) pairs, a flag on when its option is; another extractor's option is a ConfigError."""
    for e in EXTRACTORS.values():
        if getattr(args, e.flag) and e.id not in extractor_ids:
            raise ConfigError(f"--{e.flag.replace('_', '-')} is an option of {e.id}, which this command does not run")
    return [(e, {EXTRACTORS[e].flag: True} if getattr(args, EXTRACTORS[e].flag) else {}) for e in extractor_ids]


def _load_tables(args):
    """The --features table, then the --features2 table when given."""
    return [dataset_io.load_features(p) for p in (args.features, args.features2) if p]


def _train_kwargs(args):
    """pipeline.train_models' keyword arguments: the seed and the training options given."""
    dests = [dest for dest, _, _ in _TRAIN_OPTIONS.values() if getattr(args, dest) is not None]
    return dict({dest: getattr(args, dest) for dest in dests}, seed=args.seed)


def _ranked(model, matrices):
    """Yield mlp.ranked of each of B samples, scored in one call on a (B, dim) matrix or B vectors per extractor."""
    return (mlp.ranked(model.labels, row) for row in model.scores(matrices).tolist())


def cmd_synth(args) -> int:
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
    ((extractor_id, flags),) = _extractors([args.extractor], args)
    samples = dataset_io.load_corpus(args.corpus, strict=args.strict)
    on_stages = None
    if args.dump_stages:
        os.makedirs(args.dump_stages, exist_ok=True)
        on_stages = functools.partial(_dump_stages, args.dump_stages)
    table = pipeline.extract_table(samples, extractor_id, flags, strict=args.strict, on_stages=on_stages)
    dataset_io.save_features(table, args.out)
    print(f"extracted {len(table.rows)} x {table.dim} features to {args.out}")
    return 0


def cmd_train(args) -> int:
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


def _feature_names(pairs):
    """(extractor_id, flags) pairs as the feature CSV headers name them: "chain200, moment63 log_moments=1"."""
    return ", ".join(e + "".join(f" {f}=1" for f, on in sorted(flags.items()) if on) for e, flags in pairs)


def _evaluate(model, tables):
    """model's EvalReport on tables, one per member in member order; another extractor or option is a FormatError."""
    wanted = _feature_names(model.extractors)
    given = _feature_names((t.extractor_id, t.flags) for t in tables)
    if given != wanted:
        raise FormatError(f"model reads {wanted} features (--features, then --features2), given {given}")
    dataset_io.check_same_samples(tables)
    rankings = [[lab for lab, _ in r] for r in _ranked(model, [[v for _, _, v in t.rows] for t in tables])]
    truth = [lab for _, lab, _ in tables[0].rows]
    return evaluation.evaluate_rankings(rankings, truth, model.labels)


def cmd_eval(args) -> int:
    model = ensemble.load_any_model(args.model)
    report = _evaluate(model, _load_tables(args))
    text = evaluation.format_report(report)
    print(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    if args.confusion_csv:
        with open(args.confusion_csv, "w") as fh:
            fh.write(evaluation.confusion_csv(report))
    return 0


def _tops(accuracies):
    """"top1=... top3=... top5=..." of a {k: accuracy} dict, each float as its repr."""
    return " ".join(f"top{k}={accuracies[k]!r}" for k in evaluation.TOP_KS)


def cmd_crossval(args) -> int:
    extractors = _extractors(tuple(EXTRACTORS) if args.extractor == "ensemble" else (args.extractor,), args)
    tables = pipeline.extract_tables(dataset_io.load_corpus(args.corpus), extractors)
    labels = [lab for _, lab, _ in tables[0].rows]
    splits = evaluation.kfold_splits(labels, evaluation.SplitPlan(mode="kfold", folds=args.folds, seed=args.seed))
    table_sets = [[t.subset(train_idx) for t in tables] for train_idx, _ in splits]
    trained = pipeline.train_models(table_sets, sorted(set(labels)), **_train_kwargs(args))
    report = evaluation.CrossValReport([
        _evaluate(model, [t.subset(test_idx) for t in tables]) for (model, _), (_, test_idx) in zip(trained, splits)
    ])
    text = "\n".join([
        f"crossval extractor={args.extractor} folds={args.folds} seed={args.seed}",
        *(f"fold {f}: n={rep.n_samples} {_tops(rep.top_k_accuracy)}" for f, rep in enumerate(report.fold_reports)),
        f"mean: {_tops(report.mean_top_k)}",
        f"stddev: {_tops(report.std_top_k)}",
    ])
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def cmd_predict(args) -> int:
    """Rank each image; --dir reads and extracts pipeline.CHUNK_SIZE images at a time.

    A malformed image, or one without foreground, is skipped with a warning
    naming it under --dir, and is an error naming it (exit 2) under --image.
    A --dir that leaves no image to rank is a CorpusError.
    """
    if args.k < 1:
        raise ConfigError("-k must be >= 1")
    model = ensemble.load_any_model(args.model)
    if bool(args.image) == bool(args.dir):
        raise CorpusError("predict needs exactly one of --image or --dir")
    paths = (
        [args.image]
        if args.image
        else sorted(
            os.path.join(args.dir, n)
            for n in os.listdir(args.dir)
            if n.endswith(".pgm")
        )
    )
    strict = bool(args.image)
    samples = dataset_io.read_samples(((path, "", path) for path in paths), strict)
    ranked_any = False
    for kept, matrices in pipeline.iter_features(samples, model.extractors, strict):
        ranked_any = True
        for sample, ranked in zip(kept, _ranked(model, matrices)):
            listing = "  ".join(f"{lab}:{score:.4f}" for lab, score in ranked[: args.k])
            print(f"{sample.id}  {listing}")
    if not ranked_any:
        raise CorpusError("no usable image: every image was skipped")
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
    except (ConfigError, CorpusError, IoError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GlyphforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
