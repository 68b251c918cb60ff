"""Command-line entry point: extract / train / eval / crossval / predict / synth.

Exit codes: 0 success, 1 domain error (training/evaluation), 2 usage,
out-of-range setting, malformed file or IO error. GLYPHFORGE_SEED sets the
default --seed for every subcommand.
"""

import argparse
import os
import sys

from . import dataset_io, ensemble, evaluation, pipeline
from .errors import ConfigError, CorpusError, FormatError, GlyphforgeError, IoError


def _default_seed() -> int:
    return int(os.environ.get("GLYPHFORGE_SEED", "0"))


def _add_seed(parser):
    parser.add_argument(
        "--seed", type=int, default=_default_seed(), help="RNG seed (default: $GLYPHFORGE_SEED or 0)"
    )


# training option -> (the pipeline.train_model keyword it sets, type, help): an MlpConfig
# field or calibration_fraction; an option not given keeps that keyword's default
_TRAIN_OPTIONS = {
    "--hidden": ("hidden_size", int, "hidden layer size (default 50 chain / 45 moment)"),
    "--lr": ("learning_rate", float, "learning rate"),
    "--momentum": ("momentum", float, "momentum term"),
    "--epochs": ("max_epochs", int, "max training epochs"),
    "--target-mse": ("target_mse", float, "early-stop epoch MSE"),
    "--calibration-fraction": ("calibration_fraction", float, "held-out share for fusion weights"),
}


def _add_train_flags(parser):
    for option, (dest, type_, help_) in _TRAIN_OPTIONS.items():
        parser.add_argument(option, dest=dest, type=type_, help=help_)


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
    p.add_argument("--extractor", choices=("chain200", "moment63"), required=True)
    p.add_argument("--out", required=True, help="feature CSV path")
    p.add_argument("--normalize", action="store_true", help="normalize chain histograms by total move count")
    p.add_argument("--log-moments", action="store_true", help="signed-log scale moment features")
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
    p.add_argument(
        "--extractor",
        choices=("chain200", "moment63", "ensemble"),
        default="ensemble",
    )
    p.add_argument("--folds", type=int, default=3)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--log-moments", action="store_true")
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
    """(extractor_id, flags) pairs; an extractor's flag is on when the option of that name is."""
    pairs = []
    for extractor_id in extractor_ids:
        flag = pipeline.EXTRACTOR_FLAG[extractor_id]
        pairs.append((extractor_id, {flag: True} if getattr(args, flag) else {}))
    return pairs


def _load_tables(args):
    """The --features table, then the --features2 table when given."""
    return [dataset_io.load_features(p) for p in (args.features, args.features2) if p]


def _train_kwargs(args):
    """pipeline.train_model's keyword arguments: the seed and the training options given."""
    dests = [dest for dest, _, _ in _TRAIN_OPTIONS.values() if getattr(args, dest) is not None]
    return dict({dest: getattr(args, dest) for dest in dests}, seed=args.seed)


def _rankings(model, tables, idxs):
    """Ranked labels for rows idxs; tables follow model.extractors."""
    return [[lab for lab, _ in model.rank([t.rows[i][2] for t in tables])] for i in idxs]


def cmd_synth(args) -> int:
    samples = dataset_io.synth_corpus(args.classes, args.per_class, seed=args.seed)
    dataset_io.save_corpus(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_extract(args) -> int:
    samples = dataset_io.load_corpus(args.corpus, strict=args.strict)
    if args.dump_stages:
        os.makedirs(args.dump_stages, exist_ok=True)
        for s in samples:
            stages = pipeline.preprocess_stages(s.image, pipeline.EXTRACTOR_FLAG)
            stem = s.id.replace("/", "_").removesuffix(".pgm")
            for name, img in stages.items():
                dataset_io.write_binary_pgm(
                    os.path.join(args.dump_stages, f"{stem}.{name}.pgm"), img
                )
    table = pipeline.extract_table(samples, *_extractors([args.extractor], args)[0])
    dataset_io.save_features(table, args.out)
    print(f"extracted {len(table.rows)} x {table.dim} features to {args.out}")
    return 0


def cmd_train(args) -> int:
    if args.ensemble and not args.features2:
        raise CorpusError("--ensemble needs --features2")
    tables = _load_tables(args)
    labels = sorted({lab for _, lab, _ in tables[0].rows})
    model, reports = pipeline.train_model(tables, labels, **_train_kwargs(args))
    model.save(args.out)
    for k, (table, report) in enumerate(zip(tables, reports), start=1):
        print(f"member {k} ({table.extractor_id}): {report.epochs_run} epochs, final MSE {report.final_mse:.6f}")
    for line in model.fusion_summary():
        print(line)
    print(f"wrote {args.out}")
    return 0


def _eval_tables(model, tables):
    extractor_ids = [e for e, _ in model.extractors]
    if len(tables) != len(extractor_ids):
        raise CorpusError(f"model needs {len(extractor_ids)} feature tables (--features, --features2)")
    for table, extractor_id in zip(tables, extractor_ids):
        if table.extractor_id != extractor_id:
            raise FormatError(f"model wants {extractor_id!r} features, table has {table.extractor_id!r}")
    dataset_io.check_same_samples(tables)
    rankings = _rankings(model, tables, range(len(tables[0].rows)))
    truth = [lab for _, lab, _ in tables[0].rows]
    return evaluation.evaluate_rankings(rankings, truth, model.labels)


def cmd_eval(args) -> int:
    model = ensemble.load_any_model(args.model)
    report = _eval_tables(model, _load_tables(args))
    text = evaluation.format_report(report)
    print(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    if args.confusion_csv:
        with open(args.confusion_csv, "w") as fh:
            fh.write(evaluation.confusion_csv(report))
    return 0


def cmd_crossval(args) -> int:
    samples = dataset_io.load_corpus(args.corpus)
    labels = [s.label for s in samples]
    class_table = sorted(set(labels))
    extractor_ids = ("chain200", "moment63") if args.extractor == "ensemble" else (args.extractor,)
    tables = pipeline.extract_tables(samples, _extractors(extractor_ids, args))
    plan = evaluation.SplitPlan(mode="kfold", folds=args.folds, seed=args.seed)

    def fold_fn(train_idx, test_idx):
        train = [t.subset(train_idx) for t in tables]
        model, _ = pipeline.train_model(train, class_table, **_train_kwargs(args))
        return _rankings(model, tables, test_idx)

    report = evaluation.cross_validate(labels, plan, fold_fn)
    lines = [f"crossval extractor={args.extractor} folds={args.folds} seed={args.seed}"]
    for f, rep in enumerate(report.fold_reports):
        accs = " ".join(
            f"top{k}={rep.top_k_accuracy[k]!r}" for k in evaluation.TOP_KS
        )
        lines.append(f"fold {f}: n={rep.n_samples} {accs}")
    mean = " ".join(f"top{k}={report.mean_top_k[k]!r}" for k in evaluation.TOP_KS)
    std = " ".join(f"top{k}={report.std_top_k[k]!r}" for k in evaluation.TOP_KS)
    lines.append(f"mean: {mean}")
    lines.append(f"stddev: {std}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def cmd_predict(args) -> int:
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
    for path in paths:
        image = dataset_io.read_pgm(path)
        ranked = model.rank(pipeline.extract_features(image, model.extractors))[: args.k]
        listing = "  ".join(f"{lab}:{score:.4f}" for lab, score in ranked)
        print(f"{path}  {listing}")
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
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, CorpusError, IoError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GlyphforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
