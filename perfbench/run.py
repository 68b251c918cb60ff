"""Paper-scale benchmark for glyphforge.

    python3 perfbench/run.py --workload paper --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Workloads (see BENCHMARK.json for why each exists):
  paper     train --ensemble, eval of the ensemble and both members, and
            predict --dir over the 525 test images of a 65/35 split
  ingest    extract --extractor chain200, then moment63, over 1500 PGMs
  crossval  crossval --extractor ensemble --folds 3 --log-moments

Each workload is set up several times (synthetic 20 x 75 corpus from
--seed; for paper also both feature tables, the split and the predict
directory), then its timed pass runs at least twice and until --seconds have
passed. Every step drives glyphforge.cli.main(argv) in process, single
client, closed loop. Each set-up and the timed phase run in a forked child
process of their own, so peak_rss_mb is that of the timed phase alone.
`--workload all` runs each workload in its own process.

Times are host-normalised (perfbench/reference.py): a reference kernel timed
every 25 ms scales each interval to a nominal host speed, since the shared
hosts this runs on slow the same work by up to 2x for minutes at a time.
Raw wall times are printed to stderr beside them, and the median raw wall
time of a pass is the per-layer metric host.run_wall_s.

With --trace 0 the result carries the end-to-end metrics. With --trace 1 the
same untraced passes run, followed by one pass with wrappers installed on the
package's modules (perfbench/tracing.py); the result then carries the
per-layer metrics, the untraced per-command figures and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Human-readable detail goes to stderr.
"""

import argparse
import ctypes
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("paper", "ingest", "crossval")
MIN_PASSES = 2  # a single pass left the crossval spread at 0.09 on a loaded host


def import_program():
    src = ROOT / "src"
    if not (src / "glyphforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no glyphforge sources under {src}")
    sys.path.insert(0, str(src))
    import glyphforge

    if Path(glyphforge.__file__).resolve().parent != (src / "glyphforge").resolve():
        sys.exit(f"perfbench: imported glyphforge from {glyphforge.__file__}, not {src}")


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                threads = getattr(handle, fn)()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
    }


@contextmanager
def counting_warnings():
    """Count every warning by kind; like catch_warnings(record=True), without the list."""
    counts = {"corpus_skipped": 0, "uniform_image": 0, "runtime": 0, "other": 0}

    def show(message, category, *_args, **_kwargs):
        text = str(message)
        if "skipping malformed image" in text:
            counts["corpus_skipped"] += 1
        elif "uniform-intensity image" in text:
            counts["uniform_image"] += 1
        elif issubclass(category, RuntimeWarning):
            counts["runtime"] += 1
        else:
            counts["other"] += 1

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        yield counts


def pct(values, q):
    """q-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def in_child(fn, *args):
    """fn(*args) in a forked child process; returns its result.

    The child inherits the imported program and sends back a pickled result
    through a pipe; this process waits for it to end.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 0
        try:
            payload = pickle.dumps(fn(*args))
        except BaseException:
            traceback.print_exc()
            payload, code = b"", 1
        with os.fdopen(w, "wb") as f:
            f.write(payload)
        sys.stderr.flush()
        os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        payload = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"{fn.__name__} failed in its child process")
    return pickle.loads(payload)


def setup_once(name, seed, d):
    """One set-up of the workload in d; runs in a child process."""
    from reference import HostSampler
    from workloads import WORKLOADS, Ops

    with counting_warnings() as warned, HostSampler() as host:
        ops = Ops(host.nominal)
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        digest = WORKLOADS[name](seed).setup(ops, d)
        t1 = time.perf_counter()
    return {"setup_s": host.nominal(t0, t1), "wall_s": t1 - t0, "digest": digest,
            "attempted": ops.attempted, "problems": ops.problems, "warnings": dict(warned)}


def timed_phase(name, seed, seconds, trace, setup_dir, work):
    """The untraced passes, then with trace the traced pass; runs in a child process."""
    from reference import HostSampler
    from tracing import Tracer
    from workloads import WORKLOADS, Ops

    workload = WORKLOADS[name](seed)
    with counting_warnings() as warned, HostSampler() as host:
        ops = Ops(host.nominal)

        def timed(fn, *args):
            """fn(*args) -> (wall s, host-normalised s, result)."""
            t0 = time.perf_counter()
            result = fn(*args)
            t1 = time.perf_counter()
            return t1 - t0, host.nominal(t0, t1), result

        passes, start = [], time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            out = work / f"pass{len(passes)}"
            out.mkdir()
            wall, norm, m = timed(workload.run, ops, setup_dir, out)
            m.update(wall_s=wall, run_s=norm)
            passes.append(m)
        ops.check("every pass gives byte-identical outputs",
                  all(p["golden"] == passes[0]["golden"] for p in passes))
        untraced_warnings = dict(warned)
        try:
            workload.verify(ops, setup_dir, work / "pass0", passes[0])
        except Exception as exc:
            ops.check(f"checks on the first pass's outputs ran ({exc!r})", False)
        # the program's own worker processes, if any, count too
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

        if trace:
            tracer = Tracer()
            out = work / "traced"
            out.mkdir()
            before = dict(warned)
            tracer.install()
            ops.tracer = tracer
            try:
                wall, norm, traced = timed(workload.run, ops, setup_dir, out)
            finally:
                ops.tracer = None
                tracer.uninstall()
            traced["run_s"] = norm
            tracer.scale = norm / wall
            traced["warnings"] = {k: warned[k] - before[k] for k in warned}
            ops.check("the traced pass gives the same outputs",
                      traced["golden"] == passes[0]["golden"])

    run_s = statistics.median(p["run_s"] for p in passes)
    detail = command_figures(passes)
    detail["host.run_wall_s"] = (statistics.median(p["wall_s"] for p in passes), "s")
    detail["host.slowdown"] = (host.slowdown(), "ratio")
    gaps = sum(len(p.get("predict_gaps_ms", [])) for p in passes)
    if gaps:
        log(f"[{name}] predict latency samples: {gaps}")
    if trace:
        metrics = per_layer(name, tracer, traced, detail, run_s)
    else:
        metrics = {"run_s": (run_s, "s"), "peak_rss_mb": (peak_kb / 1024, "MB")}
    return {
        "metrics": metrics,
        "detail": detail,
        "passes": [(p["wall_s"], p["run_s"]) for p in passes],
        "golden": passes[0]["golden"],
        "attempted": ops.attempted,
        "problems": ops.problems,
        "warnings": untraced_warnings,
    }


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS

    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = [in_child(setup_once, name, seed, work / f"setup{i}")
                  for i in range(WORKLOADS[name].setups)]
        timed = in_child(timed_phase, name, seed, seconds, trace, work / "setup0", work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = timed["attempted"] + sum(x["attempted"] for x in setups) + 1
    problems = [p for x in setups for p in x["problems"]] + timed["problems"]
    if any(x["digest"] != setups[0]["digest"] for x in setups):
        problems.append("check failed: set-ups are byte-identical")
    warned = {k: v + sum(x["warnings"][k] for x in setups)
              for k, v in timed["warnings"].items()}
    golden = {**setups[0]["digest"], **timed["golden"]}
    setup_s = statistics.median(x["setup_s"] for x in setups)
    report_detail(name, seed, setups, timed, golden, warned, attempted, problems)
    metrics = timed["metrics"] if trace else {"setup_s": (setup_s, "s"), **timed["metrics"]}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def command_figures(passes):
    """Untraced per-command figures, medians over the passes."""

    def med(key):
        vals = [p[key] for p in passes if key in p]
        return statistics.median(vals) if vals else 0.0

    gaps = [g for p in passes for g in p.get("predict_gaps_ms", [])]
    return {
        "cli.train.s": (med("train_s"), "s"),
        "cli.eval.s": (med("eval_s"), "s"),
        "cli.predict.ms_p50": (statistics.median(gaps) if gaps else 0.0, "ms"),
        "cli.predict.ms_p98": (pct(gaps, 98) if len(gaps) > 1 else 0.0, "ms"),
        "cli.extract.chain200.img_per_s": (med("chain200_img_per_s"), "img/s"),
        "cli.extract.moment63.img_per_s": (med("moment63_img_per_s"), "img/s"),
        "cli.crossval.s": (med("crossval_s"), "s"),
        "evaluation.top1": (med("top1"), "fraction"),
        "ensemble.fusion_margin": (med("fusion_margin"), "fraction"),
    }


def report_detail(name, seed, setups, timed, golden, warned, attempted, problems):
    log(f"[{name} seed={seed}] env {json.dumps(environment())}")
    log(f"[{name}] setups {len(setups)}: " + " ".join(f"{x['wall_s']:.3f}s" for x in setups)
        + " wall, " + " ".join(f"{x['setup_s']:.3f}s" for x in setups) + " host-normalised")
    passes = timed["passes"]
    log(f"[{name}] passes {len(passes)}: " + " ".join(f"{w:.3f}s" for w, _ in passes)
        + " wall, " + " ".join(f"{n:.3f}s" for _, n in passes) + " host-normalised")
    for key, (value, unit) in timed["detail"].items():
        if value:
            log(f"[{name}]   {key} = {value:.6g} {unit}")
    log(f"[{name}] warnings {json.dumps(warned)}")
    log(f"[{name}] outputs {json.dumps(golden)}")
    recorded = json.loads((BENCH_DIR / "golden.json").read_text())
    expected = recorded.get(name, {}) if recorded.get("seed") == seed else None
    if expected is not None:
        same = expected == golden
        log(f"[{name}] golden outputs at seed {seed}: {'match' if same else 'DIFFER'} "
            "(informational; floats may move when rankings hold)")
    for problem in problems:
        log(f"[{name}] FAILED {problem}")
    log(f"[{name}] correctness gate: {attempted - len(problems)}/{attempted} passed")


def per_layer(name, t, traced, detail, untraced_run_s):
    from workloads import FOLDS

    images = t.calls("dataset_io.read_pgm")
    member = {}
    for ext in ("chain200", "moment63"):
        rows = [r for r in t.trainings if r[0] == ext]
        member.update({
            f"mlp.train.{ext}.s": (t.scale * sum(r[1] for r in rows), "s"),
            f"mlp.train.{ext}.epochs": (sum(r[2] for r in rows), "count"),
            f"mlp.train.{ext}.steps": (sum(r[3] for r in rows), "count"),
            f"mlp.train.{ext}.final_mse": (
                statistics.mean(r[4] for r in rows) if rows else 0.0, "mse"),
            f"mlp.train.{ext}.capped": (sum(r[5] for r in rows), "count"),
        })
    train_cmds = t.total("cli.train") + t.total("cli.crossval")
    weights = {k: statistics.mean(getattr(w, k) for w in t.weights) if t.weights else 0.0
               for k in ("d1", "d2", "w1", "w2")}
    if t.weights:
        log(f"[{name}] fusion weights w1={weights['w1']:.4f} w2={weights['w2']:.4f}")
    warned = traced["warnings"]
    return {
        "mlp.gradients.calls": (t.calls("mlp.gradients"), "count"),
        "mlp.gradients.us": (t.per_call("mlp.gradients", 1e6), "us"),
        **member,
        "mlp.train.share_pct": (
            100 * t.total("mlp.train") / train_cmds if train_cmds else 0.0, "%"),
        "mlp.forward.calls": (t.calls("mlp.forward"), "count"),
        "mlp.forward.us": (t.per_call("mlp.forward", 1e6), "us"),
        "mlp.save_model.ms": (t.per_call("mlp.save_model", 1e3), "ms"),
        "mlp.load_model.ms": (t.per_call("mlp.load_model", 1e3), "ms"),
        "image_prep.binarize.us": (t.per_call("image_prep.binarize", 1e6), "us"),
        "image_prep.normalize_size.us": (t.per_call("image_prep.normalize_size", 1e6), "us"),
        "image_prep.find_contour.us": (t.per_call("image_prep.find_contour", 1e6), "us"),
        "image_prep.thin.us": (t.per_call("image_prep.thin", 1e6), "us"),
        "image_prep.binarize.calls_per_image": (
            t.calls("image_prep.binarize") / images if images else 0.0, "ratio"),
        "chain_features.trace_contours.us": (
            t.per_call("chain_features.trace_contours", 1e6), "us"),
        "chain_features.chain_histogram.us": (
            t.per_call("chain_features.chain_histogram", 1e6), "us"),
        "chain_features.moves_per_image": (
            t.moves / t.calls("chain_features.trace_contours")
            if t.calls("chain_features.trace_contours") else 0.0, "count"),
        "moment_features.moment_zone_features.us": (
            t.per_call("moment_features.moment_zone_features", 1e6), "us"),
        "moment_features.hu_from_image.calls": (
            t.calls("moment_features.hu_from_image"), "count"),
        "pipeline.extract_features.self_us": (
            1e6 * t.self_time("pipeline.extract_features")
            / max(t.calls("pipeline.extract_features"), 1), "us"),
        "pipeline.extract_table.self_s": (t.self_time("pipeline.extract_table"), "s"),
        "pipeline.train_ensemble_on_tables.self_ms": (
            1e3 * t.self_time("pipeline.train_ensemble_on_tables")
            / max(t.calls("pipeline.train_ensemble_on_tables"), 1), "ms"),
        "dataset_io.read_pgm.calls": (images, "count"),
        "dataset_io.read_pgm.us": (t.per_call("dataset_io.read_pgm", 1e6), "us"),
        "dataset_io.save_features.ms": (t.per_call("dataset_io.save_features", 1e3), "ms"),
        "dataset_io.load_features.ms": (t.per_call("dataset_io.load_features", 1e3), "ms"),
        "dataset_io.load_corpus.skipped": (warned["corpus_skipped"], "count"),
        "ensemble.calibrate.ms": (t.per_call("ensemble.calibrate", 1e3), "ms"),
        "ensemble.fuse.us": (t.per_call("ensemble.fuse", 1e6), "us"),
        "ensemble.load_ensemble.ms": (t.per_call("ensemble.load_ensemble", 1e3), "ms"),
        "ensemble.d1": (weights["d1"], "fraction"),
        "ensemble.d2": (weights["d2"], "fraction"),
        "evaluation.split.ms": (t.per_call("evaluation.split", 1e3), "ms"),
        "evaluation.evaluate_rankings.ms": (
            t.per_call("evaluation.evaluate_rankings", 1e3), "ms"),
        "evaluation.cross_validate.fold_s": (
            t.total("evaluation.cross_validate") / FOLDS
            if t.calls("evaluation.cross_validate") else 0.0, "s"),
        **{f"cli.{c}.self_s": (t.self_time(f"cli.{c}"), "s")
           for c in ("extract", "train", "eval", "crossval", "predict")},
        **detail,
        "warnings.uniform_image": (warned["uniform_image"], "count"),
        "warnings.runtime": (warned["runtime"], "count"),
        "trace.overhead_s": (traced["run_s"] - untraced_run_s, "s"),
        "trace.absent_targets": (len(t.absent), "count"),
    }


def run_all(args):
    """Each workload in its own process; a summary, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}, no result")
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        gate = "pass" if result["correct"] else "FAIL"
        print(f"{name}: correctness {gate} "
              f"({result['attempted'] - result['failed']}/{result['attempted']} operations)")
        for key, m in result["metrics"].items():
            print(f"  {name}.{key} = {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}.{key}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_program()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
