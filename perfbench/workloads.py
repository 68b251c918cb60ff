"""The three workloads: set-up, one timed pass, and the checks on its outputs.

Every step drives the public CLI entry ``glyphforge.cli.main(argv)`` in
process; the program only ever sees the generated corpus and the files the
earlier steps wrote. A nonzero exit, an exception or a failed check counts
as one failed operation.
"""

import hashlib
import io
import math
import re
import shutil
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout

import numpy as np

from glyphforge import cli, evaluation, mlp

CLASSES, PER_CLASS = 20, 75  # paper scale
N_IMAGES = CLASSES * PER_CLASS
EXTRACTORS = {"chain200": 200, "moment63": 63}
FOLDS = 3

# Epoch caps keep the amount of training fixed under every seed. With the
# paper's cap of 1000, the moment member reached the target MSE after 140 to
# 1000 epochs depending on the seed (9.6-58 s of training), and the
# --log-moments crossval members after 25 to 61; no timing bound survives
# that. Below both ranges each member stops at the cap, so a run measures the
# cost of a fixed number of online steps. lr, momentum, hidden sizes and the
# target MSE stay at the paper's defaults.
PAPER_EPOCHS = 100
CROSSVAL_EPOCHS = 20

# Criterion 6 of the acceptance tests (fused top-1 >= best member top-1 -
# 0.01) is stated at seed 7, the paper-scale seed, and is gated there. At
# other seeds it is a property of the paper's fusion rule on the generated
# corpus, not of the program's outputs: with the chain member at ~1.0 and the
# moment member at ~0.9, w1 is ~0.52, and the fused top-1 fell below the chain
# member's by 0.015 at seed 1 and 0.019 at seed 772472114 (0.023 under the
# paper's 1000-epoch cap). There the margin is reported, and the gate instead
# recomputes every fused score from the saved members (Paper.verify).
CRITERION_6_SEED = 7


def sha256(path):
    """Hex digest of a file, or "" if the program did not write it."""
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def csv_lines(path):
    """Header and data lines of a feature CSV."""
    lines = path.read_text().splitlines()
    return lines[0], [ln for ln in lines[1:] if ln]


class StampWriter(io.StringIO):
    """stdout replacement that notes the time each output line ends."""

    def __init__(self):
        super().__init__()
        self.stamps = []

    def write(self, s):
        now = time.perf_counter()
        self.stamps.extend([now] * s.count("\n"))
        return super().write(s)


class Ops:
    """Counts operations (CLI calls and checks) and the ones that failed."""

    def __init__(self, measure):
        self.measure = measure  # (perf_counter t0, t1) -> seconds
        self.attempted = 0
        self.problems = []
        self.tracer = None

    @property
    def failed(self):
        return len(self.problems)

    def cli(self, *argv, stdout=None):
        """Run one CLI command; returns (seconds, captured stdout)."""
        argv = [str(a) for a in argv]
        out = stdout if stdout is not None else io.StringIO()
        self.attempted += 1
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span, redirect_stdout(out):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = "exception"
        elapsed = self.measure(t0, time.perf_counter())
        if code != 0:
            self.problems.append(f"glyphforge {' '.join(argv)}: exit {code}")
        return elapsed, out.getvalue()

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.problems.append(f"check failed: {what}")
        return ok


def parse_eval(text):
    """top-k accuracies printed by `glyphforge eval`, as the printed strings."""
    return dict(re.findall(r"^top-(\d) accuracy: ([0-9.]+)$", text, re.M))


class Workload:
    setups = 5  # set-ups per run; the median is setup_s

    def __init__(self, seed):
        self.seed = seed

    def verify(self, ops, s, o, m):
        """Checks on one pass's outputs too slow to run inside the timed pass."""

    def synth(self, ops, corpus):
        ops.cli("synth", "--classes", CLASSES, "--per-class", PER_CLASS,
                "--seed", self.seed, "--out", corpus)

    def setup(self, ops, d):
        """Write the synthetic corpus (P5 PGMs); returns its digest."""
        self.synth(ops, d / "corpus")
        return {"corpus": hashlib.sha256(b"".join(
            sha256(p).encode() for p in sorted((d / "corpus").rglob("*.pgm"))
        )).hexdigest()}


class Paper(Workload):
    """Train the ensemble, evaluate it and its members, predict the test images."""

    setups = 3  # each takes ~6 s: synth, both extracts, split

    def setup(self, ops, d):
        corpus = d / "corpus"
        self.synth(ops, corpus)
        lines = {}
        for ext in EXTRACTORS:
            ops.cli("extract", "--corpus", corpus, "--extractor", ext, "--out", d / f"{ext}.csv")
            lines[ext] = csv_lines(d / f"{ext}.csv")
        ids = [[ln.split(",", 1)[0] for ln in lines[ext][1]] for ext in EXTRACTORS]
        ops.check("both feature tables list the same 1500 samples",
                  ids[0] == ids[1] and len(ids[0]) == N_IMAGES)
        labels = [ln.split(",", 2)[1] for ln in lines["chain200"][1]]
        train, test = evaluation.split(
            labels, evaluation.SplitPlan(mode="fraction", train_fraction=0.65, seed=self.seed)
        )
        for ext, (header, rows) in lines.items():
            for part, idx in (("train", train), ("test", test)):
                body = "".join(rows[i] + "\n" for i in idx)
                (d / f"{ext}.{part}.csv").write_text(header + "\n" + body)
        predict = d / "predict"
        predict.mkdir()
        for i in test:
            sample_id = ids[0][i]  # "<class>/<name>.pgm"
            shutil.copyfile(corpus / sample_id, predict / sample_id.replace("/", "_"))
        return {f"{ext}.csv": sha256(d / f"{ext}.csv") for ext in EXTRACTORS}

    def run(self, ops, s, o):
        m = {}
        m["train_s"], _ = ops.cli(
            "train", "--features", s / "chain200.train.csv",
            "--features2", s / "moment63.train.csv", "--ensemble",
            "--out", o / "ens.glyph", "--seed", self.seed, "--epochs", PAPER_EPOCHS,
        )
        t_fused, fused = ops.cli(
            "eval", "--model", o / "ens.glyph", "--features", s / "chain200.test.csv",
            "--features2", s / "moment63.test.csv",
        )
        t_chain, chain = ops.cli("eval", "--model", o / "ens.chain.mlp",
                                 "--features", s / "chain200.test.csv")
        t_moment, moment = ops.cli("eval", "--model", o / "ens.moment.mlp",
                                   "--features", s / "moment63.test.csv")
        m["eval_s"] = t_fused + t_chain + t_moment
        fused, chain, moment = parse_eval(fused), parse_eval(chain), parse_eval(moment)

        writer = StampWriter()
        _, out = ops.cli("predict", "--model", o / "ens.glyph",
                         "--dir", s / "predict", "-k", 5, stdout=writer)
        # the first line also carries parsing and the model load
        m["predict_gaps_ms"] = [1e3 * ops.measure(a, b)
                                for a, b in zip(writer.stamps, writer.stamps[1:])]
        n_test = len(csv_lines(s / "chain200.test.csv")[1])
        prefix = str(s / "predict") + "/"
        out = out.replace(prefix, "")
        hits = n = 0
        for line in out.splitlines():
            name, _, ranked = line.partition("  ")
            n += 1
            hits += ranked.split(":", 1)[0] == name.split("_", 1)[0]

        acc = {k: float(v.get("1", 0)) for k, v in
               (("fused", fused), ("chain", chain), ("moment", moment))}
        ops.check("chain member top-1 >= 0.90", acc["chain"] >= 0.90)
        ops.check("moment member top-1 >= 0.60", acc["moment"] >= 0.60)
        best = max(acc["chain"], acc["moment"])
        if self.seed == CRITERION_6_SEED:
            ops.check("fused top-1 >= best member top-1 - 0.01", acc["fused"] >= best - 0.01)
        ops.check("fused top-5 >= fused top-1",
                  float(fused.get("5", -1)) >= acc["fused"])
        ops.check("predict covers every test image", n == n_test)
        ops.check("predict top-1 equals eval fused top-1",
                  n > 0 and f"{hits / n:.4f}" == fused.get("1"))
        m["top1"] = acc["fused"]
        m["fusion_margin"] = acc["fused"] - best
        m["predict_out"] = out
        m["golden"] = {
            "ens.chain.mlp": sha256(o / "ens.chain.mlp"),
            "ens.moment.mlp": sha256(o / "ens.moment.mlp"),
            "ens.glyph": sha256(o / "ens.glyph"),
            "predict.stdout": sha256_text(out),
        }
        return m

    def verify(self, ops, s, o, m):
        """Recompute each predicted top-5 as w1 * o1 + w2 * o2 of the saved members."""
        glyph = dict(ln.split(" ", 1) for ln in (o / "ens.glyph").read_text().splitlines()[1:])
        d1, d2, w1, w2 = (float(glyph[k]) for k in ("d1", "d2", "w1", "w2"))
        ops.check("fusion weights are d_k / (d1 + d2)",
                  math.isclose(w1, d1 / (d1 + d2)) and math.isclose(w2, d2 / (d1 + d2)))
        members = [mlp.load_model(o / glyph[k]) for k in ("model1", "model2")]
        rows = {}
        for ext in EXTRACTORS:
            for line in csv_lines(s / f"{ext}.test.csv")[1]:
                sample_id, _, values = line.split(",", 2)
                rows.setdefault(sample_id.replace("/", "_"), []).append(
                    np.array(values.split(","), dtype=np.float64))
        listed = {}
        for line in m["predict_out"].splitlines():
            name, _, ranked = line.partition("  ")
            listed[name] = [(lab, float(sc)) for lab, _, sc in
                            (item.rpartition(":") for item in ranked.split("  "))]
        agree = len(listed) == len(rows) > 0
        for name, (x1, x2) in rows.items():
            scores = w1 * confidences(members[0], x1) + w2 * confidences(members[1], x2)
            top = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:5]
            want = [(members[0].labels[i], scores[i]) for i in top]
            got = listed.get(name, [])
            agree = agree and len(got) == len(want) and all(
                lab == wl and abs(sc - ws) <= 6e-5 for (lab, sc), (wl, ws) in zip(got, want))
        ops.check("predict top-5 labels and scores are the weighted sum of the members", agree)


def confidences(model, x):
    """An MLP's per-class outputs, computed here rather than by mlp.forward."""
    span = model.feature_max - model.feature_min
    x = np.where(span > 0, (x - model.feature_min) / np.where(span > 0, span, 1.0), 0.0)
    with np.errstate(over="ignore"):  # saturated moment units: exp(-t) overflows to inf
        hidden = 1.0 / (1.0 + np.exp(-(model.w1 @ x + model.b1)))
        return 1.0 / (1.0 + np.exp(-(model.w2 @ hidden + model.b2)))


class Ingest(Workload):
    """Extract both feature tables from a P5 PGM corpus."""

    def run(self, ops, s, o):
        m = {"golden": {}}
        for ext, dim in EXTRACTORS.items():
            path = o / f"{ext}.csv"
            t, _ = ops.cli("extract", "--corpus", s / "corpus", "--extractor", ext, "--out", path)
            m[f"{ext}_img_per_s"] = N_IMAGES / t
            header, rows = csv_lines(path) if path.exists() else ("", [])
            ops.check(f"{ext}: {N_IMAGES} rows", len(rows) == N_IMAGES)
            ops.check(f"{ext}: header dim={dim}", header == f"# extractor={ext} dim={dim}")
            ops.check(f"{ext}: {dim} finite values per row", all(
                len(v) == dim and all(math.isfinite(float(x)) for x in v)
                for v in (row.split(",")[2:] for row in rows)
            ))
            m["golden"][f"{ext}.csv"] = sha256(path)
        return m


class Crossval(Workload):
    """3-fold ensemble cross-validation with signed-log moments."""

    def run(self, ops, s, o):
        m = {}
        report = o / "crossval.txt"
        m["crossval_s"], _ = ops.cli(
            "crossval", "--corpus", s / "corpus", "--extractor", "ensemble",
            "--folds", FOLDS, "--log-moments", "--seed", self.seed,
            "--epochs", CROSSVAL_EPOCHS, "--out", report,
        )
        text = report.read_text() if report.exists() else ""
        folds = re.findall(r"^fold \d+: n=(\d+) ", text, re.M)
        ops.check("3 folds of 500", folds == [str(N_IMAGES // FOLDS)] * FOLDS)
        mean = re.search(r"^mean: top1=([0-9.e-]+) ", text, re.M)
        m["top1"] = float(mean.group(1)) if mean else 0.0
        ops.check("crossval reports a mean top-1", mean is not None)
        m["golden"] = {"crossval.txt": sha256_text(text)}
        return m


WORKLOADS = {"paper": Paper, "ingest": Ingest, "crossval": Crossval}
