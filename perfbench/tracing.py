"""Per-layer tracing from outside the package.

Wrappers are installed with setattr on the glyphforge modules. Callers look
these functions up through module globals (``mlp.train`` calls
``gradients``; ``pipeline`` calls ``image_prep.thin``), so the wrappers see
every call without an edit to the program. Each target keeps a call count,
a total and the time its traced children took, which gives self time; per
step functions such as ``mlp.gradients`` are aggregated, never stored as one
span per call.
"""

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

TARGETS = {
    "mlp": ("gradients", "train", "forward", "save_model", "load_model"),
    "image_prep": ("binarize", "normalize_size", "find_contour", "thin"),
    "chain_features": ("trace_contours", "chain_histogram"),
    "moment_features": ("moment_zone_features", "hu_from_image"),
    "pipeline": ("extract_features", "extract_table", "train_ensemble_on_tables"),
    "dataset_io": ("read_pgm", "load_corpus", "save_features", "load_features"),
    "ensemble": ("calibrate", "fuse", "load_ensemble"),
    "evaluation": ("split", "evaluate_rankings", "cross_validate"),
}

MEMBERS = {200: "chain200", 63: "moment63"}  # MLP input size -> feature table


class Stat:
    __slots__ = ("calls", "total", "child")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


class Tracer:
    """Aggregated spans for the wrapped functions and for the bench's CLI calls."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.absent = []
        self.trainings = []  # (member, seconds, epochs, steps, final_mse, capped)
        self.weights = []  # FusionWeights returned by ensemble.calibrate
        self.moves = 0
        self.scale = 1.0  # host-normalised over wall time of the traced pass
        self._stack = []
        self._installed = []

    def install(self):
        for mod_name, names in TARGETS.items():
            module = importlib.import_module(f"glyphforge.{mod_name}")
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.absent.append(f"{mod_name}.{name}")
                    continue
                setattr(module, name, self._wrap(f"{mod_name}.{name}", fn))
                self._installed.append((module, name, fn))

    def uninstall(self):
        for module, name, fn in reversed(self._installed):
            setattr(module, name, fn)
        self._installed.clear()

    def _enter(self):
        frame = [0.0]  # seconds spent in traced children
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, stat, frame, t0):
        dt = time.perf_counter() - t0
        self._stack.pop()
        stat.calls += 1
        stat.total += dt
        stat.child += frame[0]
        if self._stack:
            self._stack[-1][0] += dt
        return dt

    @contextmanager
    def span(self, name):
        frame, t0 = self._enter()
        try:
            yield
        finally:
            self._exit(self.stats[name], frame, t0)

    def _wrap(self, name, fn):
        stat = self.stats[name]
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self._exit(stat, frame, t0)
            if observe is not None:
                observe(args, result, dt)
            return result

        return wrapper

    def _observe_mlp_train(self, args, report, dt):
        model, dataset = args[0], args[1]
        cfg = model.config
        capped = report.epochs_run >= cfg.max_epochs and report.final_mse > cfg.target_mse
        self.trainings.append((
            MEMBERS.get(cfg.input_size, f"in{cfg.input_size}"),
            dt,
            report.epochs_run,
            report.epochs_run * len(dataset),
            report.final_mse,
            capped,
        ))

    def _observe_chain_features_trace_contours(self, args, chains, dt):
        self.moves += sum(len(c.moves) for c in chains)

    def _observe_ensemble_calibrate(self, args, weights, dt):
        self.weights.append(weights)

    # --- summaries ----------------------------------------------------------

    def calls(self, name):
        return self.stats[name].calls if name in self.stats else 0

    def total(self, name):
        """Host-normalised seconds spent in name."""
        return self.scale * self.stats[name].total if name in self.stats else 0.0

    def per_call(self, name, unit):
        stat = self.stats.get(name)
        return unit * self.total(name) / stat.calls if stat and stat.calls else 0.0

    def self_time(self, name):
        stat = self.stats.get(name)
        return self.scale * (stat.total - stat.child) if stat else 0.0
