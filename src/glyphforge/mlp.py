"""Single-hidden-layer perceptron trained by online backpropagation with momentum.

Weights are float64 numpy arrays: w1 is hidden x input, w2 is output x hidden.
Inputs are min-max scaled to [0, 1] per feature with statistics frozen from
the training set and stored in the model file.
"""

import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .dataset_io import field_lines, floats, from_fields, header_dict, read_lines
from .errors import ConfigError, FormatError, ShapeError, TrainError
from .extractors import EXTRACTORS, read_option


def sigmoid(t: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-t))


@dataclass
class MlpConfig:
    """The training configuration: its defaults are the paper's, and the .mlp header lists its fields."""

    input_size: int
    hidden_size: int
    output_size: int
    learning_rate: float = 0.8
    momentum: float = 0.7
    max_epochs: int = 1000
    target_mse: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if min(self.input_size, self.hidden_size, self.output_size) < 1:
            raise ConfigError("all layer sizes must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and > 0")
        if not 0 <= self.target_mse < math.inf:  # a nan target could never be reached
            raise ConfigError("target_mse must be finite and >= 0")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must be in [0, 1)")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")


@dataclass
class MlpModel:
    config: MlpConfig
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    labels: list
    extractor_id: str = ""
    feature_min: np.ndarray = None
    feature_max: np.ndarray = None
    option: bool = False  # its extractor's option, on or off

    @property
    def extractors(self):
        """The (extractor_id, option) pairs whose matrices scores() takes."""
        return [(self.extractor_id, self.option)]

    def scores(self, matrices):
        """(B, classes) confidences of B samples: one (B, dim) matrix per extractor."""
        (x,) = matrices
        return forward(self, x)

    def fusion_summary(self):
        """No fusion lines: a single MLP has no calibration or weights."""
        return []

    def save(self, path) -> None:
        save_model(self, path)


@dataclass
class TrainingReport:
    epochs_run: int
    mse_trace: list
    stop_reason: str  # "target": an epoch MSE reached target_mse; "capped": max_epochs ran out first

    @property
    def final_mse(self) -> float:
        return self.mse_trace[-1]


def init_model(config: MlpConfig, labels=None, extractor_id: str = "") -> MlpModel:
    """Uniform [-r, r] init with r = sqrt(6 / (fan_in + fan_out)); zero biases."""
    if labels is None:
        labels = [str(i) for i in range(config.output_size)]
    if len(labels) != config.output_size:
        raise ShapeError("label table length must equal output_size")
    rng = np.random.default_rng(config.seed)
    r1 = np.sqrt(6.0 / (config.input_size + config.hidden_size))
    r2 = np.sqrt(6.0 / (config.hidden_size + config.output_size))
    w1 = rng.uniform(-r1, r1, size=(config.hidden_size, config.input_size))
    w2 = rng.uniform(-r2, r2, size=(config.output_size, config.hidden_size))
    return MlpModel(
        config=config,
        w1=w1,
        b1=np.zeros(config.hidden_size),
        w2=w2,
        b2=np.zeros(config.output_size),
        labels=list(labels),
        extractor_id=extractor_id,
    )


def scale_input(model: MlpModel, x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Min-max scale one feature vector or a matrix of row vectors, into out when given.

    Features whose training span is 0 scale to 0.0.
    """
    if model.feature_min is None:
        return np.asarray(x, dtype=np.float64)
    span = model.feature_max - model.feature_min
    scaled = np.subtract(x, model.feature_min, dtype=np.float64, out=out)
    scaled /= np.where(span > 0, span, 1.0)
    scaled[..., ~(span > 0)] = 0.0
    return scaled


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Per-class confidences in (0, 1): sigmoid hidden and output layers.

    x is one feature vector, giving (output_size,), or a (B, input_size)
    matrix, giving (B, output_size). Each row goes through a stacked matmul,
    which runs the BLAS call of the one-vector product for every row, so a
    row's confidences equal those of forward on that row alone bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    n = model.config.input_size
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ShapeError(f"input shape {x.shape} is neither ({n},) nor (rows, {n})")
    x = scale_input(model, x)
    with np.errstate(over="ignore"):  # exp(-t) of a saturated unit overflows to inf: sigmoid 0.0
        hidden = sigmoid(np.matmul(model.w1, x[..., None]) + model.b1[:, None])
        return sigmoid(np.matmul(model.w2, hidden) + model.b2[:, None])[..., 0]


def _layers(buf: np.ndarray, cfg: MlpConfig):
    """Views (w1, b1, w2, b2) of a flat buffer of S lanes laid out layer by layer.

    buf holds [w1 of every lane | b1 of every lane | w2 ... | b2 ...], so
    each view is one contiguous block of shape (S, h, n), (S, h), (S, o, h)
    or (S, o); writes to them write to buf.
    """
    h, n, o = cfg.hidden_size, cfg.input_size, cfg.output_size
    shapes = ((h, n), (h,), (o, h), (o,))
    s = buf.size // (h * n + h + o * h + o)
    ends = np.cumsum([s * math.prod(shape) for shape in shapes])
    return [buf[a:b].reshape(s, *shape) for a, b, shape in zip([0, *ends[:-1]], ends, shapes)]


def _flat(layers) -> np.ndarray:
    """The flat buffer (see _layers) of lanes whose w1, b1, w2 and b2 are layers, each one array per lane."""
    return np.concatenate([lane.ravel() for layer in layers for lane in layer])


def _sigmoid_of_negated(t: np.ndarray) -> None:
    """t = sigmoid(-t) by the float operations of sigmoid() after its negation: exp, + 1, 1 /."""
    np.exp(t, out=t)
    t += 1.0
    np.divide(1.0, t, out=t)


def _backprop_step(weights: np.ndarray, grad: np.ndarray, cfg: MlpConfig):
    """step(x_col, x_row, target, err): one online backprop pass of every lane of negated weights.

    weights is a flat buffer (see _layers) of each lane's w1, b1, w2 and b2,
    all negated, so that each layer's matmul plus bias comes out negated and
    its sigmoid needs no negation. x_col (S, n, 1) and x_row (S, 1, n) view
    each lane's scaled input and target (S, o, 1) its target. step writes
    output - target into err (S, o, 1) and each lane's gradients of loss =
    0.5 * sum((target - output)^2) with respect to the true weights into
    grad, laid out as weights. Backprop through the negated w2 negates the
    hidden layer's gradient, and the factor hidden - 1 in place of
    1 - hidden negates it back. Rounding to nearest is sign-symmetric, so
    every value equals that of the true weights' pass, negated or not, bit
    for bit; only the sign of an exact zero may differ. The layers are
    stacked matmuls and the outer products broadcast multiplies, so each
    lane runs the BLAS calls and float operations of one model alone,
    whatever S is. All intermediate arrays are allocated once here.
    """
    h, o = cfg.hidden_size, cfg.output_size
    w1, b1, w2, b2 = _layers(weights, cfg)
    gw1, gb1, gw2, gb2 = _layers(grad, cfg)
    s = len(w1)
    b1, b2, gb1, gb2 = b1[..., None], b2[..., None], gb1[..., None], gb2[..., None]
    w2t = w2.mT
    hidden, h_minus_1 = np.empty((s, h, 1)), np.empty((s, h, 1))
    hidden_row = hidden.reshape(s, 1, h)
    out, one_minus_o = np.empty((s, o, 1)), np.empty((s, o, 1))

    def step(x_col, x_row, target, err):
        np.matmul(w1, x_col, out=hidden)
        np.add(hidden, b1, out=hidden)
        _sigmoid_of_negated(hidden)
        np.matmul(w2, hidden, out=out)
        np.add(out, b2, out=out)
        _sigmoid_of_negated(out)
        np.subtract(out, target, out=err)
        np.multiply(err, out, out=gb2)
        np.subtract(1.0, out, out=one_minus_o)
        np.multiply(gb2, one_minus_o, out=gb2)
        np.multiply(gb2, hidden_row, out=gw2)
        np.matmul(w2t, gb2, out=gb1)
        np.multiply(gb1, hidden, out=gb1)
        np.subtract(hidden, 1.0, out=h_minus_1)
        np.multiply(gb1, h_minus_1, out=gb1)
        np.multiply(gb1, x_row, out=gw1)

    return step


def gradients(model: MlpModel, x: np.ndarray, target: np.ndarray):
    """Backprop gradients of loss = 0.5 * sum((target - output)^2).

    Returns (gw1, gb1, gw2, gb2, loss). Gradients are w.r.t. the raw
    weights; input scaling is applied exactly as in forward(). This is one
    lane's step of train_lanes.
    """
    x = scale_input(model, x)
    target = np.asarray(target, dtype=np.float64)
    weights = np.negative(_flat([[model.w1], [model.b1], [model.w2], [model.b2]]))
    grad, err = np.empty_like(weights), np.empty((1, model.config.output_size, 1))
    _backprop_step(weights, grad, model.config)(x[None, :, None], x[None, None, :], target[None, :, None], err)
    return (*(g[0] for g in _layers(grad, model.config)), 0.5 * float(np.matmul(err.mT, err)[0, 0, 0]))


def train(model: MlpModel, dataset) -> TrainingReport:
    """Online backprop with momentum over a shuffled pass each epoch: train_lanes with one lane.

    dataset: sequence of (feature_vector, class_index). Sets the model's
    min-max scaling statistics from the dataset before the first epoch.
    Stops at max_epochs or when the epoch MSE (mean squared output error
    over all samples and output units) drops to target_mse. Afterwards the
    model's w1, b1, w2 and b2 are new arrays.
    """
    (report,) = train_lanes([model], [dataset])
    return report


# steps whose rows one np.take gathers while training lanes: gathering a whole
# epoch at once would hold a second copy of every lane's training rows
GATHER_ROWS = 64


def train_lanes(models, datasets) -> list:
    """train(model, dataset) for each pair, as lanes trained in lockstep; one TrainingReport per pair.

    Lanes whose configs differ only in seed and whose datasets have the same
    length train together; the others form groups of their own. Each lane
    keeps its own seed + 1 permutation, momentum and target-MSE stop, and
    its weights, MSE trace and stop reason equal those of train on that lane
    alone bit for bit. A lane that stops leaves its group at that epoch's end.
    Every lane's rows are checked before any group trains, so a bad lane
    leaves all models untouched.
    """
    groups = {}
    for k, (model, dataset) in enumerate(zip(models, datasets, strict=True)):
        _check_rows(model.config, dataset)
        groups.setdefault((len(dataset), *astuple(replace(model.config, seed=0))), []).append(k)
    reports = [None] * len(models)
    for lanes in groups.values():
        for k, report in zip(lanes, _train_group([models[k] for k in lanes], [datasets[k] for k in lanes])):
            reports[k] = report
    return reports


def _check_rows(cfg: MlpConfig, dataset) -> None:
    """A TrainError or ShapeError unless dataset is a nonempty sequence of (input_size vector, class index)."""
    if len(dataset) == 0:
        raise TrainError("cannot train on an empty dataset")
    for x, _ in dataset:
        if np.shape(x) != (cfg.input_size,):
            raise ShapeError(f"feature dim {np.shape(x)} != input_size {cfg.input_size}")
    if not all(0 <= int(c) < cfg.output_size for _, c in dataset):
        raise TrainError("class index outside output layer range")


def _train_group(models, datasets) -> list:
    """train_lanes for models whose configs differ only in seed, on checked datasets of one length.

    Weights and velocities are held negated (see _backprop_step), so each
    step adds lr * grad + momentum * vel.
    """
    cfg = models[0].config
    n_rows, n_lanes = len(datasets[0]), len(models)
    xs = np.empty((n_lanes, n_rows, cfg.input_size))
    targets = np.zeros((n_lanes, n_rows, cfg.output_size))
    for k, dataset in enumerate(datasets):
        for j, (x, c) in enumerate(dataset):
            xs[k, j] = x
            targets[k, j, int(c)] = 1.0
    for model, x in zip(models, xs):
        if model.feature_min is None:
            model.feature_min, model.feature_max = x.min(axis=0), x.max(axis=0)
        scale_input(model, x, out=x)
    xs = xs.reshape(n_lanes * n_rows, cfg.input_size)
    targets = targets.reshape(n_lanes * n_rows, cfg.output_size)

    rngs = [np.random.default_rng(m.config.seed + 1) for m in models]
    traces = [[] for _ in models]
    active = list(range(n_lanes))  # the lanes still training, in lane order of weights and vel
    weights = np.negative(_flat(zip(*((m.w1, m.b1, m.w2, m.b2) for m in models))))
    vel = np.zeros_like(weights)
    lr, mom = cfg.learning_rate, cfg.momentum
    while active:
        grad = np.empty_like(weights)
        step = _backprop_step(weights, grad, cfg)
        x_buf = np.empty((GATHER_ROWS, len(active), cfg.input_size))
        t_buf = np.empty((GATHER_ROWS, len(active), cfg.output_size))
        errs = np.empty((GATHER_ROWS, len(active), cfg.output_size, 1))
        # each step's views of its gathered rows and its error slot, made once so that a step indexes nothing
        slots = list(zip(x_buf[..., None], x_buf[:, :, None, :], t_buf[..., None], errs))
        sq = np.empty((n_rows, len(active)))
        sq_cells = sq[..., None, None]
        first_row = np.array(active) * n_rows
        done = []
        # once around the loop, not per sigmoid call: the overflow of a saturated
        # unit's exp(-t) is silenced, and its value (sigmoid 0.0) is unchanged
        with np.errstate(over="ignore"):
            while not done:
                order = np.stack([rngs[k].permutation(n_rows) for k in active], axis=1) + first_row
                for start in range(0, n_rows, GATHER_ROWS):
                    chunk = order[start : start + GATHER_ROWS]
                    # every index is in range; under the default mode="raise", take buffers its out
                    np.take(xs, chunk, axis=0, out=x_buf[: len(chunk)], mode="clip")
                    np.take(targets, chunk, axis=0, out=t_buf[: len(chunk)], mode="clip")
                    for x_col, x_row, t_col, err in slots[: len(chunk)]:
                        step(x_col, x_row, t_col, err)
                        # per element the float operations of -lr * grad + mom * vel on the true
                        # weights, negated, so the weights match the per-array update bit for bit
                        grad *= lr
                        vel *= mom
                        vel += grad
                        weights += vel
                    # a stacked matmul runs each step's BLAS dot of err with itself
                    np.matmul(errs[: len(chunk)].mT, errs[: len(chunk)], out=sq_cells[start : start + len(chunk)])
                # each lane's squared errors summed strictly in step order, as training it alone adds them:
                # accumulate never reorders its adds, where np.sum's pairwise sum would change the bits
                sq_errs = np.add.accumulate(2.0 * (0.5 * sq), axis=0)[-1].tolist()
                for r, k in enumerate(active):
                    traces[k].append(sq_errs[r] / (n_rows * cfg.output_size))
                    if traces[k][-1] <= cfg.target_mse or len(traces[k]) == cfg.max_epochs:
                        done.append(r)
        for r in done:
            # 0.0 - w, not -w: a stored zero may carry either sign, but a weight updated once is never
            # -0.0 (x + y is -0.0 only when both are, and the first velocity 0.0 + g is not), so it is +0.0
            m = models[active[r]]
            m.w1, m.b1, m.w2, m.b2 = (np.subtract(0.0, layer[r]) for layer in _layers(weights, cfg))
        keep = [r for r in range(len(active)) if r not in done]
        active = [active[r] for r in keep]
        if active:
            weights, vel = (_flat([layer[r] for r in keep] for layer in _layers(buf, cfg)) for buf in (weights, vel))
    return [
        TrainingReport(len(trace), trace, "target" if trace[-1] <= cfg.target_mse else "capped")
        for trace in traces
    ]


def predict(model: MlpModel, x: np.ndarray):
    """Ranked (label, confidence), confidence descending, ties by class index."""
    return ranked(model.labels, forward(model, x))


def ranked(labels, scores):
    """(label, score) for one sample's per-class scores, score descending, ties by class index."""
    return [(labels[i], float(scores[i])) for i in sorted(range(len(scores)), key=lambda i: (-scores[i], i))]


# --- model file format -------------------------------------------------------
#
# Line-oriented text: "glyphforge-mlp v1" magic, "key value" header lines
# (one per MlpConfig field, in field order, among them), then the blocks w1, b1,
# w2, b2 in that order and nothing after them, each an "@name rows cols" line
# and its rows of whitespace-separated floats. Values are written with repr()
# so the round trip is exact.

MAGIC = "glyphforge-mlp v1"


def _fmt_vec(v: np.ndarray) -> str:
    return " ".join(repr(float(x)) for x in v)


def save_model(model: MlpModel, path) -> None:
    lines = [MAGIC, f"extractor {model.extractor_id}", *field_lines(model.config)]
    lines.append("labels " + ",".join(model.labels))
    lines.append(f"flags {EXTRACTORS[model.extractor_id].flag}=1" if model.option else "flags ")
    if model.feature_min is not None:
        lines.append("feature_min " + _fmt_vec(model.feature_min))
        lines.append("feature_max " + _fmt_vec(model.feature_max))
    for name in ("w1", "b1", "w2", "b2"):
        arr = np.atleast_2d(getattr(model, name))
        lines.append(f"@{name} {arr.shape[0]} {arr.shape[1]}")
        for row in arr:
            lines.append(_fmt_vec(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> MlpModel:
    """The model in a .mlp file: the header, then exactly the blocks save_model writes, in its order."""
    lines = read_lines(path, MAGIC)
    i = next((k for k, ln in enumerate(lines) if ln.startswith("@")), len(lines))
    header = header_dict(lines[1:i], " ", path)
    cfg = from_fields(MlpConfig, header, path)
    extractor_id = header.get("extractor", "")
    items = [item for item in header.get("flags", "").split(",") if item]
    try:
        option = read_option(extractor_id, header_dict(items, "=", "flags"), cfg.input_size)
    except FormatError as exc:
        raise FormatError(f"{path}: bad flags or input_size ({exc})") from exc
    h, n, o = cfg.hidden_size, cfg.input_size, cfg.output_size
    blocks = []
    for name, rows, cols in (("w1", h, n), ("b1", 1, h), ("w2", o, h), ("b2", 1, o)):
        if lines[i : i + 1] != [f"@{name} {rows} {cols}"]:
            raise FormatError(f"{path}: line {i + 1}: want the line @{name} {rows} {cols}")
        block = [floats(ln.split(), f"{path}: {name}") for ln in lines[i + 1 : i + 1 + rows]]
        if len(block) != rows or any(len(r) != cols for r in block):
            raise FormatError(f"{path}: block {name} is not {rows} x {cols}")
        blocks.append(np.array(block))
        i += 1 + rows
    if i < len(lines):
        raise FormatError(f"{path}: line {i + 1}: nothing may follow @b2")
    fmin = fmax = None
    if "feature_min" in header:
        fmin, fmax = (floats(header.get(k, "").split(), f"{path}: {k}") for k in ("feature_min", "feature_max"))
        if fmin.shape != (n,) or fmax.shape != fmin.shape:
            raise FormatError(f"{path}: feature_min/feature_max length != input_size")
    labels = header["labels"].split(",") if header.get("labels") else []
    if len(labels) != o:
        raise FormatError(f"{path}: label table length != output_size")
    w1, b1, w2, b2 = blocks
    return MlpModel(config=cfg, w1=w1, b1=b1.ravel(), w2=w2, b2=b2.ravel(), labels=labels,
                    extractor_id=extractor_id, feature_min=fmin, feature_max=fmax, option=option)
