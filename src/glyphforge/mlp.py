"""Single-hidden-layer perceptron trained by online backpropagation with momentum.

Weights are float64 numpy arrays: w1 is hidden x input, w2 is output x hidden.
Inputs are min-max scaled to [0, 1] per feature with statistics frozen from
the training set and stored in the model file.
"""

from dataclasses import dataclass, field

import numpy as np

from .dataset_io import field_lines, floats, from_fields, read_lines
from .errors import ConfigError, FormatError, ShapeError, TrainError
from .extractors import check_flags


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
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be > 0")
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
    extractor_flags: dict = field(default_factory=dict)

    @property
    def extractors(self):
        """The (extractor_id, flags) pairs whose vectors rank() takes."""
        return [(self.extractor_id, self.extractor_flags)]

    def rank(self, vectors):
        """Ranked (label, confidence) for one vector per extractor."""
        (x,) = vectors
        return predict(self, x)

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


def scale_input(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Min-max scale one feature vector or a matrix of row vectors.

    Features whose training span is 0 scale to 0.0.
    """
    if model.feature_min is None:
        return np.asarray(x, dtype=np.float64)
    span = model.feature_max - model.feature_min
    scaled = np.subtract(x, model.feature_min, dtype=np.float64)
    scaled /= np.where(span > 0, span, 1.0)
    scaled[..., ~(span > 0)] = 0.0
    return scaled


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Per-class confidences in (0, 1): sigmoid hidden and output layers."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.config.input_size,):
        raise ShapeError(
            f"input length {x.shape} != ({model.config.input_size},)"
        )
    x = scale_input(model, x)
    with np.errstate(over="ignore"):  # exp(-t) of a saturated unit overflows to inf: sigmoid 0.0
        hidden = sigmoid(model.w1 @ x + model.b1)
        return sigmoid(model.w2 @ hidden + model.b2)


def _backprop(w1, b1, w2, b2, x, target, gw1, gb1, gw2, gb2) -> float:
    """One backprop pass on a scaled input; writes the gradients in place.

    Returns loss = 0.5 * sum((target - output)^2).
    """
    hidden = sigmoid(w1 @ x + b1)
    out = sigmoid(w2 @ hidden + b2)
    err = out - target
    np.multiply(err * out, 1.0 - out, out=gb2)
    np.multiply(gb2[:, None], hidden, out=gw2)
    np.multiply((w2.T @ gb2) * hidden, 1.0 - hidden, out=gb1)
    np.multiply(gb1[:, None], x, out=gw1)
    return 0.5 * float(np.dot(err, err))


def _split(flat: np.ndarray, cfg: MlpConfig):
    """Views (w1, b1, w2, b2) into one flat buffer laid out in that order."""
    h, n, o = cfg.hidden_size, cfg.input_size, cfg.output_size
    w1, b1, w2, b2 = np.split(flat, np.cumsum([h * n, h, o * h]))
    return w1.reshape(h, n), b1, w2.reshape(o, h), b2


def gradients(model: MlpModel, x: np.ndarray, target: np.ndarray):
    """Backprop gradients of loss = 0.5 * sum((target - output)^2).

    Returns (gw1, gb1, gw2, gb2, loss). Gradients are w.r.t. the raw
    weights; input scaling is applied exactly as in forward().
    """
    x = scale_input(model, x)
    grads = [np.empty_like(m) for m in (model.w1, model.b1, model.w2, model.b2)]
    loss = _backprop(model.w1, model.b1, model.w2, model.b2, x, target, *grads)
    return (*grads, loss)


def train(model: MlpModel, dataset) -> TrainingReport:
    """Online backprop with momentum over a shuffled pass each epoch.

    dataset: sequence of (feature_vector, class_index). Sets the model's
    min-max scaling statistics from the dataset before the first epoch.
    Stops at max_epochs or when the epoch MSE (mean squared output error
    over all samples and output units) drops to target_mse. Afterwards the
    model's w1, b1, w2 and b2 are views into one flat weight buffer.
    """
    if len(dataset) == 0:
        raise TrainError("cannot train on an empty dataset")
    cfg = model.config
    xs = np.array([np.asarray(x, dtype=np.float64) for x, _ in dataset])
    if xs.shape[1] != cfg.input_size:
        raise ShapeError(f"feature dim {xs.shape[1]} != input_size {cfg.input_size}")
    idxs = [int(c) for _, c in dataset]
    if max(idxs) >= cfg.output_size or min(idxs) < 0:
        raise TrainError("class index outside output layer range")
    if model.feature_min is None:
        model.feature_min = xs.min(axis=0)
        model.feature_max = xs.max(axis=0)
    xs = scale_input(model, xs)
    targets = np.zeros((len(dataset), cfg.output_size))
    targets[np.arange(len(dataset)), idxs] = 1.0

    weights = np.concatenate([model.w1.ravel(), model.b1, model.w2.ravel(), model.b2])
    params = _split(weights, cfg)
    model.w1, model.b1, model.w2, model.b2 = params
    grad = np.empty_like(weights)
    grads = _split(grad, cfg)
    vel = np.zeros_like(weights)
    neg_lr, mom = -cfg.learning_rate, cfg.momentum

    rng = np.random.default_rng(cfg.seed + 1)
    trace = []
    # once around the loop, not per sigmoid call: the overflow of a saturated
    # unit's exp(-t) is silenced, and its value (sigmoid 0.0) is unchanged
    with np.errstate(over="ignore"):
        for epoch in range(cfg.max_epochs):
            order = rng.permutation(len(dataset))
            sq_err = 0.0
            for i in order:
                sq_err += 2.0 * _backprop(*params, xs[i], targets[i], *grads)
                # per element the same float operations as -lr * grad + mom * vel,
                # so the weights match the per-array update bit for bit
                grad *= neg_lr
                vel *= mom
                vel += grad
                weights += vel
            mse = sq_err / (len(dataset) * cfg.output_size)
            trace.append(mse)
            if mse <= cfg.target_mse:
                break
    stop_reason = "target" if trace[-1] <= cfg.target_mse else "capped"
    return TrainingReport(epochs_run=len(trace), mse_trace=trace, stop_reason=stop_reason)


def predict(model: MlpModel, x: np.ndarray):
    """Ranked (label, confidence), confidence descending, ties by class index."""
    conf = forward(model, x)
    return [(model.labels[i], float(conf[i])) for i in rank_order(conf)]


def rank_order(scores):
    """Class indices by score descending, ties by class index."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


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
    flags = ",".join(f"{k}={int(bool(v))}" for k, v in sorted(model.extractor_flags.items()))
    lines.append(f"flags {flags}")
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
    header = dict(ln.partition(" ")[::2] for ln in lines[1:i])
    cfg = from_fields(MlpConfig, header, path)
    extractor_id = header.get("extractor", "")
    try:
        items = [item.partition("=") for item in header.get("flags", "").split(",") if item]
        flags = {k: bool(int(v)) for k, _, v in items}
        check_flags(extractor_id, flags)
    except (ValueError, FormatError) as exc:
        raise FormatError(f"{path}: bad flags ({exc})") from exc
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
                    extractor_id=extractor_id, feature_min=fmin, feature_max=fmax, extractor_flags=flags)
