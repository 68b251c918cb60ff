"""Single-hidden-layer perceptron trained by online backpropagation with momentum.

Weights are float64 numpy arrays: w1 is hidden x input, w2 is output x hidden.
Inputs are min-max scaled to [0, 1] per feature with statistics frozen from
the training set and stored in the model file.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .dataset_io import open_text
from .errors import ConfigError, FormatError, ShapeError, TrainError
from .extractors import EXTRACTORS


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
# (one per MlpConfig field, in field order, among them), then "@name rows cols"
# blocks of whitespace-separated float rows. Values are written with repr() so
# the round trip is exact.

MAGIC = "glyphforge-mlp v1"


def _fmt_vec(v: np.ndarray) -> str:
    return " ".join(repr(float(x)) for x in v)


def save_model(model: MlpModel, path) -> None:
    lines = [MAGIC, f"extractor {model.extractor_id}"]
    lines += [f"{f.name} {f.type(getattr(model.config, f.name))!r}" for f in fields(MlpConfig)]
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
    with open_text(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != MAGIC:
        raise FormatError(f"{path}: not a {MAGIC} file")
    header = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("@"):
        key, _, value = lines[i].partition(" ")
        header[key] = value
        i += 1
    try:
        cfg = MlpConfig(**{f.name: f.type(header[f.name]) for f in fields(MlpConfig)})
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad header ({exc})") from exc
    labels = header.get("labels", "").split(",") if header.get("labels") else []
    try:
        flags = {}
        for item in header.get("flags", "").split(","):
            if item:
                k, _, v = item.partition("=")
                flags[k] = bool(int(v))
        mats = {}
        while i < len(lines):
            name, rows, cols = lines[i][1:].split()
            rows, cols = int(rows), int(cols)
            if min(rows, cols) < 0:  # a negative row count moves the block loop backwards or not at all
                raise FormatError(f"{path}: matrix {name} has a negative size")
            block = [
                [float(tok) for tok in lines[i + 1 + r].split()] for r in range(rows)
            ]
            mats[name] = np.array(block, dtype=np.float64).reshape(rows, cols)
            i += 1 + rows
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: bad flags or matrix block ({exc})") from exc
    extractor_id = header.get("extractor", "")
    own_flags = {EXTRACTORS[extractor_id].flag} if extractor_id in EXTRACTORS else set()
    if not set(flags) <= own_flags:
        raise FormatError(f"{path}: flags {sorted(flags)}: extractor {extractor_id!r} has only {sorted(own_flags)}")
    for name, shape in (
        ("w1", (cfg.hidden_size, cfg.input_size)),
        ("b1", (1, cfg.hidden_size)),
        ("w2", (cfg.output_size, cfg.hidden_size)),
        ("b2", (1, cfg.output_size)),
    ):
        if name not in mats or mats[name].shape != shape:
            raise FormatError(f"{path}: matrix {name} missing or wrong shape")
    fmin = fmax = None
    if "feature_min" in header:
        try:
            fmin = np.array([float(t) for t in header["feature_min"].split()])
            fmax = np.array([float(t) for t in header["feature_max"].split()])
        except (KeyError, ValueError) as exc:
            raise FormatError(f"{path}: bad feature range ({exc})") from exc
        if fmin.shape != (cfg.input_size,) or fmax.shape != fmin.shape:
            raise FormatError(f"{path}: feature_min/feature_max length != input_size")
    for name, values in [*mats.items(), ("feature_min", fmin), ("feature_max", fmax)]:
        if values is not None and not np.isfinite(values).all():
            raise FormatError(f"{path}: non-finite value in {name}")
    model = MlpModel(
        config=cfg,
        w1=mats["w1"],
        b1=mats["b1"].ravel(),
        w2=mats["w2"],
        b2=mats["b2"].ravel(),
        labels=labels,
        extractor_id=extractor_id,
        feature_min=fmin,
        feature_max=fmax,
        extractor_flags=flags,
    )
    if len(model.labels) != cfg.output_size:
        raise FormatError(f"{path}: label table length != output_size")
    return model
