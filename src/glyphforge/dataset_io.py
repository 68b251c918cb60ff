"""Corpus loading, the synthetic benchmark generator, PGM and feature-table IO.

Corpus layout on disk: <root>/<class>/<sample>.pgm, one subdirectory per
class. PGM is the only supported image format (P2 ASCII and P5 binary,
maxval up to 255).
"""

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CorpusError, FormatError, IoError
from .extractors import EXTRACTORS


@contextmanager
def open_text(path):
    """open(path) for reading text: an OS error is an IoError, undecodable bytes a FormatError."""
    try:
        with open(path) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file ({exc.reason})") from exc
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc


# --- PGM ---------------------------------------------------------------------

def read_pgm(path) -> np.ndarray:
    """Read a P2/P5 PGM file into a uint8 [row, col] array."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc

    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise IoError(f"{path}: truncated PGM header")
        return data[start:pos]

    magic = next_token()
    if magic not in (b"P2", b"P5"):
        raise IoError(f"{path}: unsupported PGM magic {magic!r}")
    try:
        width, height, maxval = (int(next_token()) for _ in range(3))
    except ValueError as exc:
        raise IoError(f"{path}: non-integer PGM width, height or maxval") from exc
    if width < 1 or height < 1 or not 0 < maxval <= 255:
        raise IoError(f"{path}: bad PGM dimensions or maxval")
    if magic == b"P5":
        pos += 1  # exactly one whitespace byte after maxval
        raster = data[pos : pos + width * height]
        if len(raster) < width * height:
            raise IoError(f"{path}: truncated PGM raster")
        img = np.frombuffer(raster, dtype=np.uint8)
    else:
        try:
            values = [int(t) for t in data[pos:].split()]
        except ValueError as exc:
            raise IoError(f"{path}: non-numeric P2 raster") from exc
        if len(values) < width * height:
            raise IoError(f"{path}: truncated PGM raster")
        values = values[: width * height]
        if min(values) < 0 or max(values) > maxval:
            raise IoError(f"{path}: P2 sample outside 0..{maxval}")
        img = np.array(values, dtype=np.uint8)
    return img.reshape(height, width)


def read_pgm_or_skip(path, strict: bool = False):
    """read_pgm(path); a malformed file is skipped (None) with a warning naming it, or with strict raises."""
    try:
        return read_pgm(path)
    except IoError as exc:
        if strict:
            raise
        warnings.warn(f"skipping malformed image: {exc}")
        return None


def write_pgm(path, img: np.ndarray) -> None:
    """Write a uint8 grayscale array as binary P5."""
    img = np.asarray(img, dtype=np.uint8)
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode())
        fh.write(img.tobytes())


def write_binary_pgm(path, binary: np.ndarray) -> None:
    """Dump a binary stage image: foreground 0, background 255."""
    write_pgm(path, np.where(binary, 0, 255).astype(np.uint8))


# --- corpus ------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledSample:
    id: str  # relative path, stable across runs
    label: str
    image: np.ndarray


def load_corpus(root, strict: bool = False):
    """Load all <root>/<class>/*.pgm files in lexicographic order."""
    if not os.path.isdir(root):
        raise CorpusError(f"corpus root {root} is not a directory")
    samples = []
    classes = sorted(
        d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d))
    )
    # the label and the sample id are fields of the feature CSV, which cannot hold a comma
    for cls in classes:
        if "," in cls:
            raise CorpusError(f"class directory {os.path.join(root, cls)} has a comma in its name")
        for name in sorted(os.listdir(os.path.join(root, cls))):
            if not name.endswith(".pgm"):
                continue
            path = os.path.join(root, cls, name)
            if "," in name:
                raise CorpusError(f"image {path} has a comma in its name")
            img = read_pgm_or_skip(path, strict)
            if img is not None:
                samples.append(LabeledSample(id=f"{cls}/{name}", label=cls, image=img))
    if not samples:
        raise CorpusError(f"no samples found under {root}")
    return samples


def save_corpus(samples, root) -> None:
    for s in samples:
        path = os.path.join(root, s.id)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_pgm(path, s.image)


# --- synthetic benchmark corpus ---------------------------------------------

SYNTH_CANVAS = 64
_TEMPLATE_SEED = 0x51F7  # templates are fixed per class, independent of seed


def _class_template(class_index: int):
    """Deterministic polyline skeleton for one class, vertices in canvas coords."""
    rng = np.random.default_rng(_TEMPLATE_SEED + class_index)
    n_vertices = int(rng.integers(4, 7))
    return rng.uniform(12, SYNTH_CANVAS - 12, size=(n_vertices, 2))


def _draw_line(canvas: np.ndarray, p0, p1) -> None:
    """Bresenham segment, stamping a 3x3 block per pixel (stroke width 3)."""
    x0, y0 = int(round(p0[0])), int(round(p0[1]))
    x1, y1 = int(round(p1[0])), int(round(p1[1]))
    steps = max(abs(x1 - x0), abs(y1 - y0), 1)
    for t in range(steps + 1):
        x = int(round(x0 + (x1 - x0) * t / steps))
        y = int(round(y0 + (y1 - y0) * t / steps))
        r0, r1 = max(y - 1, 0), min(y + 2, canvas.shape[0])
        c0, c1 = max(x - 1, 0), min(x + 2, canvas.shape[1])
        canvas[r0:r1, c0:c1] = True


def render_polyline(vertices) -> np.ndarray:
    """Render a polyline as dark strokes (0) on a white (255) canvas."""
    canvas = np.zeros((SYNTH_CANVAS, SYNTH_CANVAS), dtype=bool)
    vertices = np.clip(vertices, 1, SYNTH_CANVAS - 2)
    for p0, p1 in zip(vertices[:-1], vertices[1:]):
        _draw_line(canvas, p0, p1)
    return np.where(canvas, 0, 255).astype(np.uint8)


def synth_corpus(classes: int, per_class: int, seed: int = 0):
    """Perturbed instances of `classes` fixed polyline templates.

    Each instance gets seeded random scaling (+-15%), per-vertex jitter
    (+-2 px) and translation (+-4 px) before rendering.
    """
    if classes < 2 or per_class < 1:
        raise ConfigError(f"need at least 2 classes and 1 sample per class, got {classes} and {per_class}")
    rng = np.random.default_rng(seed)
    samples = []
    templates = [_class_template(c) for c in range(classes)]
    for c, template in enumerate(templates):
        label = f"c{c:02d}"
        center = template.mean(axis=0)
        for j in range(per_class):
            scale = rng.uniform(0.85, 1.15)
            jitter = rng.uniform(-2, 2, size=template.shape)
            shift = rng.uniform(-4, 4, size=2)
            verts = (template - center) * scale + center + jitter + shift
            samples.append(
                LabeledSample(
                    id=f"{label}/s{j:03d}.pgm",
                    label=label,
                    image=render_polyline(verts),
                )
            )
    return samples


# --- feature tables ----------------------------------------------------------

@dataclass
class FeatureTable:
    extractor_id: str
    dim: int
    rows: list  # (id, label, np.ndarray)
    flags: dict = field(default_factory=dict)  # extractor options, e.g. {"log_moments": True}

    def __post_init__(self):
        extractor = EXTRACTORS.get(self.extractor_id)
        if extractor is None:
            raise FormatError(f"unknown extractor {self.extractor_id!r}")
        if extractor.dim != self.dim:
            raise FormatError(f"extractor {self.extractor_id} implies dim {extractor.dim}, got {self.dim}")
        if not set(self.flags) <= {extractor.flag}:
            raise FormatError(f"flags {sorted(self.flags)}: extractor {self.extractor_id} has only {extractor.flag}")
        for sample_id, _, vec in self.rows:
            if len(vec) != self.dim:
                raise FormatError(f"row {sample_id} has {len(vec)} values, want {self.dim}")

    def subset(self, idxs) -> "FeatureTable":
        """The rows at idxs, in that order, under the same header."""
        return FeatureTable(self.extractor_id, self.dim, [self.rows[i] for i in idxs], self.flags)


def check_same_samples(tables) -> None:
    """FormatError unless every table lists the same sample ids in the same order."""
    ids = [r[0] for r in tables[0].rows]
    if any([r[0] for r in t.rows] != ids for t in tables[1:]):
        raise FormatError("feature tables do not cover the same samples")


def save_features(table: FeatureTable, path) -> None:
    """Write the CSV; the header names the extractor options that are on."""
    flags = "".join(f" {k}=1" for k, v in sorted(table.flags.items()) if v)
    with open(path, "w") as fh:
        fh.write(f"# extractor={table.extractor_id} dim={table.dim}{flags}\n")
        for sample_id, label, vec in table.rows:
            values = ",".join(map(repr, np.asarray(vec, dtype=np.float64).tolist()))
            fh.write(f"{sample_id},{label},{values}\n")


def load_features(path) -> FeatureTable:
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# extractor="):
        raise FormatError(f"{path}: missing feature header")
    try:
        head = dict(kv.split("=") for kv in lines[0][2:].split())
        extractor_id = head.pop("extractor")
        dim = int(head.pop("dim"))
        flags = {k: bool(int(v)) for k, v in head.items()}
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad feature header") from exc
    rows = []
    for n, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != dim + 2:
            raise FormatError(f"{path}: row has {len(parts) - 2} values, want {dim}")
        try:
            vec = np.array([float(v) for v in parts[2:]])
        except ValueError as exc:
            raise FormatError(f"{path}: line {n}: {exc}") from exc
        if not np.isfinite(vec).all():
            raise FormatError(f"{path}: line {n}: non-finite feature value")
        rows.append((parts[0], parts[1], vec))
    try:
        return FeatureTable(extractor_id=extractor_id, dim=dim, rows=rows, flags=flags)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
