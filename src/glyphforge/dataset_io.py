"""Corpus loading, the synthetic benchmark generator, PGM and feature-table IO.

Corpus layout on disk: <root>/<class>/<sample>.pgm, one subdirectory per
class. PGM is the only supported image format (P2 ASCII and P5 binary,
maxval up to 255).
"""

import itertools
import os
import re
from dataclasses import dataclass, fields

import numpy as np

from . import image_prep
from .errors import ConfigError, CorpusError, FormatError, IoError
from .extractors import EXTRACTORS, read_option


def read_lines(path, magic=None) -> list:
    """The lines of a text file; with magic, its first line must be magic.

    An OS error is an IoError; undecodable bytes, or another first line, a FormatError.
    """
    try:
        with open(path, newline="\n") as fh:  # a line ends at a newline only, as the writers end it: a CR stays in it
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file ({exc.reason})") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IoError(f"{path}: {exc}") from exc
    if magic is not None and lines[:1] != [magic]:
        raise FormatError(f"{path}: not a {magic} file")
    return lines


def header_dict(items, sep, where) -> dict:
    """{key: value} of "<key><sep><value>" items, split at the first sep; a repeated key is a FormatError naming where."""
    header = {}
    for item in items:
        key, _, value = item.partition(sep)
        if key in header:
            raise FormatError(f"{where}: repeated key {key!r}")
        header[key] = value
    return header


def floats(text, where, sep=None) -> np.ndarray:
    """The values of text, split at sep (at whitespace when None), as float64.

    A value that is not a finite number in ASCII without underscores, as the
    writers write it, is a FormatError naming where: float() alone would also
    read 1_0 as 10.0 and take non-ASCII digits. With a sep, a space, tab or
    CR in text is one too, since float() would strip it.
    """
    if "_" in text or not text.isascii():
        raise FormatError(f"{where}: a value holds '_' or a non-ASCII character")
    if sep is not None and (" " in text or "\t" in text or "\r" in text):
        raise FormatError(f"{where}: a value holds whitespace")
    try:
        values = np.array([float(t) for t in text.split(sep)])
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    if not np.isfinite(values).all():
        raise FormatError(f"{where}: non-finite value")
    return values


def number(kind, text):
    """kind(text), kind int or float, for a number written as the writers write it, else a ValueError.

    int() and float() alone would also take a '+' sign, '_' between digits,
    whitespace around the number and non-ASCII digits. A leading '-' and an
    exponent's sign stay, and float() still reads nan and inf.
    """
    if "_" in text or not text.isascii() or text.startswith("+") or text.split() != [text]:
        raise ValueError(f"{text!r} is not a number as written")
    return kind(text)


def field_lines(record) -> list:
    """One "name value" line per dataclass field, in field order; repr() makes the round trip exact."""
    return [f"{f.name} {f.type(getattr(record, f.name))!r}" for f in fields(record)]


def from_fields(cls, header, path):
    """cls from the header's {name: value} entries, one per field, each a number of the field's type."""
    try:
        return cls(**{f.name: number(f.type, header[f.name]) for f in fields(cls)})
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: missing or bad field ({exc})") from exc


# --- PGM ---------------------------------------------------------------------

# a PGM header token: a comment, from a '#' that starts a token to the end of its line, or a run of non-whitespace
_PGM_TOKEN = re.compile(rb"#[^\n]*|\S+")


def read_pgm(path) -> np.ndarray:
    """Read a P2/P5 PGM file into a uint8 [row, col] array."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc

    # magic, width, height and maxval: the first four tokens that are not comments
    header = list(itertools.islice((m for m in _PGM_TOKEN.finditer(data) if m[0][:1] != b"#"), 4))
    if len(header) < 4:
        raise IoError(f"{path}: truncated PGM header")
    magic, *numbers = (m[0] for m in header)
    if magic not in (b"P2", b"P5"):
        raise IoError(f"{path}: unsupported PGM magic {magic!r}")
    # ASCII digits only, as write_pgm writes them: int() also takes a sign or a _
    if not all(token.isdigit() for token in numbers):
        raise IoError(f"{path}: non-integer PGM width, height or maxval")
    width, height, maxval = map(int, numbers)
    if width < 1 or height < 1 or not 0 < maxval <= 255:
        raise IoError(f"{path}: bad PGM dimensions or maxval")
    pos = header[-1].end()
    if magic == b"P5":
        pos += 1  # exactly one whitespace byte after maxval
        raster = data[pos : pos + width * height]
        if len(raster) < width * height:
            raise IoError(f"{path}: truncated PGM raster")
        img = np.frombuffer(raster, dtype=np.uint8)
        if maxval < 255 and img.max() > maxval:  # a byte exceeds only a maxval below 255
            raise IoError(f"{path}: P5 sample outside 0..{maxval}")
    else:
        tokens = data[pos:].split()
        # ASCII digits, as for the header numbers; a leading '-' is left for the range check to name
        if not all(token.removeprefix(b"-").isdigit() for token in tokens):
            raise IoError(f"{path}: non-numeric P2 raster")
        if len(tokens) < width * height:
            raise IoError(f"{path}: truncated PGM raster")
        values = [int(token) for token in tokens[: width * height]]
        if min(values) < 0 or max(values) > maxval:
            raise IoError(f"{path}: P2 sample outside 0..{maxval}")
        img = np.array(values, dtype=np.uint8)
    return img.reshape(height, width)


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


@dataclass(frozen=True)
class SampleFiles:
    """The (id, label, path) files of one pass, in sample order; iterating yields a LabeledSample per usable image.

    Each image is read only when the iteration reaches it. Iterating is the one place an image is skipped: in its
    place, in sample order, comes the text pipeline.iter_features warns with, "skipping malformed image: <its
    IoError>" (with strict, the IoError is raised) or, for a uniform one, "skipping <id>: image has no foreground
    pixel" (with strict, a CorpusError). iter_features reads contiguous parts of the files, each in its own process.
    """
    files: list
    strict: bool = False

    def __iter__(self):
        for sample_id, label, path in self.files:
            try:
                image = read_pgm(path)
            except IoError as exc:
                if self.strict:
                    raise
                yield f"skipping malformed image: {exc}"
                continue
            if image_prep.uniform(image)[0]:
                reason = f"{path}: {image_prep.NO_FOREGROUND}"
                if self.strict:
                    raise CorpusError(reason)
                yield f"skipping {reason}"
                continue
            yield LabeledSample(id=sample_id, label=label, image=image)


def load_corpus(root, strict: bool = False) -> SampleFiles:
    """The SampleFiles of all <root>/<class>/*.pgm files in lexicographic order.

    The listing is checked before any image is read: a root that is not a
    directory, a comma in a class or image name, or no .pgm file is a CorpusError.
    """
    if not os.path.isdir(root):
        raise CorpusError(f"corpus root {root} is not a directory")
    files = []
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
            files.append((f"{cls}/{name}", cls, path))
    if not files:
        raise CorpusError(f"no samples found under {root}")
    return SampleFiles(files, strict)


def save_corpus(samples, root) -> None:
    """Write each sample as <root>/<id>, making each directory once."""
    made = set()
    for s in samples:
        path = os.path.join(root, s.id)
        directory = os.path.dirname(path)
        if directory not in made:
            os.makedirs(directory, exist_ok=True)
            made.add(directory)
        write_pgm(path, s.image)


# --- synthetic benchmark corpus ---------------------------------------------

SYNTH_CANVAS = 64
_TEMPLATE_SEED = 0x51F7  # templates are fixed per class, independent of seed


def _class_template(class_index: int):
    """Deterministic polyline skeleton for one class, vertices in canvas coords."""
    rng = np.random.default_rng(_TEMPLATE_SEED + class_index)
    n_vertices = int(rng.integers(4, 7))
    return rng.uniform(12, SYNTH_CANVAS - 12, size=(n_vertices, 2))


def render_polyline(vertices) -> np.ndarray:
    """Dark strokes (0) of width 3 on a white (255) canvas: a (V, 2) polyline gives (64, 64), an (N, V, 2) stack (N, 64, 64).

    Every segment of every polyline is rasterised at once. The vertices are clipped to [1, 62] and rounded half to
    even; a segment of steps = max(|dx|, |dy|, 1) has the steps + 1 points x0 + (dx * t) / steps, rounded half to
    even, and each point stamps a 3x3 block, which the clip keeps inside the canvas.
    """
    vertices = np.asarray(vertices)
    stack = vertices if vertices.ndim == 3 else vertices[None]
    n, v = stack.shape[:2]
    pts = np.rint(np.clip(stack, 1, SYNTH_CANVAS - 2)).astype(np.int64)
    start = pts[:, :-1].reshape(-1, 2)
    delta = (pts[:, 1:] - pts[:, :-1]).reshape(-1, 2)
    steps = np.maximum(np.abs(delta).max(axis=1), 1)
    counts = steps + 1
    seg = np.repeat(np.arange(len(steps)), counts)
    t = np.arange(len(seg)) - np.repeat(np.cumsum(counts) - counts, counts)
    x, y = np.rint(start[seg] + (delta[seg] * t[:, None]) / steps[seg, None]).astype(np.int64).T
    # a point's flat index in the (N, 64, 64) canvas; segment seg belongs to polyline seg // (V - 1)
    centre = (seg // max(v - 1, 1) * SYNTH_CANVAS + y) * SYNTH_CANVAS + x
    canvas = np.zeros((n, SYNTH_CANVAS, SYNTH_CANVAS), dtype=bool)
    flat = canvas.reshape(-1)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            flat[centre + (dy * SYNTH_CANVAS + dx)] = True
    images = np.where(canvas, 0, 255).astype(np.uint8)
    return images if vertices.ndim == 3 else images[0]


def synth_corpus(classes: int, per_class: int, seed: int = 0):
    """Perturbed instances of `classes` fixed polyline templates.

    Each instance gets seeded random scaling (+-15%), per-vertex jitter
    (+-2 px) and translation (+-4 px) before rendering; a class's instances
    render as one stack.
    """
    if classes < 2 or per_class < 1:
        raise ConfigError(f"need at least 2 classes and 1 sample per class, got {classes} and {per_class}")
    rng = np.random.default_rng(seed)
    samples = []
    templates = [_class_template(c) for c in range(classes)]
    for c, template in enumerate(templates):
        label = f"c{c:02d}"
        center = template.mean(axis=0)
        verts = []
        for _ in range(per_class):
            scale = rng.uniform(0.85, 1.15)
            jitter = rng.uniform(-2, 2, size=template.shape)
            shift = rng.uniform(-4, 4, size=2)
            verts.append((template - center) * scale + center + jitter + shift)
        samples.extend(
            LabeledSample(id=f"{label}/s{j:03d}.pgm", label=label, image=image)
            for j, image in enumerate(render_polyline(np.stack(verts)))
        )
    return samples


# --- feature tables ----------------------------------------------------------

@dataclass
class FeatureTable:
    extractor_id: str
    dim: int
    rows: list  # (id, label, np.ndarray)
    option: bool = False  # the extractor's option, on or off (log_moments for moment63)

    def __post_init__(self):
        read_option(self.extractor_id, {}, self.dim)  # no option to read: its id and dim checks alone
        for sample_id, _, vec in self.rows:
            if len(vec) != self.dim:
                raise FormatError(f"row {sample_id} has {len(vec)} values, want {self.dim}")

    def subset(self, idxs) -> "FeatureTable":
        """The rows at idxs, in that order, under the same header."""
        return FeatureTable(self.extractor_id, self.dim, [self.rows[i] for i in idxs], self.option)


def check_same_samples(tables) -> None:
    """FormatError unless the tables have rows and each lists the same (id, label) pairs in the same order."""
    samples = [r[:2] for r in tables[0].rows]
    if not samples:
        raise FormatError("feature table has no rows")
    if any([r[:2] for r in t.rows] != samples for t in tables[1:]):
        raise FormatError("feature tables do not cover the same samples with the same labels")


def save_features(table: FeatureTable, path) -> None:
    """Write the CSV; the header names the extractor's option when it is on."""
    option = f" {EXTRACTORS[table.extractor_id].flag}=1" if table.option else ""
    with open(path, "w") as fh:
        fh.write(f"# extractor={table.extractor_id} dim={table.dim}{option}\n")
        for sample_id, label, vec in table.rows:
            values = ",".join(map(repr, np.asarray(vec, dtype=np.float64).tolist()))
            fh.write(f"{sample_id},{label},{values}\n")


def load_features(path) -> FeatureTable:
    lines = read_lines(path)
    if not lines or not lines[0].startswith("# extractor="):
        raise FormatError(f"{path}: missing feature header")
    head = header_dict(lines[0][2:].split(), "=", path)
    try:
        extractor_id = head.pop("extractor")
        dim = number(int, head.pop("dim"))
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad feature header") from exc
    rows = []
    for n, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        # the values are read apart from the sample id and label, which may hold '_' or non-ASCII characters
        sample_id, _, rest = ln.partition(",")
        label, _, values = rest.partition(",")
        rows.append((sample_id, label, floats(values, f"{path}: line {n}", ",")))
    try:
        return FeatureTable(extractor_id, dim, rows, read_option(extractor_id, head, dim))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
