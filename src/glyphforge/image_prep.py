"""Preprocessing: binarization, size normalization, thinning, contour detection.

Images are numpy arrays indexed [row, col]: grayscale as uint8 in [0, 255],
binary as bool with True = foreground (object).
"""

import warnings

import numpy as np

from .errors import EmptyGlyph

CANONICAL_SIZE = 60


def otsu_threshold(gray: np.ndarray) -> int:
    """Threshold maximizing between-class variance (first argmax wins)."""
    hist = np.bincount(gray.ravel(), minlength=256).astype(np.float64)
    total = hist.sum()
    levels = np.arange(256, dtype=np.float64)
    w0 = np.cumsum(hist)
    sum0 = np.cumsum(hist * levels)
    mean_total = sum0[-1]
    w1 = total - w0
    # between-class variance for thresholds t = 0..255 (class0 = values <= t)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = sum0 / w0
        mu1 = (mean_total - sum0) / w1
        var_b = w0 * w1 * (mu0 - mu1) ** 2
    var_b = np.nan_to_num(var_b, nan=0.0, posinf=0.0, neginf=0.0)
    return int(np.argmax(var_b))


def binarize(gray: np.ndarray) -> np.ndarray:
    """Otsu binarization; pixels at or below the threshold become foreground."""
    gray = np.asarray(gray, dtype=np.uint8)
    if gray.size == 0:
        raise EmptyGlyph("cannot binarize an empty image")
    if gray.min() == gray.max():
        warnings.warn("uniform-intensity image: no foreground found")
        return np.zeros(gray.shape, dtype=bool)
    return gray <= otsu_threshold(gray)


def bounding_box(binary: np.ndarray):
    """(top, left, bottom, right) inclusive bounds of the foreground."""
    rows = np.flatnonzero(binary.any(axis=1))
    cols = np.flatnonzero(binary.any(axis=0))
    if rows.size == 0:
        raise EmptyGlyph("image has no foreground pixel")
    return rows[0], cols[0], rows[-1], cols[-1]


def normalize_size(binary: np.ndarray, size: int = CANONICAL_SIZE) -> np.ndarray:
    """Crop to the foreground bounding box and stretch to size x size.

    Nearest-neighbor sampling keeps the image strictly binary. Aspect ratio
    is intentionally not preserved.
    """
    top, left, bottom, right = bounding_box(binary)
    box = binary[top : bottom + 1, left : right + 1]
    h, w = box.shape
    row_idx = (np.arange(size) * h) // size
    col_idx = (np.arange(size) * w) // size
    return box[np.ix_(row_idx, col_idx)]


def _neighbors(img: np.ndarray):
    """The eight shifted copies P2..P9 (N, NE, E, SE, S, SW, W, NW)."""
    p = np.pad(img, 1, mode="constant", constant_values=False)
    n = p[:-2, 1:-1]
    ne = p[:-2, 2:]
    e = p[1:-1, 2:]
    se = p[2:, 2:]
    s = p[2:, 1:-1]
    sw = p[2:, :-2]
    w = p[1:-1, :-2]
    nw = p[:-2, :-2]
    return n, ne, e, se, s, sw, w, nw


def _thin_pass(img: np.ndarray, first_subiter: bool) -> np.ndarray:
    n, ne, e, se, s, sw, w, nw = _neighbors(img)
    ring = [n, ne, e, se, s, sw, w, nw]
    b = sum(x.astype(np.uint8) for x in ring)
    # 0->1 transitions around the ring P2,P3,...,P9,P2
    a = sum(
        ((~ring[i]) & ring[(i + 1) % 8]).astype(np.uint8) for i in range(8)
    )
    if first_subiter:
        cond = (~(n & e & s)) & (~(e & s & w))
    else:
        cond = (~(n & e & w)) & (~(n & s & w))
    deletable = img & (b >= 2) & (b <= 6) & (a == 1) & cond
    return img & ~deletable


def thin(binary: np.ndarray) -> np.ndarray:
    """Zhang-Suen iterative thinning to a one-pixel-wide skeleton."""
    img = binary.copy()
    while True:
        after1 = _thin_pass(img, first_subiter=True)
        after2 = _thin_pass(after1, first_subiter=False)
        if np.array_equal(after2, img):
            return after2
        img = after2


def find_contour(binary: np.ndarray) -> np.ndarray:
    """Object pixels with at least one 4-connected background neighbor.

    Out-of-bounds neighbors count as background, so border pixels of a
    solid shape are always contour points.
    """
    n, _, e, _, s, _, w, _ = _neighbors(binary)
    return binary & ~(n & s & e & w)
