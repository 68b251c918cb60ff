"""Central / normalized central / Hu invariant moments, zoned 3x3 (63-d).

Moments are taken over pixel-center coordinates of foreground pixels
(f(x, y) = 1 on the skeleton, 0 elsewhere); x is the column, y the row.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGlyph

MOMENT_ZONES = 3
MOMENT_DIM = MOMENT_ZONES * MOMENT_ZONES * 7

_ORDERS = [(p, q) for p in range(4) for q in range(4) if p + q <= 3]
# the p and the q of each order, which index the stacked powers of x and y
_P, _Q = (list(k) for k in zip(*_ORDERS))
# (p, q) and the exponent gamma = (p + q) / 2 + 1 of each normalized central moment
_GAMMAS = [((p, q), (p + q) / 2.0 + 1.0) for p, q in _ORDERS if p + q >= 2]


@dataclass(frozen=True)
class MomentSet:
    """Raw, central and normalized central moments up to order 3."""

    raw: dict
    centroid: tuple
    central: dict
    normalized: dict


def _power_sums(xy: np.ndarray) -> dict:
    """{(p, q): sum over the last axis of x**p * y**q} over _ORDERS, each power computed once.

    xy stacks x and y on its first axis: (2, n) gives one float per order,
    (2, k, n) a list of k floats. np.add.reduce gives each row of n the
    pairwise sum np.sum gives a 1-D array, so every value has the same bits
    as np.sum(x**p * y**q) of that row alone.
    """
    powers = np.stack([xy**p for p in range(4)])
    sums = np.add.reduce(powers[_P, 0] * powers[_Q, 1], axis=-1)
    return dict(zip(_ORDERS, sums.tolist()))


def _central_sums(xy: np.ndarray) -> dict:
    """_power_sums about the centroid of each row of pixel coordinates.

    They are taken in bounding-box-local coordinates, so a translated copy
    of a shape yields bit-identical values.
    """
    local = xy - xy.min(axis=-1, keepdims=True)
    return _power_sums(local - np.add.reduce(local, axis=-1, keepdims=True) / xy.shape[-1])


def _normalized(central: dict) -> dict:
    """Normalized central moments of orders 2 and 3, in Python floats."""
    c00 = central[(0, 0)]
    return {pq: central[pq] / c00**gamma for pq, gamma in _GAMMAS}


def compute_moments(img: np.ndarray) -> MomentSet:
    ys, xs = np.nonzero(img)
    if xs.size == 0:
        raise EmptyGlyph("moments undefined for an image with no foreground")
    xy = np.stack([xs, ys]).astype(np.float64)
    raw = _power_sums(xy)
    cx = raw[(1, 0)] / raw[(0, 0)]
    cy = raw[(0, 1)] / raw[(0, 0)]
    central = _central_sums(xy)
    return MomentSet(raw=raw, centroid=(cx, cy), central=central, normalized=_normalized(central))


def _hu(n: dict) -> list:
    """phi1..phi7 of normalized central moments, in Python floats."""
    n20, n02, n11 = n[(2, 0)], n[(0, 2)], n[(1, 1)]
    n30, n03, n21, n12 = n[(3, 0)], n[(0, 3)], n[(2, 1)], n[(1, 2)]
    a = n30 + n12
    b = n21 + n03
    c = n30 - 3 * n12
    d = 3 * n21 - n03
    phi1 = n20 + n02
    phi2 = (n20 - n02) ** 2 + 4 * n11**2
    phi3 = c**2 + d**2
    phi4 = a**2 + b**2
    phi5 = c * a * (a**2 - 3 * b**2) + d * b * (3 * a**2 - b**2)
    phi6 = (n20 - n02) * (a**2 - b**2) + 4 * n11 * a * b
    phi7 = d * a * (a**2 - 3 * b**2) - c * b * (3 * a**2 - b**2)
    return [phi1, phi2, phi3, phi4, phi5, phi6, phi7]


def hu_invariants(ms: MomentSet) -> np.ndarray:
    """The seven translation/scale/rotation invariants phi1..phi7."""
    return np.array(_hu(ms.normalized), dtype=np.float64)


def hu_from_image(img: np.ndarray) -> np.ndarray:
    """Hu invariants of one binary image; empty image yields seven zeros."""
    if not img.any():
        return np.zeros(7, dtype=np.float64)
    return hu_invariants(compute_moments(img))


def signed_log(values: np.ndarray) -> np.ndarray:
    """sign(v) * log(1 + |v|), for conditioning wide-range phi values."""
    return np.sign(values) * np.log1p(np.abs(values))


def moment_zone_features(thinned: np.ndarray, log_scale: bool = False) -> np.ndarray:
    """Per 20x20 zone (3x3 row-major), seven Hu invariants: 63 values per image.

    Takes one (H, W) image, giving a (63,) vector, or an (N, H, W) stack,
    giving (N, 63). Zones use block-local coordinates; an empty zone
    contributes zeros. The zones of the whole stack are grouped by pixel
    count, and each group's central moments come from one set of array
    operations; normalization and the Hu polynomial then run per zone in
    Python floats, since numpy's ** differs from Python's in the last bit
    for some values.
    """
    h, w = thinned.shape[-2:]
    if h % MOMENT_ZONES or w % MOMENT_ZONES:
        raise ValueError(f"image {h}x{w} not divisible into {MOMENT_ZONES}x{MOMENT_ZONES} zones")
    bh, bw = h // MOMENT_ZONES, w // MOMENT_ZONES
    blocks = thinned.reshape(-1, MOMENT_ZONES, bh, MOMENT_ZONES, bw).swapaxes(2, 3).reshape(-1, bh, bw)
    counts = np.count_nonzero(blocks.reshape(len(blocks), bh * bw), axis=1)
    values = np.zeros((len(blocks), 7), dtype=np.float64)
    # np.bincount, not np.unique: np.unique imports numpy.ma, which costs peak RSS
    sizes = np.flatnonzero(np.bincount(counts))
    for n in sizes[sizes > 0]:
        zones = np.flatnonzero(counts == n)
        _, ys, xs = np.nonzero(blocks[zones])
        central = _central_sums(np.stack([xs, ys]).reshape(2, -1, n).astype(np.float64))
        values[zones] = [_hu(_normalized(dict(zip(_ORDERS, sums)))) for sums in zip(*central.values())]
    values = values.reshape(thinned.shape[:-2] + (MOMENT_DIM,))
    if log_scale:
        values = signed_log(values)
    return values
