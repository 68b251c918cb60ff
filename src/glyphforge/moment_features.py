"""Central / normalized central / Hu invariant moments, zoned 3x3 (63-d).

Moments are taken over pixel-center coordinates of foreground pixels
(f(x, y) = 1 on the skeleton, 0 elsewhere); x is the column, y the row.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGlyph, ExtractionError

MOMENT_ZONES = 3
MOMENT_DIM = MOMENT_ZONES * MOMENT_ZONES * 7

_ORDERS = [(p, q) for p in range(4) for q in range(4) if p + q <= 3]
# the p and the q of each order, which index the stacked powers of x and y
_P, _Q = (list(k) for k in zip(*_ORDERS))
# (p, q) and the exponent gamma = (p + q) / 2 + 1 of each normalized central moment
_GAMMAS = [((p, q), (p + q) / 2.0 + 1.0) for p, q in _ORDERS if p + q >= 2]
# the (p, q) of each row of _zone_central_sums: x**2, y**2, x**3, y**3, x*y, x*y**2, x**2*y
_ZONE_ORDERS = [(2, 0), (0, 2), (3, 0), (0, 3), (1, 1), (1, 2), (2, 1)]


@dataclass(frozen=True)
class MomentSet:
    """Raw, central and normalized central moments up to order 3."""

    raw: dict
    centroid: tuple
    central: dict
    normalized: dict


def _power_sums(xy: np.ndarray) -> dict:
    """{(p, q): sum of x**p * y**q} over _ORDERS, for the (2, n) x and y of n pixels, each power computed once.

    Each power is a product, [1, v, v*v, v*(v*v)]: an IEEE multiply rounds
    alike on every SIMD target, where numpy's v**3 does not. np.add.reduce
    gives each row of n the pairwise sum np.sum gives a 1-D array.
    """
    square = xy * xy
    powers = np.stack([np.ones_like(xy), xy, square, xy * square])
    sums = np.add.reduce(powers[_P, 0] * powers[_Q, 1], axis=-1)
    return dict(zip(_ORDERS, sums.tolist()))


def _central_sums(xy: np.ndarray) -> dict:
    """_power_sums about the centroid of the pixels.

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
    """phi1..phi7 of normalized central moments.

    The values of n are Python floats, or float64 arrays with one value per
    zone; numpy's arithmetic on arrays rounds as Python's does on floats, and
    each square is a product, so both give the same bits.
    """
    n20, n02, n11 = n[(2, 0)], n[(0, 2)], n[(1, 1)]
    n30, n03, n21, n12 = n[(3, 0)], n[(0, 3)], n[(2, 1)], n[(1, 2)]
    a = n30 + n12
    b = n21 + n03
    c = n30 - 3 * n12
    d = 3 * n21 - n03
    e = n20 - n02
    a2, b2 = a * a, b * b
    phi1 = n20 + n02
    phi2 = e * e + 4 * (n11 * n11)
    phi3 = c * c + d * d
    phi4 = a2 + b2
    phi5 = c * a * (a2 - 3 * b2) + d * b * (3 * a2 - b2)
    phi6 = e * (a2 - b2) + 4 * n11 * a * b
    phi7 = d * a * (a2 - 3 * b2) - c * b * (3 * a2 - b2)
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
    """sign(v) * log(1 + |v|), for conditioning wide-range phi values.

    Each log is math.log1p of one value: numpy's log1p rounds some values
    differently on its AVX-512 target.
    """
    logs = np.fromiter(map(math.log1p, np.abs(values).ravel().tolist()), np.float64, values.size)
    return np.sign(values) * logs.reshape(values.shape)


def _zone_central_sums(c: np.ndarray, counts: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """Central sums of orders p + q >= 2 (rows as _ZONE_ORDERS) of zones laid end to end, shape (7, zones).

    c holds the block-local x and y of each zone's pixels, the zones in
    ascending order of their pixel counts, and is centered in place; firsts
    indexes the first zone of each distinct count. The min and the sum of
    small integer coordinates are exact in any order, and each product is
    the numpy operation of _central_sums on the same values. Only each
    zone's sum depends on order: it runs once per distinct count n, over
    that count's (k, n) slab, which np.add.reduce sums per row as
    _central_sums sums a row of n.
    """
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    c -= np.repeat(np.minimum.reduceat(c, starts, axis=1), counts, axis=1)
    c -= np.repeat(np.add.reduceat(c, starts, axis=1) / counts, counts, axis=1)
    products = np.empty((7, c.shape[1]))
    np.multiply(c, c, out=products[0:2])  # c*c and c*(c*c), the products of _power_sums, written in place
    np.multiply(c, products[0:2], out=products[2:4])
    np.multiply(c[0], c[1], out=products[4])
    np.multiply(c[0], products[1], out=products[5])
    np.multiply(products[0], c[1], out=products[6])
    sums = np.empty((7, len(counts)))
    bounds = [*firsts.tolist(), len(counts)]
    for z, end, at, n in zip(bounds, bounds[1:], starts[firsts].tolist(), counts[firsts].tolist()):
        sums[:, z:end] = np.add.reduce(products[:, at : at + (end - z) * n].reshape(7, end - z, n), axis=-1)
    return sums


def moment_zone_features(thinned: np.ndarray, log_scale: bool = False) -> np.ndarray:
    """Per 20x20 zone (3x3 row-major), seven Hu invariants: 63 values per image.

    Takes one (H, W) image, giving a (63,) vector, or an (N, H, W) stack,
    giving (N, 63). Zones use block-local coordinates; an empty zone
    contributes zeros. The non-empty zones of the whole stack go through
    array arithmetic together, sorted by pixel count, and only each zone's
    order-sensitive sums run once per distinct count (_zone_central_sums);
    normalization and the Hu polynomial then run over arrays, so every
    value has the bits of hu_invariants of that zone's moments. A shape
    that does not divide into 3x3 zones is an ExtractionError.
    """
    h, w = thinned.shape[-2:]
    if h % MOMENT_ZONES or w % MOMENT_ZONES:
        raise ExtractionError(f"image {h}x{w} not divisible into {MOMENT_ZONES}x{MOMENT_ZONES} zones")
    bh, bw = h // MOMENT_ZONES, w // MOMENT_ZONES
    blocks = thinned.reshape(-1, MOMENT_ZONES, bh, MOMENT_ZONES, bw).swapaxes(2, 3).reshape(-1, bh, bw)
    counts = np.count_nonzero(blocks.reshape(len(blocks), bh * bw), axis=1)
    order = np.argsort(counts, kind="stable")
    order = order[np.searchsorted(counts[order], 1) :]
    values = np.zeros((len(blocks), 7), dtype=np.float64)
    if order.size:
        counts = counts[order]
        # block-local x and y of each pixel, zone by zone in row-major order, as np.nonzero of a zone gives them
        grid = np.indices((bh, bw), dtype=np.float64).reshape(2, -1)[::-1]
        xy = grid.take(np.flatnonzero(blocks[order]) % (bh * bw), axis=1)
        del blocks  # the chunk's copy of its zones, freed before the products are made
        firsts = np.flatnonzero(np.diff(counts, prepend=0))
        sums = _zone_central_sums(xy, counts, firsts)
        # c00 is exactly n, so c00**gamma runs in Python floats (libm pow) once per distinct count
        sizes, repeats = counts[firsts].tolist(), np.diff(firsts, append=len(counts))
        powers = {g: np.repeat([float(n) ** g for n in sizes], repeats) for g in (2.0, 2.5)}
        gammas = dict(_GAMMAS)
        normalized = {pq: sums[row] / powers[gammas[pq]] for row, pq in enumerate(_ZONE_ORDERS)}
        values[order] = np.stack(_hu(normalized), axis=1)
    values = values.reshape(thinned.shape[:-2] + (MOMENT_DIM,))
    if log_scale:
        values = signed_log(values)
    return values
