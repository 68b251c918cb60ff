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


@dataclass(frozen=True)
class MomentSet:
    """Raw, central and normalized central moments up to order 3."""

    raw: dict
    centroid: tuple
    central: dict
    normalized: dict


def _power_sums(u: np.ndarray, v: np.ndarray) -> dict:
    """{(p, q): sum of u**p * v**q} over _ORDERS, each power computed once.

    np.add.reduce on a 1-D array is the pairwise sum np.sum does, so the
    values are the same bits as np.sum(u**p * v**q).
    """
    up = [u**p for p in range(4)]
    vq = [v**q for q in range(4)]
    return {(p, q): float(np.add.reduce(up[p] * vq[q])) for p, q in _ORDERS}


def compute_moments(img: np.ndarray) -> MomentSet:
    ys, xs = np.nonzero(img)
    if xs.size == 0:
        raise EmptyGlyph("moments undefined for an image with no foreground")
    x = xs.astype(np.float64)
    y = ys.astype(np.float64)
    raw = _power_sums(x, y)
    cx = raw[(1, 0)] / raw[(0, 0)]
    cy = raw[(0, 1)] / raw[(0, 0)]
    # central moments are computed in bounding-box-local coordinates so a
    # translated copy of a shape yields bit-identical values
    xl = x - xs.min()
    yl = y - ys.min()
    dx = xl - xl.sum() / raw[(0, 0)]
    dy = yl - yl.sum() / raw[(0, 0)]
    central = _power_sums(dx, dy)
    normalized = {}
    for p, q in _ORDERS:
        if p + q >= 2:
            gamma = (p + q) / 2.0 + 1.0
            normalized[(p, q)] = central[(p, q)] / central[(0, 0)] ** gamma
    return MomentSet(raw=raw, centroid=(cx, cy), central=central, normalized=normalized)


def hu_invariants(ms: MomentSet) -> np.ndarray:
    """The seven translation/scale/rotation invariants phi1..phi7."""
    n = ms.normalized
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
    return np.array([phi1, phi2, phi3, phi4, phi5, phi6, phi7], dtype=np.float64)


def hu_from_image(img: np.ndarray) -> np.ndarray:
    """Hu invariants of one binary image; empty image yields seven zeros."""
    if not img.any():
        return np.zeros(7, dtype=np.float64)
    return hu_invariants(compute_moments(img))


def signed_log(values: np.ndarray) -> np.ndarray:
    """sign(v) * log(1 + |v|), for conditioning wide-range phi values."""
    return np.sign(values) * np.log1p(np.abs(values))


def moment_zone_features(thinned: np.ndarray, log_scale: bool = False) -> np.ndarray:
    """63-d vector: per 20x20 zone (3x3 row-major), seven Hu invariants.

    Zones use block-local coordinates; an empty zone contributes zeros.
    """
    h, w = thinned.shape
    if h % MOMENT_ZONES or w % MOMENT_ZONES:
        raise ValueError(f"image {h}x{w} not divisible into {MOMENT_ZONES}x{MOMENT_ZONES} zones")
    bh, bw = h // MOMENT_ZONES, w // MOMENT_ZONES
    parts = []
    for zr in range(MOMENT_ZONES):
        for zc in range(MOMENT_ZONES):
            block = thinned[zr * bh : (zr + 1) * bh, zc * bw : (zc + 1) * bw]
            parts.append(hu_from_image(block))
    values = np.concatenate(parts)
    if log_scale:
        values = signed_log(values)
    return values
