"""Freeman chain-code contour tracing and the 200-d zoned direction histogram.

Direction convention (y grows downward, screen coordinates):
    0=E, 1=NE, 2=N, 3=NW, 4=W, 5=SW, 6=S, 7=SE
so code k and code (k+4) % 8 are opposite moves.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ExtractionError

# (dx, dy) per direction code, y down
DIRECTIONS = (
    (1, 0), (1, -1), (0, -1), (-1, -1),
    (-1, 0), (-1, 1), (0, 1), (1, 1),
)

CHAIN_ZONES = 5
CHAIN_DIM = CHAIN_ZONES * CHAIN_ZONES * 8


@dataclass(frozen=True)
class ChainCode:
    """One traced contour: start pixel (col, row) plus its moves.

    move_origins[i] is the pixel move i departs from; replaying moves from
    start visits exactly the traced contour pixels.
    """

    start: tuple
    moves: tuple
    move_origins: tuple


def _cycle_area2(cycle) -> int:
    """Twice the shoelace area; positive = clockwise on screen (y down)."""
    area = 0
    n = len(cycle)
    for i in range(n):
        x0, y0 = cycle[i]
        x1, y1 = cycle[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    return area


@lru_cache(maxsize=None)
def _probes(width: int):
    """(code, flat step) probe orders for a zero-padded row length of width.

    Index 8 is the first move's order (minimum chain code first); index k
    is the clockwise sweep after a move of code k, starting one past its
    backtrack direction.
    """
    steps = [dx + dy * width for dx, dy in DIRECTIONS]
    sweeps = [[(first - i) % 8 for i in range(8)] for first in ((k + 3) % 8 for k in range(8))]
    return tuple(tuple((c, steps[c]) for c in order) for order in sweeps + [range(8)])


def trace_contours(contour_img: np.ndarray) -> list:
    """Trace every contour pixel into clockwise minimum-code-first chains.

    Walks start at the topmost-then-leftmost unvisited contour pixel; the
    first move takes the unvisited contour neighbor with the smallest
    direction code. Subsequent moves follow the clockwise border scan:
    neighbors are probed in clockwise rotation (descending code) starting
    just past the backtrack direction of the previous move. A walk that
    ends adjacent to its start is closed with the final move; closed walks
    that still come out counterclockwise (signed-area test) are reversed
    and their codes complemented so every emitted chain runs clockwise.
    """
    h, w = contour_img.shape
    width = w + 2
    padded = np.zeros((h + 2, width), dtype=np.uint8)
    padded[1:-1, 1:-1] = contour_img
    unvisited = bytearray(padded.tobytes())
    probes = _probes(width)
    closing = {step: code for code, step in probes[8]}
    chains = []
    # raster order: topmost, then leftmost
    for start in np.flatnonzero(padded).tolist():
        if not unvisited[start]:
            continue
        unvisited[start] = 0
        path = [start]
        codes = []
        p = start
        order = probes[8]
        while True:
            for code, step in order:
                if unvisited[p + step]:
                    break
            else:
                break
            p += step
            unvisited[p] = 0
            path.append(p)
            codes.append(code)
            order = probes[code]
        origins = [(i % width - 1, i // width - 1) for i in path]
        start_xy = origins[0]
        closing_code = closing.get(start - p) if len(path) > 1 else None
        if closing_code is None:
            origins.pop()
        else:
            codes.append(closing_code)
            if _cycle_area2(origins) < 0:
                origins[1:] = origins[:0:-1]
                codes = [(c + 4) % 8 for c in reversed(codes)]
        chains.append(ChainCode(start=start_xy, moves=tuple(codes), move_origins=tuple(origins)))
    return chains


def chain_histogram(
    chains, image_size: int = 60, normalize: bool = False
) -> np.ndarray:
    """Zoned 8-direction histogram: 5x5 zones (row-major) x 8 codes = 200.

    Each move increments bin (zone of its origin pixel, direction code).
    With normalize=True the histogram is divided by the total move count.
    """
    if image_size % CHAIN_ZONES != 0:
        raise ExtractionError(f"image size {image_size} not divisible by {CHAIN_ZONES}")
    zone_px = image_size // CHAIN_ZONES
    values = np.zeros(CHAIN_DIM, dtype=np.float64)
    for chain in chains:
        for code, (x, y) in zip(chain.moves, chain.move_origins):
            if not (0 <= x < image_size and 0 <= y < image_size):
                raise ExtractionError(f"move origin {(x, y)} outside image")
            zone = (y // zone_px) * CHAIN_ZONES + (x // zone_px)
            values[zone * 8 + code] += 1.0
    if normalize:
        total = values.sum()
        if total > 0:
            values /= total
    return values


def extract_chain_features(
    contour_img: np.ndarray, normalize: bool = False
) -> np.ndarray:
    """Trace a contour image and histogram it in one step."""
    size = contour_img.shape[0]
    return chain_histogram(trace_contours(contour_img), size, normalize=normalize)
