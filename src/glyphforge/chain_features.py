"""Freeman chain-code contour tracing and the 200-d zoned direction histogram.

Direction convention (y grows downward, screen coordinates):
    0=E, 1=NE, 2=N, 3=NW, 4=W, 5=SW, 6=S, 7=SE
so code k and code (k+4) % 8 are opposite moves.
"""

import array
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


@lru_cache(maxsize=None)
def _probes(width: int):
    """The first move's probe order for a zero-padded row length of width.

    A probe order is a list of (flat step, probe order after that step)
    pairs, probed in turn. The first move probes in minimum-code-first
    order; after a move of code k the clockwise sweep (descending code)
    starts one past its backtrack direction.
    """
    steps = [dx + dy * width for dx, dy in DIRECTIONS]
    after = [[] for _ in DIRECTIONS]
    for k, order in enumerate(after):
        first = (k + 3) % 8
        order.extend((steps[c], after[c]) for c in ((first - i) % 8 for i in range(8)))
    return [(steps[c], after[c]) for c in range(8)]


@lru_cache(maxsize=None)
def _step_codes(width: int) -> np.ndarray:
    """Direction code of each flat step d at index d + width + 2; -1 where d is no 8-neighbour step.

    The first and last entries are -1, so a lookup with mode="clip" gives
    -1 for every step longer than one row.
    """
    codes = np.full(2 * width + 5, -1, dtype=np.intp)
    for code, (dx, dy) in enumerate(DIRECTIONS):
        codes[dx + dy * width + width + 2] = code
    return codes


def _walk(contour: np.ndarray):
    """Every chain of a contour image or stack, in one flat walk over it zero-padded.

    Returns (path, ends): path is the flat index of each pixel in walk
    order, in the stack with a one-pixel zero border around each image,
    and chain j is path[ends[j - 1]:ends[j]]. Walks start at the
    topmost-then-leftmost unvisited contour pixel, image by image; the
    border keeps every step inside its own image.
    """
    stack = contour.reshape((-1,) + contour.shape[-2:]).astype(bool, copy=False)
    n, h, w = stack.shape
    unvisited = bytearray(n * (h + 2) * (w + 2))
    np.frombuffer(unvisited, dtype=np.uint8).reshape(n, h + 2, w + 2)[:, 1:-1, 1:-1] = stack
    first = _probes(w + 2)
    path, ends = array.array("q"), []  # array, not list: 8 bytes per pixel
    start = unvisited.find(1)
    while start >= 0:
        unvisited[start] = 0
        path.append(start)
        p, order = start, first
        while True:
            for step, after in order:
                if unvisited[p + step]:
                    break
            else:
                break
            p += step
            unvisited[p] = 0
            path.append(p)
            order = after
        ends.append(len(path))
        start = unvisited.find(1, start + 1)
    return np.frombuffer(path, dtype=np.int64), np.array(ends, dtype=np.int64)


def _clockwise_moves(contour: np.ndarray):
    """The walked chains of a contour image or stack as clockwise moves.

    Returns (origins, codes, starts, ends, ccw) over the walk's path: slot
    i of chain j (starts[j] <= i < ends[j]) is the move leaving path pixel
    i, and the last slot is the move closing the chain back to its start,
    or code -1 when the chain is open or one pixel. A closed chain whose
    shoelace area comes out counterclockwise (ccw[j]) has each move
    reversed, origin to destination and code k to (k + 4) % 8, so its
    moves in reverse slot order are the clockwise chain.
    """
    width = contour.shape[-1] + 2
    path, ends = _walk(contour)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1]
    dest = np.empty_like(path)
    dest[:-1] = path[1:]
    dest[ends - 1] = path[starts]
    codes = _step_codes(width).take(dest - path + width + 2, mode="clip")
    closed = codes[ends - 1] >= 0
    y0, x0 = np.divmod(path, width)
    y1, x1 = np.divmod(dest, width)
    cross = x0 * y1 - x1 * y0
    # twice the signed shoelace area of each chain's cycle, positive =
    # clockwise on screen; read for closed chains only
    area2 = np.add.reduceat(cross, starts) if path.size else cross
    ccw = closed & (area2 < 0)
    flip = np.repeat(ccw, ends - starts) & (codes >= 0)
    origins = np.where(flip, dest, path)
    codes[flip] ^= 4
    return origins, codes, starts, ends, ccw


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
    contour = np.asarray(contour_img)
    width = contour.shape[-1] + 2
    origins, codes, starts, ends, ccw = _clockwise_moves(contour)
    xy = [(i % width - 1, i // width - 1) for i in origins.tolist()]
    codes = codes.tolist()
    chains = []
    for s, e, reverse in zip(starts.tolist(), ends.tolist(), ccw.tolist()):
        if codes[e - 1] < 0:
            e -= 1  # open: the last pixel starts no move
        moves, move_origins = codes[s:e], xy[s:e]
        if reverse:
            moves.reverse()
            move_origins.reverse()
        start = move_origins[0] if move_origins else xy[s]  # a reversed chain still starts at its walk's start
        chains.append(ChainCode(start=start, moves=tuple(moves), move_origins=tuple(move_origins)))
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


@lru_cache(maxsize=None)
def _zone_of(height: int, width: int) -> np.ndarray:
    """Zone of each flat index of a zero-padded height x width image, as chain_histogram zones it.

    The zones split a height x height square, as chain_histogram does for
    image_size = height; padding and pixels right of the square are -1.
    """
    zone_px = height // CHAIN_ZONES
    rows = np.arange(height + 2) - 1
    cols = np.arange(width + 2) - 1
    zone = (rows[:, None] // zone_px) * CHAIN_ZONES + cols // zone_px
    inside = ((rows >= 0) & (rows < height))[:, None] & ((cols >= 0) & (cols < height))
    return np.where(inside, zone, -1).ravel()


def extract_chain_features(contour_img: np.ndarray, normalize: bool = False) -> np.ndarray:
    """chain_histogram(trace_contours(image), H, normalize) for an (H, W) image or each image of an (N, H, W) stack.

    Returns (200,) for an image and (N, 200) for a stack. One walk traces
    every image of the stack, and one bincount histograms all their moves.
    """
    contour = np.asarray(contour_img)
    height, width = contour.shape[-2:]
    if height % CHAIN_ZONES != 0:
        raise ExtractionError(f"image size {height} not divisible by {CHAIN_ZONES}")
    origins, codes, _, _, _ = _clockwise_moves(contour)
    moved = codes >= 0
    image, pos = np.divmod(origins[moved], (height + 2) * (width + 2))
    zones = _zone_of(height, width)[pos]
    if (zones < 0).any():
        y, x = divmod(int(pos[np.argmax(zones < 0)]), width + 2)
        raise ExtractionError(f"move origin {(x - 1, y - 1)} outside image")
    n = int(np.prod(contour.shape[:-2]))  # 1 for a single image
    hist = np.bincount(image * CHAIN_DIM + zones * 8 + codes[moved], minlength=n * CHAIN_DIM)
    hist = hist.astype(np.float64).reshape(n, CHAIN_DIM)
    if normalize:
        totals = hist.sum(axis=1, keepdims=True)
        np.divide(hist, totals, out=hist, where=totals > 0)
    return hist.reshape(contour.shape[:-2] + (CHAIN_DIM,))
