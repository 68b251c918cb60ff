"""Preprocessing: binarization, size normalization, thinning, contour detection.

Images are numpy arrays indexed [row, col]: grayscale as uint8 in [0, 255],
binary as bool with True = foreground (object).
"""

import numpy as np

from .errors import EmptyGlyph

CANONICAL_SIZE = 60
NO_FOREGROUND = "image has no foreground pixel"  # the EmptyGlyph of a uniform image


def _stack(images: np.ndarray) -> np.ndarray:
    """One (H, W) image or an (N, H, W) stack as an (N, H, W) stack."""
    return images.reshape((-1,) + images.shape[-2:])


def otsu_threshold(gray: np.ndarray):
    """Threshold maximizing between-class variance (first argmax wins).

    gray is one (H, W) image, which gives an int, or an (N, H, W) stack,
    which gives one threshold per image. The histograms of a stack are one
    bincount, each image's values offset by 256 times its index; they hold
    integers, so every threshold is the one its image gives alone.
    """
    gray = np.asarray(gray, dtype=np.uint8)
    stack = _stack(gray)
    n = len(stack)
    offset_values = stack.reshape(n, -1) + np.arange(0, 256 * n, 256)[:, None]
    hist = np.bincount(offset_values.ravel(), minlength=256 * n).reshape(n, 256).astype(np.float64)
    total = hist.sum(axis=1, keepdims=True)
    levels = np.arange(256, dtype=np.float64)
    w0 = np.cumsum(hist, axis=1)
    sum0 = np.cumsum(hist * levels, axis=1)
    mean_total = sum0[:, -1:]
    w1 = total - w0
    # between-class variance for thresholds t = 0..255 (class0 = values <= t)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = sum0 / w0
        mu1 = (mean_total - sum0) / w1
        var_b = w0 * w1 * (mu0 - mu1) ** 2
    var_b = np.nan_to_num(var_b, nan=0.0, posinf=0.0, neginf=0.0)
    thresholds = np.argmax(var_b, axis=1)
    return int(thresholds[0]) if gray.ndim == 2 else thresholds


def uniform(gray: np.ndarray) -> np.ndarray:
    """Per image of one (H, W) image or an (N, H, W) stack: True when all its pixels are one value.

    binarize finds no foreground in such an image. An image without pixels
    counts as uniform.
    """
    stack = _stack(np.asarray(gray, dtype=np.uint8))
    flat = stack.reshape(len(stack), -1)
    return (flat == flat[:, :1]).all(axis=1)


def binarize(gray: np.ndarray) -> np.ndarray:
    """Otsu binarization of one (H, W) image or of each image of an (N, H, W) stack.

    Pixels at or below the image's threshold are foreground. A uniform
    image is an EmptyGlyph.
    """
    gray = np.asarray(gray, dtype=np.uint8)
    stack = _stack(gray)
    if uniform(stack).any():
        raise EmptyGlyph(NO_FOREGROUND)
    thresholds = otsu_threshold(stack).astype(np.uint8)  # 0..255; an int64 one would widen every pixel
    return (stack <= thresholds[:, None, None]).reshape(gray.shape)


def normalize_size(binary: np.ndarray, size: int = CANONICAL_SIZE) -> np.ndarray:
    """Crop each image to its foreground bounding box and stretch it to size x size.

    binary is one (H, W) image or an (N, H, W) stack. Nearest-neighbor
    sampling keeps the image strictly binary. Aspect ratio is intentionally
    not preserved. An image without foreground is an EmptyGlyph.
    """
    binary = np.asarray(binary, dtype=bool)
    stack = _stack(binary)
    n, h, w = stack.shape
    rows, cols = stack.any(axis=2), stack.any(axis=1)
    if not rows.any(axis=1).all():
        raise EmptyGlyph(NO_FOREGROUND)
    # bounding box: the first and, from the far end, the last foreground row and column
    top, left = rows.argmax(axis=1), cols.argmax(axis=1)
    box_h = h - rows[:, ::-1].argmax(axis=1) - top
    box_w = w - cols[:, ::-1].argmax(axis=1) - left
    steps = np.arange(size)
    row_idx = top[:, None] + steps * box_h[:, None] // size
    col_idx = left[:, None] + steps * box_w[:, None] // size
    image = np.arange(n)[:, None]
    # each image's sampled rows, then the sampled columns of those rows: a (size, size) index
    # array per image would take ~4x the memory and ~1.5x the time on a chunk of 32 glyphs
    sampled = stack[image, row_idx].transpose(0, 2, 1)[image, col_idx].transpose(0, 2, 1)
    return sampled.reshape(binary.shape[:-2] + (size, size))


def _zhang_suen_lut(first_subiter: bool) -> np.ndarray:
    """Deletable flag of an object pixel for each 8-neighbour code.

    Bit i of the code is ring pixel P(i+2): N, NE, E, SE, S, SW, W, NW.
    """
    lut = np.zeros(256, dtype=np.uint8)
    for code in range(256):
        n, ne, e, se, s, sw, w, nw = ring = [(code >> i) & 1 for i in range(8)]
        b = sum(ring)
        # 0->1 transitions around the ring P2,P3,...,P9,P2
        a = sum((not ring[i]) and ring[(i + 1) % 8] for i in range(8))
        if first_subiter:
            cond = not (n and e and s) and not (e and s and w)
        else:
            cond = not (n and e and w) and not (n and s and w)
        lut[code] = 2 <= b <= 6 and a == 1 and cond
    return lut


def _code9_lut(ring_lut: np.ndarray) -> np.ndarray:
    """Deletable flag for each 9-bit code of a 3x3 neighbourhood, centre included.

    The code is t[p-1] | t[p] << 3 | t[p+1] << 6 over the column triples
    t = up | mid << 1 | down << 2, so its bits are NW, W, SW, N, centre, S,
    NE, E, SE. A background centre is never deletable; an object centre is
    deletable when ring_lut (bit i = ring pixel P(i+2)) says so.
    """
    code = np.arange(512)
    nw, w, sw, n, centre, s, ne, e, se = ((code >> i) & 1 for i in range(9))
    ring = n | ne << 1 | e << 2 | se << 3 | s << 4 | sw << 5 | w << 6 | nw << 7
    return (ring_lut[ring] & centre).astype(np.uint8)


_THIN_LUTS = tuple(_code9_lut(_zhang_suen_lut(first)) for first in (True, False))


def _thin_subiter(flat: np.ndarray, width: int, lut: np.ndarray) -> None:
    """One Zhang-Suen sub-iteration, in place, on a flat stack of zero-padded images.

    width is the padded row length. Every object pixel lies inside its own
    image's padding, so the flat offsets below only ever reach its eight
    neighbours; codes at padding positions have a background centre, which
    the table never deletes.
    """
    lo, hi = width + 1, flat.size - width - 1
    # column triples for positions lo - 1 .. hi, then the 9-bit code of lo .. hi - 1
    a, b = lo - 1, hi + 1
    triple = flat[a:b] << 1
    triple |= flat[a - width : b - width]
    triple |= flat[a + width : b + width] << 2
    code = triple[2:].astype(np.uint16)
    code <<= 3
    code |= triple[1:-1]
    code <<= 3
    code |= triple[:-2]
    # np.take: about half the time of lut[code] on a chunk of 32 images
    flat[lo:hi] ^= np.take(lut, code)


def thin(binary: np.ndarray) -> np.ndarray:
    """Zhang-Suen iterative thinning to a one-pixel-wide skeleton.

    binary is one (H, W) image or an (N, H, W) stack thinned image by image;
    an image leaves the working stack once an iteration deletes nothing.
    """
    binary = np.asarray(binary, dtype=bool)
    if binary.size == 0:
        return binary.copy()
    stack = _stack(binary)
    n, h, w = stack.shape
    padded = np.zeros((n, h + 2, w + 2), dtype=np.uint8)
    padded[:, 1:-1, 1:-1] = stack
    out = np.empty_like(stack)
    active = np.arange(n)
    while active.size:
        before = padded.copy()
        flat = padded.reshape(-1)
        for lut in _THIN_LUTS:
            _thin_subiter(flat, w + 2, lut)
        changed = (padded != before).reshape(active.size, -1).any(axis=1)
        done = ~changed
        out[active[done]] = padded[done, 1:-1, 1:-1]
        padded, active = padded[changed], active[changed]
    return out.reshape(binary.shape)


def find_contour(binary: np.ndarray) -> np.ndarray:
    """Object pixels with at least one 4-connected background neighbor.

    binary is one (H, W) image or an (N, H, W) stack, each image on its own.
    Out-of-bounds neighbors count as background, so border pixels of a
    solid shape are always contour points.
    """
    p = np.pad(binary, [(0, 0)] * (binary.ndim - 2) + [(1, 1)] * 2)  # False around each image
    n, s, e, w = p[..., :-2, 1:-1], p[..., 2:, 1:-1], p[..., 1:-1, 2:], p[..., 1:-1, :-2]
    return binary & ~(n & s & e & w)
