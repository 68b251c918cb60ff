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


def _deletable(centre, ring, first_subiter: bool):
    """Zhang-Suen deletion mask of one sub-iteration, as bitwise logic on integer or bool arrays.

    ring is the eight neighbours P2..P9 (N, NE, E, SE, S, SW, W, NW), each
    array holding the same pixels' bits as centre. A bit is deletable when
    its centre is set, the ring has exactly one 0->1 transition (A == 1),
    some adjacent ring pair is both 1 and some is both 0 (with A == 1, that
    is 2 <= B <= 6), and the sub-iteration's two products are 0. No
    inversion is used, so bool arrays work as well as words.
    """
    n, ne, e, se, s, sw, w, nw = ring
    rises = twice = no_zero_pair = one_pair = None
    # each step takes the two adjacent ring pairs around q = NE, SE, SW or NW: every pair holds one such q
    for i in (0, 2, 4, 6):
        p, q, r = ring[i], ring[i + 1], ring[(i + 2) % 8]
        pq, qr = p | q, q | r
        step = (pq ^ p) | (qr ^ q)  # 0->1 transitions p->q, q->r: they never coincide, so | counts them
        both = (p | r) & q  # a pair both 1
        pq &= qr  # no pair both 0
        if rises is None:
            rises, twice, no_zero_pair, one_pair = step, np.zeros_like(step), pq, both
        else:
            twice |= rises & step
            rises |= step
            no_zero_pair &= pq
            one_pair |= both
    if first_subiter:
        product = e & s & (n | w)  # P2*P4*P6 or P4*P6*P8
    else:
        product = n & w & (e | s)  # P2*P4*P8 or P2*P6*P8
    keep = centre & rises
    keep &= one_pair
    veto = twice
    veto |= no_zero_pair
    veto |= product
    veto &= keep
    keep ^= veto
    return keep


def thin(binary: np.ndarray) -> np.ndarray:
    """Zhang-Suen iterative thinning to a one-pixel-wide skeleton.

    binary is one (H, W) image or an (N, H, W) stack, each image thinned on
    its own. The zero-padded stack is packed along the image axis, bit i of
    a pixel's bits holding image i, into one unsigned word per pixel of 8,
    16, 32 or 64 bits, or into several 64-bit words beyond 64 images. Each
    sub-iteration is then one pass of word-wide boolean logic over every
    image at once, until an iteration deletes nothing in any image.
    """
    binary = np.asarray(binary, dtype=bool)
    if binary.size == 0:
        return binary.copy()
    stack = _stack(binary)
    n, h, w = stack.shape
    # bytes per pixel: the narrowest word that holds n bits (a chunk of 32 runs ~30% faster on
    # 32-bit words than on 64-bit ones), or whole 64-bit words
    size = next((b for b in (1, 2, 4) if n <= 8 * b), 8 * -(-n // 64))
    bits = np.zeros((h + 2, w + 2, 8 * size), dtype=bool)
    bits[1:-1, 1:-1, :n] = stack.transpose(1, 2, 0)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    words = packed.view(f"u{min(size, 8)}")
    flat = words.reshape(-1)
    # every object bit lies inside its image's padding, so these flat offsets only ever reach its
    # eight neighbours; at a padding position the centre is 0 and nothing is deleted
    col, row = words.shape[-1], (w + 2) * words.shape[-1]
    lo, hi = row + col, flat.size - row - col
    mid = flat[lo:hi]
    ring = [flat[lo + d : hi + d] for d in (-row, col - row, col, row + col, row, row - col, -col, -row - col)]
    changed = True
    while changed:
        changed = False
        for first_subiter in (True, False):
            delete = _deletable(mid, ring, first_subiter)
            if delete.any():
                mid ^= delete
                changed = True
    unpacked = np.unpackbits(packed[1:-1, 1:-1].transpose(2, 0, 1), axis=0, count=n, bitorder="little")
    return unpacked.view(bool).reshape(binary.shape)


def find_contour(binary: np.ndarray) -> np.ndarray:
    """Object pixels with at least one 4-connected background neighbor.

    binary is one (H, W) image or an (N, H, W) stack, each image on its own.
    Out-of-bounds neighbors count as background, so border pixels of a
    solid shape are always contour points.
    """
    p = np.pad(binary, [(0, 0)] * (binary.ndim - 2) + [(1, 1)] * 2)  # False around each image
    n, s, e, w = p[..., :-2, 1:-1], p[..., 2:, 1:-1], p[..., 1:-1, 2:], p[..., 1:-1, :-2]
    return binary & ~(n & s & e & w)
