"""The fast ingest stages against the straightforward implementations they replaced.

thin, trace_contours and the moment features must give the same arrays,
chains and float bits as the per-image numpy thinning pass, the tuple-set
contour walk and the per-order np.sum moments below; the chain features of
a stack, the same bytes as chain_histogram's per-move loop over each image.
"""

import hashlib
import re
import shutil

import numpy as np
import pytest

from glyphforge import chain_features as cf
from glyphforge import cli, dataset_io, ensemble, pipeline
from glyphforge import image_prep as ip
from glyphforge import moment_features as mf
from glyphforge.errors import ExtractionError

# --- reference implementations ----------------------------------------------


def _neighbors(img):
    p = np.pad(img, 1, mode="constant", constant_values=False)
    return p[:-2, 1:-1], p[:-2, 2:], p[1:-1, 2:], p[2:, 2:], p[2:, 1:-1], p[2:, :-2], p[1:-1, :-2], p[:-2, :-2]


def _thin_pass(img, first_subiter):
    n, ne, e, se, s, sw, w, nw = ring = _neighbors(img)
    b = sum(x.astype(np.uint8) for x in ring)
    a = sum(((~ring[i]) & ring[(i + 1) % 8]).astype(np.uint8) for i in range(8))
    if first_subiter:
        cond = (~(n & e & s)) & (~(e & s & w))
    else:
        cond = (~(n & e & w)) & (~(n & s & w))
    deletable = img & (b >= 2) & (b <= 6) & (a == 1) & cond
    return img & ~deletable


def reference_thin(binary):
    img = binary.copy()
    while True:
        after = _thin_pass(_thin_pass(img, True), False)
        if np.array_equal(after, img):
            return after
        img = after


_DELTA_TO_CODE = {d: k for k, d in enumerate(cf.DIRECTIONS)}


def _cycle_area2(cycle):
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(cycle, cycle[1:] + cycle[:1]))


def _chain_from_cycle(cycle, closed):
    last = len(cycle) if closed else len(cycle) - 1
    moves, origins = [], []
    for i in range(last):
        p, q = cycle[i], cycle[(i + 1) % len(cycle)]
        moves.append(_DELTA_TO_CODE[(q[0] - p[0], q[1] - p[1])])
        origins.append(p)
    return cf.ChainCode(start=cycle[0], moves=tuple(moves), move_origins=tuple(origins))


def reference_trace_contours(contour_img):
    ys, xs = np.nonzero(contour_img)
    pixels = set(zip(xs.tolist(), ys.tolist()))
    visited = set()
    chains = []
    for start in sorted(pixels, key=lambda p: (p[1], p[0])):
        if start in visited:
            continue
        path = [start]
        visited.add(start)
        prev_code = None
        while True:
            p = path[-1]
            if prev_code is None:
                probe = range(8)
            else:
                first = (prev_code + 3) % 8
                probe = [(first - i) % 8 for i in range(8)]
            best = None
            for code in probe:
                dx, dy = cf.DIRECTIONS[code]
                q = (p[0] + dx, p[1] + dy)
                if q in pixels and q not in visited:
                    best, prev_code = q, code
                    break
            if best is None:
                break
            visited.add(best)
            path.append(best)
        closed = len(path) > 1 and (start[0] - path[-1][0], start[1] - path[-1][1]) in _DELTA_TO_CODE
        if closed and _cycle_area2(path) < 0:
            path = [path[0]] + path[:0:-1]
        chains.append(_chain_from_cycle(path, closed))
    return chains


def reference_compute_moments(img):
    ys, xs = np.nonzero(img)
    x = xs.astype(np.float64)
    y = ys.astype(np.float64)
    orders = [(p, q) for p in range(4) for q in range(4) if p + q <= 3]
    raw = {(p, q): float(np.sum(x**p * y**q)) for p, q in orders}
    xl = x - xs.min()
    yl = y - ys.min()
    dx = xl - xl.sum() / raw[(0, 0)]
    dy = yl - yl.sum() / raw[(0, 0)]
    central = {(p, q): float(np.sum(dx**p * dy**q)) for p, q in orders}
    normalized = {
        (p, q): central[(p, q)] / central[(0, 0)] ** ((p + q) / 2.0 + 1.0)
        for p, q in orders
        if p + q >= 2
    }
    return raw, central, normalized


def reference_moment_zone_features(thinned, log_scale=False):
    bh, bw = thinned.shape[0] // 3, thinned.shape[1] // 3
    parts = []
    for zr in range(3):
        for zc in range(3):
            block = thinned[zr * bh : (zr + 1) * bh, zc * bw : (zc + 1) * bw]
            if not block.any():
                parts.append(np.zeros(7))
                continue
            _, central, normalized = reference_compute_moments(block)
            parts.append(mf.hu_invariants(mf.MomentSet({}, (0.0, 0.0), central, normalized)))
    values = np.concatenate(parts)
    return mf.signed_log(values) if log_scale else values


# --- inputs --------------------------------------------------------------------


def random_images(shape, seed):
    """Random blobs of three densities, an empty and a full image, a frame and a blob on the top border."""
    rng = np.random.default_rng(seed)
    images = [rng.random(shape) < density for density in (0.15, 0.45, 0.7)]
    frame = np.zeros(shape, bool)
    frame[0, :] = frame[-1, :] = frame[:, 0] = frame[:, -1] = True
    blob = rng.random(shape) < 0.6
    blob[0, :] = True  # touches the top border
    return images + [np.zeros(shape, bool), np.ones(shape, bool), frame, blob]


SHAPES = [(60, 60), (17, 41), (41, 17), (1, 23), (23, 1), (1, 1), (2, 9), (5, 5)]
ZONE_SHAPES = [(60, 60), (27, 45), (3, 30), (30, 3), (3, 3)]


# --- thinning ------------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_thin_single_images_match_reference(shape):
    for img in random_images(shape, seed=sum(shape)):
        assert np.array_equal(ip.thin(img), reference_thin(img))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_thin_stack_matches_reference_per_image(shape):
    # empty, full and one-pixel images converge after one iteration, blobs take several
    stack = np.stack(random_images(shape, seed=7 * sum(shape)))
    single = np.zeros(shape, bool)
    single[shape[0] // 2, shape[1] // 2] = True
    stack = np.concatenate([stack, single[None]])
    thinned = ip.thin(stack)
    assert thinned.shape == stack.shape and thinned.dtype == bool
    for img, out in zip(stack, thinned):
        assert np.array_equal(out, reference_thin(img))


def test_thin_glyph_stack_matches_reference():
    scaled = [ip.normalize_size(ip.binarize(s.image)) for s in dataset_io.synth_corpus(4, 10, seed=3)]
    thinned = ip.thin(np.stack(scaled))
    assert all(np.array_equal(out, reference_thin(img)) for img, out in zip(scaled, thinned))


def test_thin_leaves_input_unchanged():
    img = np.ones((6, 8), bool)
    ip.thin(img)
    assert img.all()


@pytest.mark.parametrize("first_subiter", [True, False])
def test_thin_table_matches_ring_definition(first_subiter):
    """Every 9-bit code: bits NW, W, SW, N, centre, S, NE, E, SE."""
    table = ip._THIN_LUTS[0 if first_subiter else 1]
    assert table.shape == (512,)
    for code in range(512):
        nw, w, sw, n, centre, s, ne, e, se = [(code >> i) & 1 for i in range(9)]
        ring = [n, ne, e, se, s, sw, w, nw]  # P2..P9
        b = sum(ring)
        a = sum(1 for i in range(8) if not ring[i] and ring[(i + 1) % 8])
        if first_subiter:
            cond = not (n and e and s) and not (e and s and w)
        else:
            cond = not (n and e and w) and not (n and s and w)
        assert table[code] == bool(centre and 2 <= b <= 6 and a == 1 and cond), code


# --- contour tracing -------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_trace_contours_matches_reference(shape):
    images = random_images(shape, seed=3 * sum(shape))
    for img, stacked in zip(images, ip.find_contour(np.stack(images))):
        assert np.array_equal(stacked, ip.find_contour(img))  # a stack's contours are its images' contours
        for contour in (img, stacked):
            assert cf.trace_contours(contour) == reference_trace_contours(contour)


def test_trace_contours_counterclockwise_cycle_is_reversed():
    # the first move from (1, 0) is SW (code 5), so the walk comes out counterclockwise
    img = np.zeros((5, 5), bool)
    img[0, 1] = img[1, 0] = img[2, 1] = img[1, 2] = True
    (chain,) = cf.trace_contours(img)
    assert chain == reference_trace_contours(img)[0]
    assert _cycle_area2(list(chain.move_origins)) > 0


def chain_inputs(shape, seed):
    """Contour images: random_images and their contours, one pixel, an open chain and scattered dots.

    Their chain counts differ: none (empty), one (a frame), and many.
    """
    h, w = shape
    images = random_images(shape, seed)
    single = np.zeros(shape, bool)
    single[h // 2, w // 2] = True
    line = np.zeros(shape, bool)  # an open chain: its last pixel is not next to its first
    line[h // 2, : min(w, h) // 2 + 1] = True
    line[: h // 2, 0] = True
    dots = np.zeros(shape, bool)
    dots[::2, : min(w, h) : 3] = True
    return images + [ip.find_contour(img) for img in images] + [single, line, dots]


@pytest.mark.parametrize("shape", [(60, 60), (35, 20), (5, 5), (10, 3), (5, 1)], ids=str)
@pytest.mark.parametrize("normalize", [False, True])
def test_chain_features_stack_bytes_match_per_image_histogram(shape, normalize):
    stack = np.stack(chain_inputs(shape, seed=17 * sum(shape)))
    counts = [len(cf.trace_contours(img)) for img in stack]
    assert 0 in counts and 1 in counts and max(counts) > 2
    want = [cf.chain_histogram(cf.trace_contours(img), shape[0], normalize=normalize) for img in stack]
    got = cf.extract_chain_features(stack, normalize=normalize)
    assert got.shape == (len(stack), cf.CHAIN_DIM)
    assert got.tobytes() == np.stack(want).tobytes()
    for img, row in zip(stack, want):  # N=1 and a single image
        assert cf.extract_chain_features(img[None], normalize=normalize).tobytes() == row.tobytes()
        assert cf.extract_chain_features(img, normalize=normalize).tobytes() == row.tobytes()


def test_chain_features_glyph_stack_matches_per_image_histogram():
    scaled = [ip.normalize_size(ip.binarize(s.image)) for s in dataset_io.synth_corpus(4, 10, seed=3)]
    contours = [ip.find_contour(img) for img in scaled]
    want = np.stack([cf.chain_histogram(cf.trace_contours(c)) for c in contours])
    assert cf.extract_chain_features(np.stack(contours)).tobytes() == want.tobytes()


def test_chain_features_stack_errors_match_per_image_histogram():
    wide = np.zeros((2, 10, 15), bool)
    wide[1, 4, 11:13] = True  # moves from x = 11 and 12, right of the 10 x 10 zone square
    with pytest.raises(ExtractionError, match=re.escape("move origin (11, 4) outside image")):
        cf.chain_histogram(cf.trace_contours(wide[1]), 10)
    with pytest.raises(ExtractionError, match=re.escape("move origin (11, 4) outside image")):
        cf.extract_chain_features(wide)
    with pytest.raises(ExtractionError, match="not divisible"):
        cf.extract_chain_features(np.zeros((3, 12, 12), bool))
    assert cf.extract_chain_features(np.zeros((0, 60, 60), bool)).shape == (0, cf.CHAIN_DIM)


# --- moments --------------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_compute_moments_matches_reference(shape):
    for img in random_images(shape, seed=5 * sum(shape)):
        if not img.any():
            continue
        ms = mf.compute_moments(img)
        assert (ms.raw, ms.central, ms.normalized) == reference_compute_moments(img)


@pytest.mark.parametrize("shape", ZONE_SHAPES, ids=str)
@pytest.mark.parametrize("log_scale", [False, True])
def test_moment_zone_features_bytes_match_reference(shape, log_scale):
    for img in random_images(shape, seed=11 * sum(shape)):
        for thinned in (img, ip.thin(img)):
            got = mf.moment_zone_features(thinned, log_scale=log_scale)
            assert got.tobytes() == reference_moment_zone_features(thinned, log_scale).tobytes()


def zone_counts(stack):
    """Foreground pixels of each of the 3x3 zones of each image, shape (N, 9)."""
    n, h, w = stack.shape
    return np.count_nonzero(stack.reshape(n, 3, h // 3, 3, w // 3), axis=(2, 4)).reshape(n, 9)


def shared_count_stack(shape, seed):
    """random_images, sparse images, and the sparse images with each zone's pixels shuffled in place.

    A shuffled copy has the zone pixel counts of its original, so zones of
    different images fall into the same count group.
    """
    rng = np.random.default_rng(seed)
    h, w = shape
    sparse = rng.random((4, h, w)) < 0.03
    zones = sparse.reshape(4, 3, h // 3, 3, w // 3).swapaxes(2, 3).reshape(4, 9, -1)
    shuffled = rng.permuted(zones, axis=2).reshape(4, 3, 3, h // 3, w // 3).swapaxes(2, 3).reshape(4, h, w)
    return np.concatenate([np.stack(random_images(shape, seed)), sparse, shuffled])


@pytest.mark.parametrize("shape", ZONE_SHAPES, ids=str)
@pytest.mark.parametrize("log_scale", [False, True])
def test_moment_zone_features_stack_bytes_match_reference(shape, log_scale):
    stack = shared_count_stack(shape, seed=13 * sum(shape))
    counts = zone_counts(stack)
    assert (counts == 0).any() and (counts == shape[0] * shape[1] // 9).any()  # empty and full zones
    per_image = [set(c) - {0} for c in counts]
    assert any(a & b for i, a in enumerate(per_image) for b in per_image[i + 1 :])
    want = np.stack([reference_moment_zone_features(img, log_scale) for img in stack])
    got = mf.moment_zone_features(stack, log_scale=log_scale)
    assert got.shape == (len(stack), 63)
    assert got.tobytes() == want.tobytes()
    for img, row in zip(stack, want):  # N=1 and a single image
        assert mf.moment_zone_features(img[None], log_scale=log_scale).tobytes() == row.tobytes()
        assert mf.moment_zone_features(img, log_scale=log_scale).tobytes() == row.tobytes()


def test_moment_zone_features_glyph_stack_matches_reference():
    scaled = [ip.normalize_size(ip.binarize(s.image)) for s in dataset_io.synth_corpus(4, 10, seed=3)]
    thinned = ip.thin(np.stack(scaled))
    want = np.stack([reference_moment_zone_features(img) for img in thinned])
    assert mf.moment_zone_features(thinned).tobytes() == want.tobytes()


def test_moment_zone_features_empty_stack():
    assert mf.moment_zone_features(np.zeros((0, 60, 60), bool)).shape == (0, 63)


# --- end to end ------------------------------------------------------------------

# SHA-256 of the feature CSVs of `synth --classes 4 --per-class 6 --seed 3`:
# the unflagged ones taken from the per-image thinning, tuple-set tracing and
# np.sum moments, the flagged ones from the per-move chain histogram loop and
# the 8-neighbour thinning table
GOLDEN_SHA256 = {
    ("chain200",): "42491b85e3c7bf2693922db42a22860e7553ae0db965e179aa71efe9b0151454",
    ("moment63",): "998a98720ecf6e1643b9f30880ce847db1c16d6a6c6195b3caa0a69efd5e1de4",
    ("chain200", "--normalize"): "913d3521880f7c65f0ad154310ee365da715d9d44c5dcc23230e0e44a8353118",
    ("moment63", "--log-moments"): "60d542575ebe53ce3894419548605580e88900abfa444e4af6bb370b3f7dfd03",
}


def test_extract_golden_bytes(tmp_path):
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--classes", "4", "--per-class", "6", "--seed", "3", "--out", str(corpus)]) == 0
    for (extractor, *flags), digest in GOLDEN_SHA256.items():
        out = tmp_path / f"{extractor}.csv"
        assert cli.main(["extract", "--corpus", str(corpus), "--extractor", extractor, "--out", str(out), *flags]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_predict_dir_chunks_print_the_lines_of_predict_image(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--classes", "3", "--per-class", "12", "--seed", "8", "--out", str(corpus)]) == 0
    tables = []
    for extractor in ("chain200", "moment63"):
        tables.append(tmp_path / f"{extractor}.csv")
        assert cli.main(["extract", "--corpus", str(corpus), "--extractor", extractor, "--out", str(tables[-1])]) == 0
    model = tmp_path / "ens.glyph"
    assert cli.main([
        "train", "--features", str(tables[0]), "--features2", str(tables[1]), "--epochs", "5", "--out", str(model),
    ]) == 0
    images = tmp_path / "images"
    images.mkdir()
    for path in sorted(corpus.glob("*/*.pgm")):
        shutil.copyfile(path, images / f"{path.parent.name}_{path.name}")
    paths = sorted(images.iterdir())
    assert len(paths) == 36 and pipeline.CHUNK_SIZE == 32
    # sorts before c01_s000.pgm, in the middle of the first chunk, which then keeps one row fewer than it read
    blank = images / "c01_blank.pgm"
    dataset_io.write_pgm(blank, np.full((64, 64), 255, dtype=np.uint8))
    assert sorted(images.iterdir()).index(blank) == 12
    scored = []
    scores = ensemble.EnsembleModel.scores
    monkeypatch.setattr(ensemble.EnsembleModel, "scores", lambda self, m: scored.append(len(m[0])) or scores(self, m))
    capsys.readouterr()
    with pytest.warns(UserWarning, match=re.escape(f"skipping {blank}: image has no foreground pixel")):
        assert cli.main(["predict", "--model", str(model), "--dir", str(images), "-k", "3"]) == 0
    chunked = capsys.readouterr().out
    # one scores call per chunk: 31 kept of the first 32 images read, then the last 5
    assert scored == [31, 5]
    single = []
    for path in paths:
        assert cli.main(["predict", "--model", str(model), "--image", str(path), "-k", "3"]) == 0
        single.append(capsys.readouterr().out)
    assert chunked == "".join(single)
    assert len(chunked.splitlines()) == len(paths)
