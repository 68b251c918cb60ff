import numpy as np
import pytest

from glyphforge import image_prep as ip
from glyphforge.errors import EmptyGlyph


def brute_otsu(gray):
    """Independent oracle: scan all 256 thresholds for max between-class variance."""
    values = gray.ravel().astype(np.float64)
    best_t, best_var = 0, -1.0
    for t in range(256):
        c0 = values[values <= t]
        c1 = values[values > t]
        if len(c0) == 0 or len(c1) == 0:
            var = 0.0
        else:
            w0, w1 = len(c0), len(c1)
            var = w0 * w1 * (c0.mean() - c1.mean()) ** 2
        if var > best_var:
            best_var, best_t = var, t
    return best_t


class TestBinarize:
    def test_uniform_image_all_background(self):
        with pytest.raises(EmptyGlyph, match="no foreground pixel"):
            ip.binarize(np.full((5, 5), 255, np.uint8))

    def test_two_level_image(self):
        gray = np.full((10, 10), 200, np.uint8)
        gray[:5] = 50
        t = ip.otsu_threshold(gray)
        assert t == brute_otsu(gray)
        assert 50 <= t < 200
        out = ip.binarize(gray)
        assert out[:5].all() and not out[5:].any()

    def test_extreme_bimodal(self):
        gray = np.where(np.arange(16).reshape(4, 4) % 3 == 0, 0, 255).astype(np.uint8)
        out = ip.binarize(gray)
        assert np.array_equal(out, gray == 0)

    def test_matches_brute_force_on_random_images(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gray = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
            if gray.min() == gray.max():
                continue
            assert ip.otsu_threshold(gray) == brute_otsu(gray)

    def test_idempotent_on_binary_input(self):
        rng = np.random.default_rng(4)
        binary = rng.random((9, 9)) < 0.4
        binary[0, 0] = True
        binary[1, 1] = False
        gray = np.where(binary, 0, 255).astype(np.uint8)
        assert np.array_equal(ip.binarize(gray), binary)


class TestNormalizeSize:
    def test_output_is_60x60(self):
        img = np.zeros((17, 31), bool)
        img[3:9, 4:20] = True
        out = ip.normalize_size(img)
        assert out.shape == (60, 60)
        assert out.any()

    def test_single_pixel_stretches_to_full(self):
        img = np.zeros((8, 8), bool)
        img[5, 2] = True
        assert ip.normalize_size(img).all()

    def test_centered_square_downscale(self):
        img = np.zeros((120, 120), bool)
        img[30:90, 30:90] = True
        assert ip.normalize_size(img).all()

    def test_empty_raises(self):
        with pytest.raises(EmptyGlyph):
            ip.normalize_size(np.zeros((6, 6), bool))


def reference_zhang_suen(img):
    """Literal per-pixel Zhang-Suen oracle (slow double loop)."""
    img = img.copy()
    def neighbors(a, y, x):
        h, w = a.shape
        def at(r, c):
            return bool(a[r, c]) if 0 <= r < h and 0 <= c < w else False
        return [at(y - 1, x), at(y - 1, x + 1), at(y, x + 1), at(y + 1, x + 1),
                at(y + 1, x), at(y + 1, x - 1), at(y, x - 1), at(y - 1, x - 1)]
    while True:
        changed = False
        for step in (0, 1):
            to_del = []
            for y in range(img.shape[0]):
                for x in range(img.shape[1]):
                    if not img[y, x]:
                        continue
                    p = neighbors(img, y, x)
                    b = sum(p)
                    a = sum((not p[i]) and p[(i + 1) % 8] for i in range(8))
                    p2, p4, p6, p8 = p[0], p[2], p[4], p[6]
                    if step == 0:
                        cond = (not (p2 and p4 and p6)) and (not (p4 and p6 and p8))
                    else:
                        cond = (not (p2 and p4 and p8)) and (not (p2 and p6 and p8))
                    if 2 <= b <= 6 and a == 1 and cond:
                        to_del.append((y, x))
            for y, x in to_del:
                img[y, x] = False
            changed = changed or bool(to_del)
        if not changed:
            return img


class TestThin:
    def test_empty_stays_empty(self):
        out = ip.thin(np.zeros((5, 5), bool))
        assert not out.any()

    def test_single_pixel_survives(self):
        img = np.zeros((5, 5), bool)
        img[2, 3] = True
        assert np.array_equal(ip.thin(img), img)

    def test_horizontal_bar_collapses_to_midline_run(self):
        img = np.zeros((9, 19), bool)
        img[3:6, 2:17] = True  # 3x15 bar
        out = ip.thin(img)
        assert np.array_equal(out, reference_zhang_suen(img))
        assert (out <= img).all()
        rows = np.flatnonzero(out.any(axis=1))
        assert len(rows) == 1 and rows[0] in (3, 4, 5)

    def test_matches_reference_on_random_blobs(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            img = rng.random((14, 14)) < 0.55
            assert np.array_equal(ip.thin(img), reference_zhang_suen(img))

    def test_subset_and_idempotent(self):
        rng = np.random.default_rng(12)
        img = rng.random((20, 20)) < 0.6
        out = ip.thin(img)
        assert (out <= img).all()
        assert np.array_equal(ip.thin(out), out)


class TestFindContour:
    def test_single_pixel_is_contour(self):
        img = np.zeros((3, 3), bool)
        img[1, 1] = True
        assert np.array_equal(ip.find_contour(img), img)

    def test_3x3_square(self):
        img = np.zeros((5, 5), bool)
        img[1:4, 1:4] = True
        out = ip.find_contour(img)
        assert out.sum() == 8
        assert not out[2, 2]

    def test_5x5_square(self):
        img = np.zeros((9, 9), bool)
        img[2:7, 2:7] = True
        out = ip.find_contour(img)
        # brute-force 4-neighbor enumeration
        expected = np.zeros_like(img)
        for y in range(9):
            for x in range(9):
                if not img[y, x]:
                    continue
                for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    ny, nx = y + dy, x + dx
                    if not (0 <= ny < 9 and 0 <= nx < 9) or not img[ny, nx]:
                        expected[y, x] = True
        assert np.array_equal(out, expected)
        assert out.sum() == 16

    def test_rectangle_perimeter_count(self):
        for h, w in ((3, 7), (4, 4), (5, 12)):
            img = np.zeros((h + 4, w + 4), bool)
            img[2 : 2 + h, 2 : 2 + w] = True
            assert ip.find_contour(img).sum() == 2 * (h + w) - 4

    def test_subset_of_input(self):
        rng = np.random.default_rng(13)
        img = rng.random((15, 15)) < 0.5
        assert (ip.find_contour(img) <= img).all()
