import os
import subprocess
import sys

import numpy as np
import pytest
from kernel_key import AVX512

from glyphforge import cli
from glyphforge import moment_features as mf
from glyphforge.errors import EmptyGlyph, ExtractionError


def brute_central_moment(img, p, q):
    """Literal double-loop oracle for the central moment summation."""
    m00 = m10 = m01 = 0.0
    h, w = img.shape
    for y in range(h):
        for x in range(w):
            f = 1.0 if img[y, x] else 0.0
            m00 += f
            m10 += x * f
            m01 += y * f
    cx, cy = m10 / m00, m01 / m00
    total = 0.0
    for y in range(h):
        for x in range(w):
            if img[y, x]:
                total += (x - cx) ** p * (y - cy) ** q
    return total


class TestComputeMoments:
    def test_single_pixel(self):
        img = np.zeros((9, 9), bool)
        img[4, 6] = True
        ms = mf.compute_moments(img)
        assert ms.central[(0, 0)] == 1.0
        for (p, q), mu in ms.central.items():
            if p + q >= 1:
                assert mu == pytest.approx(0.0, abs=1e-12)

    def test_two_diagonal_pixels(self):
        img = np.zeros((5, 5), bool)
        img[0, 0] = img[2, 2] = True
        ms = mf.compute_moments(img)
        assert ms.centroid == (1.0, 1.0)
        assert ms.central[(2, 0)] == pytest.approx(2.0)
        assert ms.central[(0, 2)] == pytest.approx(2.0)
        assert ms.central[(1, 1)] == pytest.approx(2.0)

    def test_translation_invariance_exact(self):
        rng = np.random.default_rng(31)
        patch = rng.random((6, 6)) < 0.5
        patch[0, 0] = True
        base = np.zeros((20, 20), bool)
        base[2:8, 3:9] = patch
        moved = np.zeros((20, 20), bool)
        moved[9:15, 10:16] = patch
        ms_a = mf.compute_moments(base)
        ms_b = mf.compute_moments(moved)
        for key in ms_a.central:
            assert ms_a.central[key] == pytest.approx(ms_b.central[key], abs=1e-9)

    def test_first_central_moments_vanish(self):
        rng = np.random.default_rng(32)
        img = rng.random((10, 10)) < 0.5
        img[5, 5] = True
        ms = mf.compute_moments(img)
        assert abs(ms.central[(1, 0)]) < 1e-9
        assert abs(ms.central[(0, 1)]) < 1e-9
        assert ms.central[(0, 0)] == ms.raw[(0, 0)]

    def test_normalized_definition(self):
        rng = np.random.default_rng(33)
        img = rng.random((12, 12)) < 0.4
        img[0, 0] = img[7, 9] = True
        ms = mf.compute_moments(img)
        for (p, q), eta in ms.normalized.items():
            gamma = (p + q) / 2 + 1
            assert eta == pytest.approx(ms.central[(p, q)] / ms.central[(0, 0)] ** gamma)

    def test_oracle_equivalence_random_patches(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            img = rng.random((8, 8)) < 0.5
            if not img.any():
                continue
            ms = mf.compute_moments(img)
            for (p, q), mu in ms.central.items():
                assert mu == pytest.approx(brute_central_moment(img, p, q), abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyGlyph):
            mf.compute_moments(np.zeros((4, 4), bool))


class TestHuInvariants:
    def test_single_pixel_all_zero(self):
        img = np.zeros((7, 7), bool)
        img[3, 3] = True
        assert np.allclose(mf.hu_from_image(img), 0.0)

    def test_solid_centered_square(self):
        img = np.zeros((20, 20), bool)
        img[5:15, 5:15] = True
        phi = mf.hu_from_image(img)
        assert phi[0] > 0
        assert np.all(np.abs(phi[1:]) < 1e-9)

    def test_lattice_rotation_invariance(self):
        rng = np.random.default_rng(35)
        img = rng.random((16, 16)) < 0.4
        img[3, 4] = True
        phi = mf.hu_from_image(img)
        for k in (1, 2, 3):
            rot = np.rot90(img, k)
            assert np.allclose(mf.hu_from_image(rot), phi, rtol=1e-6, atol=1e-15)

    def test_block_upscale_invariance(self):
        rng = np.random.default_rng(36)
        img = rng.random((12, 12)) < 0.45
        img[5, 5] = True
        ms = mf.compute_moments(img)
        phi = mf.hu_invariants(ms)
        for k in (2, 3):
            big = np.kron(img, np.ones((k, k), bool))
            ms_big = mf.compute_moments(big)
            for key in ms.normalized:
                assert ms_big.normalized[key] == pytest.approx(
                    ms.normalized[key], rel=1e-2, abs=1e-4
                )
            assert np.allclose(mf.hu_invariants(ms_big), phi, rtol=1e-2, atol=1e-6)

    def test_rasterized_45_degree_rotation(self):
        # large solid disc, rotated 45 degrees on the lattice
        n = 101
        yy, xx = np.mgrid[:n, :n]
        disc = (xx - 50) ** 2 + (yy - 50) ** 2 <= 35**2
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        rx = c * (xx - 50) - s * (yy - 50) + 50
        ry = s * (xx - 50) + c * (yy - 50) + 50
        rot = (rx - 50) ** 2 + (ry - 50) ** 2 <= 35**2
        phi_a, phi_b = mf.hu_from_image(disc), mf.hu_from_image(rot)
        assert phi_a[0] == pytest.approx(phi_b[0], rel=5e-2)


class TestMomentZoneFeatures:
    def test_empty_image(self):
        out = mf.moment_zone_features(np.zeros((60, 60), bool))
        assert out.shape == (63,)
        assert not out.any()

    def test_glyph_in_top_left_zone(self):
        img = np.zeros((60, 60), bool)
        img[2:12, 3:14] = np.random.default_rng(37).random((10, 11)) < 0.5
        img[5, 5] = True
        out = mf.moment_zone_features(img)
        assert np.array_equal(out[:7], mf.hu_from_image(img[:20, :20]))
        assert not out[7:].any()

    def test_full_square_corner_zones_match(self):
        img = np.ones((60, 60), bool)
        out = mf.moment_zone_features(img).reshape(9, 7)
        for corner in (2, 6, 8):
            assert np.allclose(out[corner], out[0], rtol=1e-12)

    def test_signed_log_flag(self):
        img = np.zeros((60, 60), bool)
        img[10:50, 10:50] = True
        raw = mf.moment_zone_features(img)
        logged = mf.moment_zone_features(img, log_scale=True)
        assert np.allclose(logged, np.sign(raw) * np.log1p(np.abs(raw)))

    @pytest.mark.parametrize("shape", [(61, 60), (60, 58), (2, 61, 60), (1, 1)], ids=str)
    def test_shape_not_divisible_into_zones_raises(self, shape):
        with pytest.raises(ExtractionError, match="not divisible into 3x3 zones"):
            mf.moment_zone_features(np.ones(shape, bool))


@pytest.mark.skipif(not AVX512, reason="numpy takes no AVX-512 target on this host")
def test_moment63_bytes_do_not_depend_on_simd_target(tmp_path):
    """extract moment63, raw and --log-moments, writes the same bytes in a child without numpy's AVX-512 kernels."""
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--classes", "4", "--per-class", "6", "--seed", "3", "--out", str(corpus)]) == 0
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    for flags in ([], ["--log-moments"]):
        argv = ["extract", "--corpus", str(corpus), "--extractor", "moment63", *flags, "--out"]
        here, child = tmp_path / "here.csv", tmp_path / "child.csv"
        assert cli.main([*argv, str(here)]) == 0
        command = [sys.executable, "-m", "glyphforge.cli", *argv, str(child)]
        subprocess.run(command, env=env, check=True, capture_output=True)
        assert child.read_bytes() == here.read_bytes(), flags
