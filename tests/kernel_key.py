"""The key that trained bytes are pinned by: the OpenBLAS core and numpy's AVX-512 target.

Trained bytes move with the OpenBLAS kernel that runs the matmuls, and
with numpy's SIMD target, whose AVX-512 exp (the trainer's sigmoid) rounds
some values differently; feature bytes are the same on every target.
OPENBLAS_CORETYPE=Haswell forces a kernel, and
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" makes an AVX-512
host take numpy's other targets.
"""

import ctypes
import glob
import os

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

AVX512 = __cpu_features__.get("AVX512_SKX", False)


def openblas_core() -> str:
    """The core name of the OpenBLAS bundled in numpy's wheel, "unknown" when there is none."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so*")
    for path in sorted(glob.glob(libs)):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def kernel_key():
    """(OpenBLAS core name, numpy's AVX-512 target on or off)."""
    return openblas_core(), AVX512
