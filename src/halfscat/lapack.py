"""The BLAS that does the package's arithmetic: LAPACK's zgetrf and zgetrs
for LU factorization and solves, and the size of its thread pool.

The routines are called through ctypes from the OpenBLAS that numpy's wheel
already maps into the process, an ILP64 build whose symbols carry a
``scipy_`` prefix and a ``64_`` suffix, so a solve imports nothing beyond
numpy.  Where numpy's BLAS exports neither ``scipy_zgetrf_64_`` nor
``zgetrf_64_`` (a distro or MKL build), the same routines run through
``scipy.linalg.lapack``, imported on first use, in the OpenBLAS scipy loads.
Either way the pivots are LAPACK's: 1-based int64 row interchanges.  Only
``pin_one_thread`` changes a pool.

OpenBLAS maps a work buffer at the process's first LU and calls ``exit``
when that mapping fails, so no Python handler sees it.  ``work_buffer_mb``
says how much that first LU maps and ``map_work_buffer`` runs it on a 1 x 1
matrix, for a caller that has checked the room.
"""

from __future__ import annotations

import ctypes
import functools
import sys

import numpy as np

_INT = ctypes.c_int64  # the library is ILP64
_INT_P = ctypes.POINTER(_INT)
_TRANS = (b"N", b"T", b"C")  # trans 0, 1, 2 as scipy numbers them
# thread-count setters of the OpenBLAS builds the numpy and scipy wheels ship
# (which prefix and suffix the symbols) and of a plain OpenBLAS
_SET_THREADS = [f"{prefix}openblas_set_num_threads{suffix}"
                for prefix in ("scipy_", "") for suffix in ("64_", "")]
# VmSize growth at the first zgetrf of a process, whatever its size (numpy
# 2.4.6's OpenBLAS 0.3.31, one thread)
_WORK_BUFFER_MB = 32.0
_factored = False  # whether this process has run an LU


@functools.cache
def _numpy_blas():
    """numpy's extension module, opened so that its symbol lookups resolve
    through its dependency on the BLAS it loaded; None where it cannot be."""
    try:
        return ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None


@functools.cache
def _routines():
    """(zgetrf, zgetrs) of numpy's LAPACK, or None where it cannot be opened
    or exports neither name."""
    lib = _numpy_blas()
    for prefix in ("scipy_", ""):
        getrf = getattr(lib, f"{prefix}zgetrf_64_", None)
        getrs = getattr(lib, f"{prefix}zgetrs_64_", None)
        if getrf is not None and getrs is not None:
            break
    else:
        return None
    # zgetrf(m, n, a, lda, ipiv, info)
    getrf.argtypes = [_INT_P, _INT_P, ctypes.c_void_p, _INT_P, ctypes.c_void_p, _INT_P]
    getrf.restype = None
    # zgetrs(trans, n, nrhs, a, lda, ipiv, b, ldb, info), then the hidden
    # Fortran length of the trans string
    getrs.argtypes = [ctypes.c_char_p, _INT_P, _INT_P, ctypes.c_void_p, _INT_P,
                      ctypes.c_void_p, ctypes.c_void_p, _INT_P, _INT_P, ctypes.c_size_t]
    getrs.restype = None
    return getrf, getrs


def _scipy_routine(name: str):
    """scipy's wrapper of the LAPACK routine ``name``, which takes and
    returns 0-based int32 pivots."""
    try:
        from scipy.linalg import lapack
    except ImportError as exc:
        raise RuntimeError(
            f"numpy's BLAS exports no {name}_64_ and scipy, which would supply it, "
            "is not installed") from exc
    return getattr(lapack, name)


def pin_one_thread() -> None:
    """Set numpy's OpenBLAS pool to one thread, and scipy's where a caller
    has imported its LAPACK or the LUs will run there (imported here first).
    A pool sized by OPENBLAS_NUM_THREADS or the core count splits the sums
    of a blocked LU or product by thread count, so one thread makes the
    output bytes independent of the environment.  A library that cannot be
    opened or exports no known setter is left as it is."""
    libs = [_numpy_blas()]
    flapack = sys.modules.get("scipy.linalg._flapack")
    if flapack is None and _routines() is None:
        try:
            from scipy.linalg import _flapack as flapack
        except ImportError:
            pass  # the first LU reports the missing scipy
    if flapack is not None:
        libs.append(ctypes.CDLL(flapack.__file__))
    for lib in libs:
        setter = next((getattr(lib, n) for n in _SET_THREADS if hasattr(lib, n)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def work_buffer_mb() -> float:
    """MiB the BLAS maps for its work buffer at the process's first LU; 0
    once an LU has run."""
    return 0.0 if _factored else _WORK_BUFFER_MB


def map_work_buffer() -> None:
    """Run the process's first LU, on a 1 x 1 matrix, so the BLAS maps its
    work buffer now; nothing where an LU has run."""
    if not _factored:
        getrf(np.ones((1, 1), dtype=complex, order="F"))


def _check_info(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def getrf(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factors of the square complex matrix ``a``, computed in place:
    returns ``(a, piv)`` with L (unit diagonal) below and U on and above the
    diagonal of ``a``, and row i interchanged with row piv[i] - 1.  An exact
    zero pivot leaves a zero on U's diagonal and raises nothing."""
    global _factored
    n = a.shape[0]
    if a.dtype != np.complex128 or a.shape != (n, n) or not (
            a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("getrf needs a writeable square Fortran-ordered complex128 matrix")
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    routines = _routines()
    if routines is None:
        lu, piv, info = _scipy_routine("zgetrf")(a, overwrite_a=True)
        _factored = True
        _check_info(info, "zgetrf")
        return lu, piv.astype(np.int64) + 1
    piv = np.empty(n, dtype=np.int64)
    info = _INT()
    size = _INT(n)
    routines[0](size, size, a.ctypes.data, _INT(max(1, n)), piv.ctypes.data, info)
    _factored = True
    _check_info(info.value, "zgetrf")
    return a, piv


def getrs(lu: np.ndarray, piv: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve A x = b (trans 0), A^T x = b (1) or A^H x = b (2) for the
    vector ``b``, which is left as it is, with the factors ``getrf``
    returned."""
    n = lu.shape[0]
    if lu.dtype != np.complex128 or lu.shape != (n, n) or not lu.flags.f_contiguous:
        raise ValueError("getrs needs the square Fortran-ordered complex128 factors of getrf")
    if piv.dtype != np.int64 or piv.shape != (n,) or not piv.flags.c_contiguous:
        raise ValueError("getrs needs the int64 pivots of getrf")
    if b.shape != (n,):
        raise ValueError(f"right-hand side of shape {b.shape} does not fit {n} unknowns")
    if trans not in (0, 1, 2):
        raise ValueError(f"trans must be 0, 1 or 2, got {trans!r}")
    routines = _routines()
    if routines is None:
        x, info = _scipy_routine("zgetrs")(lu, piv - 1, b, trans=trans)
        _check_info(info, "zgetrs")
        return x
    x = np.array(b, dtype=np.complex128)
    info = _INT()
    ld = _INT(max(1, n))
    routines[1](_TRANS[trans], _INT(n), _INT(1), lu.ctypes.data, ld, piv.ctypes.data,
                x.ctypes.data, ld, info, 1)
    _check_info(info.value, "zgetrs")
    return x
