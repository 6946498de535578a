"""OpenBLAS thread count, read and set through the library numpy loaded.

numpy has no call for BLAS threading, so the OpenBLAS thread functions
are looked up through numpy's own extension module: symbol lookup on its
handle also searches the libraries it links, so the library found is the
one numpy calls, whether a wheel's symbol-prefixed OpenBLAS or a system
libopenblas. Where none is found (another BLAS, or a build without
thread control), ``threads`` reports None and ``pinned_threads`` does
nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

try:
    from numpy._core import _multiarray_umath as _numpy_ext
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _numpy_ext


@functools.cache
def _thread_functions():
    """(get, set) of the OpenBLAS numpy calls, or None."""
    try:
        lib = ctypes.CDLL(_numpy_ext.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes = []
            get.restype = ctypes.c_int
            set_.argtypes = [ctypes.c_int]
            set_.restype = None
            return get, set_
    return None


def threads() -> int | None:
    """OpenBLAS's current thread count, or None without thread control."""
    fns = _thread_functions()
    return None if fns is None else fns[0]()


@contextlib.contextmanager
def pinned_threads(n: int):
    """Run the body with OpenBLAS on n threads, then restore the count.

    The count is process-wide, so enter this from the thread that starts
    the workers, before they start, and leave it after they have joined.
    """
    fns = _thread_functions()
    if fns is None:
        yield
        return
    get, set_ = fns
    previous = get()
    set_(n)
    try:
        yield
    finally:
        set_(previous)
