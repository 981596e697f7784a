"""The two paths :mod:`repro.fhe.kernels` runs, for tests to run both.

``"native"`` is the C library; a test on it skips where the library does
not build.  ``"numpy-batched"`` hides the library, so the numpy fallback
runs as it does on a machine without a C compiler.  The names are what
``repro.fhe.get_backend().name`` reports on each path.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.fhe import native

KERNEL_PATHS = ("native", "numpy-batched")


@contextmanager
def kernel_path(name):
    """Run the block on one kernel path (skipping when it cannot run)."""
    if name == "numpy-batched":
        with mock.patch.object(native, "load_library", lambda: None):
            yield
        return
    if native.load_library() is None:
        pytest.skip(f"no C kernels: {native.build_error()}")
    yield


def runnable_kernel_paths():
    """Both paths where the C library builds, the numpy one otherwise."""
    return KERNEL_PATHS if native.load_library() is not None \
        else KERNEL_PATHS[1:]
