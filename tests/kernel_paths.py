"""The two paths :mod:`repro.fhe.kernels` runs, for tests to run both.

``"native"`` is the C library; a test on it skips where the library does
not build.  ``"numpy"`` hides the library, so the per-limb references and
the numpy expressions run as they do on a machine without a C compiler.
The names are what ``repro.fhe.get_backend().name`` reports on each path.
The fallback's test id stays ``numpy-batched``, the name it reported
while it had numpy butterflies of its own, so a test keeps its id across
versions.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.fhe import native

#: The paths as test parameters.
KERNEL_PATHS = ("native", pytest.param("numpy", id="numpy-batched"))


@contextmanager
def kernel_path(name):
    """Run the block on one kernel path (skipping when it cannot run)."""
    if name == "numpy":
        with mock.patch.object(native, "load_library", lambda: None):
            yield
        return
    if native.load_library() is None:
        pytest.skip(f"no C kernels: {native.build_error()}")
    yield


def runnable_kernel_paths():
    """Both paths where the C library builds, the numpy one otherwise."""
    return ("native", "numpy") if native.load_library() is not None \
        else ("numpy",)
