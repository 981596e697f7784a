"""Pluggable kernel backends for the hot FHE primitives.

Every expensive limb-stack primitive — NTT/INTT, base conversion, mod-up /
mod-down, pointwise modular multiplication, and the ISA emulator's
pointwise instruction groups — is dispatched through a
:class:`KernelBackend`.  Three implementations ship in-tree:

* ``"numpy"`` — the seed per-limb kernels: a Python loop over limbs, each
  reduced with plain ``% p``.  Kept as the portable reference and as the
  baseline the microbenchmarks compare against.
* ``"numpy-batched"`` — the limb-batched kernels of
  :mod:`repro.fhe.kernels`: one numpy op per butterfly stage across the
  whole ``(L, N)`` stack, Shoup/Barrett 64-bit-safe reductions, cache
  blocking.  The portable default.
* ``"native"`` — the NTT and the pointwise primitives as tight C loops,
  compiled on demand with the system compiler (:mod:`repro.fhe.native`).
  Registered — and made the default — only when the toolchain can build
  it and the result passes a bit-identity smoke test.

All backends must be *bit-identical*: canonical residues in ``[0, p)``
matching the reference output exactly (``tests/fhe/test_backend.py``
enforces this for every registered backend).  An accelerated external
backend registers itself with::

    from repro.fhe.backend import register_backend

    @register_backend("my-accelerator")
    class MyBackend:
        ...seven KernelBackend methods...

and becomes selectable via ``repro.set_kernel_backend("my-accelerator")``.
Module-level ``ntt()`` / ``intt()`` / ``base_convert()`` etc. keep working
as thin shims that delegate to the active backend.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Protocol, Sequence, Union, runtime_checkable

import numpy as np

from . import kernels as _kernels
from . import ntt as _ntt
from . import rns as _rns


@runtime_checkable
class KernelBackend(Protocol):
    """The seven limb-stack primitives every kernel backend provides.

    All arrays are ``uint64`` limb stacks of shape ``(L, N)`` holding
    canonical residues; ``primes``/basis arguments are sequences of Python
    ints.  Implementations must return canonical residues bit-identical to
    the reference backend.
    """

    name: str

    def ntt_batch(self, coeffs: np.ndarray, primes: Sequence[int],
                  rows=None) -> np.ndarray:
        """Forward negacyclic NTT per limb row (bit-reversed output).

        With ``rows`` (one index per stack row), ``primes`` is a table of
        distinct moduli and row ``i`` is transformed modulo
        ``primes[rows[i]]`` — how a caller with many differently shaped
        stacks over few primes (the ISA emulator) shares one plan.
        """

    def intt_batch(self, values: np.ndarray, primes: Sequence[int],
                   rows=None) -> np.ndarray:
        """Inverse negacyclic NTT per limb row (natural-order output)."""

    def base_convert(self, limbs: np.ndarray, source: Sequence[int],
                     target: Sequence[int]) -> np.ndarray:
        """Approximate (Bajard) base conversion between RNS bases."""

    def mod_up(self, limbs: np.ndarray, source: Sequence[int],
               target: Sequence[int]) -> np.ndarray:
        """Extend limbs to a superset basis (exact rows copied verbatim)."""

    def mod_down(self, limbs: np.ndarray, base: Sequence[int],
                 extension: Sequence[int]) -> np.ndarray:
        """Divide-and-round by the extension product, back to ``base``."""

    def pointwise_mulmod(self, a: np.ndarray, b: np.ndarray,
                         primes: Sequence[int]) -> np.ndarray:
        """Element-wise ``a * b mod p`` per limb row."""

    def limb_group(self, op: str, store: np.ndarray, srcs: np.ndarray,
                   primes: Sequence[int], rows: np.ndarray,
                   constants=None) -> np.ndarray:
        """One ISA emulator group of ``op`` (see
        :data:`repro.fhe.kernels.GROUP_OPS`): operands gathered from rows
        ``srcs`` (``(arity, count)``) of ``store``, instruction ``i``
        modulo ``primes[rows[i]]``; returns the ``(count, N)`` results.

        Unlike the other primitives this one promises nothing about
        canonical operands: it must equal
        :func:`repro.fhe.kernels.limb_group`'s expressions bit for bit on
        any uint64 input.
        """


_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(name: str):
    """Class decorator: instantiate ``cls()`` and register it as ``name``."""

    def deco(cls):
        instance = cls()
        instance.name = name
        _REGISTRY[name] = instance
        return cls

    return deco


def available_backends() -> tuple:
    """Names of all registered kernel backends, sorted."""
    _maybe_register_native()
    return tuple(sorted(_REGISTRY))


@register_backend("numpy")
class NumpyBackend:
    """Seed per-limb reference kernels (Python loop over limbs)."""

    def ntt_batch(self, coeffs, primes, rows=None):
        coeffs = np.asarray(coeffs, dtype=_kernels.UINT)
        if rows is not None:
            primes = [primes[r] for r in rows]
        return np.stack([_ntt.ntt_reference(coeffs[i], int(q))
                         for i, q in enumerate(primes)])

    def intt_batch(self, values, primes, rows=None):
        values = np.asarray(values, dtype=_kernels.UINT)
        if rows is not None:
            primes = [primes[r] for r in rows]
        return np.stack([_ntt.intt_reference(values[i], int(q))
                         for i, q in enumerate(primes)])

    def base_convert(self, limbs, source, target):
        return _rns.get_conversion_plan(source, target).convert(limbs)

    def mod_up(self, limbs, source, target):
        return _rns.mod_up_reference(limbs, source, target)

    def mod_down(self, limbs, base, extension):
        return _rns.mod_down_reference(limbs, base, extension)

    def pointwise_mulmod(self, a, b, primes):
        a = np.asarray(a, dtype=_kernels.UINT)
        b = np.asarray(b, dtype=_kernels.UINT)
        b = np.broadcast_to(b, a.shape)
        return np.stack([(a[i] * b[i]) % _kernels.UINT(int(q))
                         for i, q in enumerate(primes)])

    def limb_group(self, op, store, srcs, primes, rows, constants=None):
        return _kernels.limb_group(op, store, srcs, primes, rows, constants)


@register_backend("numpy-batched")
class BatchedNumpyBackend:
    """Limb-batched kernels: one numpy op per stage across the stack."""

    def ntt_batch(self, coeffs, primes, rows=None):
        return _kernels.ntt_batch(coeffs, primes, rows)

    def intt_batch(self, values, primes, rows=None):
        return _kernels.intt_batch(values, primes, rows)

    def base_convert(self, limbs, source, target):
        return _kernels.base_convert(limbs, source, target)

    def mod_up(self, limbs, source, target):
        return _kernels.mod_up(limbs, source, target)

    def mod_down(self, limbs, base, extension):
        return _kernels.mod_down(limbs, base, extension)

    def pointwise_mulmod(self, a, b, primes):
        return _kernels.pointwise_mulmod(a, b, primes)

    def limb_group(self, op, store, srcs, primes, rows, constants=None):
        return _kernels.limb_group(op, store, srcs, primes, rows, constants)


_DEFAULT_BACKEND = "numpy-batched"
_STATE = threading.local()
_NATIVE_CHECKED = False


def _maybe_register_native() -> None:
    """Register the compiled C backend on first backend use (not import).

    The ``"native"`` backend registers itself only when the system
    toolchain can build it AND the result passes a bit-identity smoke
    test; it then becomes the default.  Deferred to first use so that
    ``import repro`` never shells out to a compiler.
    """
    global _NATIVE_CHECKED, _DEFAULT_BACKEND
    if _NATIVE_CHECKED:
        return
    _NATIVE_CHECKED = True
    try:
        from . import native as _native

        if _native.available():
            register_backend("native")(_native.NativeBackend)
            _DEFAULT_BACKEND = "native"
    except Exception:  # pragma: no cover - defensive: never block dispatch
        pass


def get_backend() -> KernelBackend:
    """The active kernel backend (thread-local; default ``native`` when
    the compiled backend is usable, else ``numpy-batched``)."""
    backend = getattr(_STATE, "backend", None)
    if backend is None:
        _maybe_register_native()
        backend = _STATE.backend = _REGISTRY[_DEFAULT_BACKEND]
    return backend


def set_backend(backend: Union[str, KernelBackend]) -> KernelBackend:
    """Select the active backend by name (or instance); returns the
    *previous* one so callers can restore it."""
    previous = get_backend()
    if isinstance(backend, str):
        try:
            _maybe_register_native()
            backend = _REGISTRY[backend]
        except KeyError:
            raise ValueError(
                f"unknown kernel backend {backend!r}; "
                f"registered: {', '.join(available_backends())}"
            ) from None
    _STATE.backend = backend
    return previous


@contextmanager
def use_backend(backend: Union[str, KernelBackend]):
    """Context manager: run a block under a specific kernel backend."""
    previous = set_backend(backend)
    try:
        yield get_backend()
    finally:
        set_backend(previous)
