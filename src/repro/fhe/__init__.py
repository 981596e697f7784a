"""Functional RNS-CKKS substrate.

This subpackage is a from-scratch, numpy-backed implementation of the CKKS
fully homomorphic encryption scheme (Cheon-Kim-Kim-Song) in the RNS/double-
CRT representation used by FHE accelerators: limb-decomposed polynomials,
negacyclic NTTs, approximate base conversion, hybrid digit keyswitching,
and bootstrapping.  It is the executable ground truth against which the
Cinnamon compiler, its parallel keyswitching placements, and the ISA
emulator are validated.
"""

from .backend import (
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from .packing import SlotCapacityError
from .params import ArchParams, CKKSParams, make_params, toy_params
from .polynomial import RnsPolynomial
from .ciphertext import Ciphertext
from .encoding import CKKSEncoder, Plaintext
from .keys import EvalKey, KeyChain, PublicKey, SecretKey
from .evaluator import CKKSContext, Evaluator
from .noise import (
    NoiseBudgetExhausted,
    NoiseEstimate,
    NoiseEstimator,
    measure_slot_error,
)
from .serialize import (
    CorruptPayloadError,
    SERIALIZE_SCHEMA_VERSION,
    dump_ciphertext,
    dump_params,
    dump_plaintext,
    load_ciphertext,
    load_params,
    load_plaintext,
)

__all__ = [
    "KernelBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
    "SlotCapacityError",
    "ArchParams",
    "CKKSParams",
    "make_params",
    "toy_params",
    "RnsPolynomial",
    "Ciphertext",
    "CKKSEncoder",
    "Plaintext",
    "EvalKey",
    "KeyChain",
    "PublicKey",
    "SecretKey",
    "CKKSContext",
    "Evaluator",
    "NoiseBudgetExhausted",
    "NoiseEstimate",
    "NoiseEstimator",
    "measure_slot_error",
    "CorruptPayloadError",
    "SERIALIZE_SCHEMA_VERSION",
    "dump_ciphertext",
    "load_ciphertext",
    "dump_plaintext",
    "load_plaintext",
    "dump_params",
    "load_params",
]
