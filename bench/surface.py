"""The one place ``bench/`` touches the library: its pinned import surface.

Every name the benchmark uses from ``repro`` is listed here and resolved
lazily (PEP 562), so a workload imports — and pays set-up time for — only
the layers it drives.  All are public, non-deprecated names; the
benchmark measures each layer from outside through them.  Deliberately
absent: ``repro.serve.loadgen``, ``repro.serve.metrics``,
``CinnamonCompiler``, ``CycleSimulator`` and ``benchmarks/baseline.py``,
which ROADMAP item 3 moves or deletes.
"""

from __future__ import annotations

import importlib

SURFACE = {
    # runtime
    "CinnamonSession": "repro.runtime",
    "fingerprint": "repro.runtime",
    # compiler, pass by pass
    "CompilerOptions": "repro.core",
    "CompiledProgram": "repro.core",
    "CompileStats": "repro.core",
    "expand_bootstraps": "repro.core.ir.bootstrap_graph",
    "optimize": "repro.core.ir.optimize",
    "KeyswitchPass": "repro.core.ir",
    "insert_alignment": "repro.core.ir.ctpasses",
    "infer_scales": "repro.core.ir.ctpasses",
    "lower_to_poly": "repro.core.ir",
    "lower_to_limb": "repro.core.ir",
    "generate_isa": "repro.core.isa",
    # simulator, trust
    "SimulatorEngine": "repro.sim.simulator",
    "resolve_machine": "repro.sim.config",
    "artifact_digest": "repro.trust",
    # model frontend
    "build_bert_encoder": "repro.nn",
    "build_helr": "repro.nn",
    "lower": "repro.nn",
    "nn_params": "repro.nn",
    "sample_input": "repro.nn",
    "encrypted_forward": "repro.nn",
    "pack_input": "repro.nn",
    "unpack_output": "repro.nn",
    # functional FHE
    "CKKSContext": "repro.fhe",
    "make_params": "repro.fhe",
    "ArchParams": "repro.fhe",
    "get_backend": "repro.fhe",
    "Bootstrapper": "repro.fhe.bootstrap",
    "ntt_batch": "repro.fhe.ntt",
    "generate_primes": "repro.fhe.primes",
    # programs
    "bootstrap_program": "repro.workloads",
    "nn_mix": "repro.workloads",
    "serving_mix": "repro.workloads",
    "matmul_kernel": "repro.workloads.kernels",
    # serving
    "CinnamonServer": "repro.serve",
    "ClusterRouter": "repro.cluster",
    "InferenceRequest": "repro.serve",
    "enable_tracing": "repro",
}

__all__ = sorted(SURFACE)


def __getattr__(name):
    try:
        module = SURFACE[name]
    except KeyError:
        raise AttributeError(
            f"{name!r} is not part of the benchmark's pinned surface")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
