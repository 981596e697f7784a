"""Names, units, directions and bounds of everything the benchmark reports.

Two views of the same measurements:

* :data:`END_TO_END` — the named end-to-end metrics, each reported only
  on the workloads it is measured on.  ``run.py`` prints them and
  ``--compare`` judges them.
* :data:`CONTRACT` — the dense view committed in ``BENCHMARK.json``: the
  driver that gates later PRs needs *every* metric on *every* workload,
  so workload-specific timings are folded into operation-shaped names
  (:func:`contract_view`).

:data:`PER_LAYER` lists the traced run's per-layer metrics.  A workload
that never enters a layer reports that layer's metrics as 0 (no time
spent, nothing counted).
"""

from __future__ import annotations

#: Length of one run's timed section, seconds (BENCHMARK.json's
#: ``run_seconds`` and ``run.py``'s default ``--seconds``).
RUN_SECONDS = 15

WORKLOADS = {
    "cold_compile": (
        "fresh-session compile + first simulate of BERT, HELR and the "
        "bootstrap on 1/4/8/12 chips: compile is >85% of a cold request"),
    "encrypted_exec": (
        "ring-256 encrypted mini-BERT/HELR forwards and bootstraps: only "
        "fhe kernels and the ISA emulator work, checked against numpy"),
    "serve_warm": (
        "closed-loop cache-hit requests on a 2-worker cluster, then "
        "in-process: all time is admission, routing, wire and lifecycle"),
    "serve_thrash": (
        "12 programs against one cache slot per worker: nearly every "
        "request evicts and recompiles, so compile cost shows end to end"),
}

SERVING = ("serve_warm", "serve_thrash")
ALL = tuple(WORKLOADS)

#: name -> (unit, better, bound, workloads it is reported on)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, ALL),
    "compile_s": ("s", "lower", 0.10, ("cold_compile",)),
    "sim_host_s": ("s", "lower", 0.10, ("cold_compile",)),
    "sim_cycles": ("cycles", "lower", 0.0, ALL),
    "scaleout_speedup_12v1": ("x", "higher", 0.0, ("cold_compile",)),
    "peak_rss_mb": ("MB", "lower", 0.10, ALL),
    "encrypted_forward_s": ("s", "lower", 0.10, ("encrypted_exec",)),
    "bootstrap_s": ("s", "lower", 0.15, ("encrypted_exec",)),
    "req_p50_ms": ("ms", "lower", 0.10, SERVING),
    "req_p95_ms": ("ms", "lower", 0.10, SERVING),
    "throughput_rps": ("req/s", "higher", 0.10, SERVING),
    "inproc_req_p50_ms": ("ms", "lower", 0.10, ("serve_warm",)),
    "inproc_throughput_rps": ("req/s", "higher", 0.10, ("serve_warm",)),
}

#: The dense view in BENCHMARK.json: name -> (unit, better, bound).
CONTRACT = {
    "setup_s": ("s", "lower", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "throughput_ops_s": ("1/s", "higher", 0.25),
    "sim_cycles": ("cycles", "lower", 0.0),
    "peak_rss_mb": ("MB", "lower", 0.10),
}


def contract_view(workload: str, metrics: dict, ops_per_s: float) -> dict:
    """Fold one workload's named metrics into the dense contract view.

    ``op_p50_ms`` is the median cost of the workload's operation: one
    request on the serving workloads; on the batch workloads one pass
    over the workload's operation classes, each class at its median
    (compile + first simulate of the six pairs; one BERT forward, one
    HELR forward and one bootstrap).  ``throughput_ops_s`` is requests
    per second of the closed loop, resp. operations per busy second.
    """
    if workload == "cold_compile":
        p50 = 1e3 * (metrics["compile_s"] + metrics["sim_host_s"])
    elif workload == "encrypted_exec":
        # ``--quick`` skips the bootstrap; its share of an operation is 0.
        p50 = 1e3 * (metrics["encrypted_forward_s"]
                     + metrics.get("bootstrap_s", 0.0))
    else:
        p50, ops_per_s = metrics["req_p50_ms"], metrics["throughput_rps"]
    return {
        "setup_s": metrics["setup_s"],
        "op_p50_ms": p50,
        "throughput_ops_s": ops_per_s,
        "sim_cycles": metrics["sim_cycles"],
        "peak_rss_mb": metrics["peak_rss_mb"],
    }


PAIRS = ("bert_small_c4", "bootstrap_c1", "bootstrap_c4", "bootstrap_c8",
         "bootstrap_c12", "helr_c4")

#: name -> (unit, better).  The layer is the prefix before the last dot
#: group (``core.ir.optimize_s`` belongs to ``core.ir``).
PER_LAYER = {
    # cold_compile
    "nn.lower_s": ("s", "lower"),
    "nn.dsl_ops": ("count", "lower"),
    "core.ir.bootstrap_expansion_s": ("s", "lower"),
    "core.ir.optimize_s": ("s", "lower"),
    "core.ir.keyswitch_s": ("s", "lower"),
    "core.ir.alignment_s": ("s", "lower"),
    "core.ir.lower_to_poly_s": ("s", "lower"),
    "core.ir.lower_to_limb_s": ("s", "lower"),
    "core.isa.codegen_s": ("s", "lower"),
    "core.ir.ct_ops": ("count", "lower"),
    "core.ir.poly_ops": ("count", "lower"),
    "core.ir.limb_ops": ("count", "lower"),
    "core.ir.keyswitches": ("count", "lower"),
    "core.ir.comm_limbs": ("count", "lower"),
    "core.isa.instructions": ("count", "lower"),
    "core.isa.spill_stores": ("count", "lower"),
    "core.isa.reloads": ("count", "lower"),
    "sim.run_s": ("s", "lower"),
    "sim.instr_per_s": ("1/s", "higher"),
    "sim.hbm_bytes": ("bytes", "lower"),
    "sim.network_bytes": ("bytes", "lower"),
    "sim.compute_util": ("frac", "higher"),
    "sim.memory_util": ("frac", "higher"),
    "sim.network_util": ("frac", "lower"),
    **{f"runtime.compile_s.{pair}": ("s", "lower") for pair in PAIRS},
    **{f"sim.cycles.{pair}": ("cycles", "lower") for pair in PAIRS},
    "runtime.fingerprint_us": ("us", "lower"),
    "runtime.memory_hit_us": ("us", "lower"),
    "runtime.disk_store_s": ("s", "lower"),
    "runtime.disk_hit_s": ("s", "lower"),
    # encrypted_exec
    "fhe.encrypt_s": ("s", "lower"),
    "fhe.decrypt_s": ("s", "lower"),
    "core.isa.emulate_s": ("s", "lower"),
    "core.isa.emulate_instr_per_s": ("1/s", "higher"),
    "fhe.mul_relin_ms": ("ms", "lower"),
    "fhe.rotate_ms": ("ms", "lower"),
    "fhe.rescale_ms": ("ms", "lower"),
    "fhe.ntt_us_per_limb": ("us", "lower"),
    "fhe.keygen_s": ("s", "lower"),
    "fhe.max_abs_err": ("abs", "lower"),
    "fhe.bootstrap_max_abs_err": ("abs", "lower"),
    # serve_warm, serve_thrash
    "serve.submit_us_p50": ("us", "lower"),
    "serve.queue_ms_p50": ("ms", "lower"),
    "serve.execute_ms_p50": ("ms", "lower"),
    "cluster.overhead_ms_p50": ("ms", "lower"),
    "serve.req_p99_ms": ("ms", "lower"),
    "serve.batch_size_mean": ("count", "higher"),
    "runtime.memory_hits": ("count", "higher"),
    "runtime.misses": ("count", "lower"),
    "runtime.evictions": ("count", "lower"),
    "runtime.miss_ratio": ("frac", "lower"),
    "serve.retries": ("count", "lower"),
    "obs.journal_rows": ("count", "lower"),
    "obs.tracing_overhead_frac": ("frac", "lower"),
}


def benchmark_json() -> dict:
    """The document committed as ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in CONTRACT.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in PER_LAYER.items()],
    }
