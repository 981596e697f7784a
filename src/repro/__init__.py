"""Reproduction of "Cinnamon: A Framework for Scale-Out Encrypted AI"
(ASPLOS 2025).

Public surface:

* :func:`repro.compile` — the one-call facade: DSL program + params +
  machine spec -> :class:`~repro.core.compiler.CompiledProgram` (cached,
  instrumented; see :mod:`repro.runtime`);
* :mod:`repro.runtime` — the cached compile-and-run session
  (:class:`~repro.runtime.CinnamonSession`), batch worker pool, and
  structured JSON traces;
* :mod:`repro.serve` — the inference serving layer
  (:class:`~repro.serve.CinnamonServer` / :func:`repro.serve_requests`):
  admission queue, adaptive batching, retries, chip-crash injection and
  the one degrade ladder (recompile for the surviving chips, replay
  from cycle 0), metrics, and the ``python -m repro.serve.loadgen`` load
  generator;
* :mod:`repro.tune` — simulator-guided autotuning of compiler & machine
  configuration (:class:`~repro.tune.Tuner`, persisted
  :class:`~repro.tune.TuningDB`, ``python -m repro.tune`` CLI); tuned
  configs apply via ``repro.compile(tune=...)`` or, for a served
  request, ``InferenceRequest(options=TuningDB(...).tuned_options(...))``;
* :mod:`repro.trust` — artifact integrity & key lifecycle: signed
  compile-cache manifests with tamper quarantine
  (:class:`~repro.trust.ArtifactManifest`), versioned evaluation-key
  rotation (:class:`~repro.trust.KeyVault`), request freshness / replay
  windows (:class:`~repro.trust.ReplayGuard`), and the
  ``python -m repro.trust --rebuild-check`` reproducibility gate;
* :mod:`repro.obs` — cross-layer observability: one ``trace_id`` from a
  serve request down to simulated functional units
  (``repro.enable_tracing()`` / :func:`repro.export_chrome_trace`),
  unified metrics (:func:`repro.obs.default_registry`), and the
  ``python -m repro.obs`` journal analyzer;
* :mod:`repro.fhe` — functional RNS-CKKS (parameters, contexts, evaluator,
  hybrid keyswitching, bootstrapping) with pluggable limb-stack kernel
  backends (:func:`repro.set_kernel_backend`; see
  :mod:`repro.fhe.backend`);
* :mod:`repro.core` — the Cinnamon DSL, compiler, ISA, and emulator;
* :mod:`repro.sim` — the cycle-level scale-out simulator and the one
  machine fault it models, a chip crash (:class:`~repro.sim.ChipCrash`,
  decided from the finished clean run);
* :mod:`repro.arch` — area/yield/cost models;
* :mod:`repro.workloads` — the paper's benchmark programs;
* :mod:`repro.experiments` — table/figure regeneration harnesses.

Typical use::

    import repro

    compiled = repro.compile(program, params, machine="cinnamon_4")
    result = compiled.simulate("cinnamon_4")     # SimulationResult
    outputs = compiled.emulate(inputs, context=ctx)  # real limb data
"""

__version__ = "1.2.0"

from . import fhe  # noqa: F401  (cheap; pulls numpy only)


def compile(program, params, machine=None, session=None, tune=None,
            **options):
    """Compile a DSL program through the default cached runtime session.

    ``machine`` accepts a name (``"cinnamon_4"``), a chip count, or a
    :class:`~repro.sim.config.MachineConfig`; ``**options`` are
    :class:`~repro.core.compiler.CompilerOptions` fields (e.g.
    ``keyswitch_policy="cifher"``, ``emit_isa=False``).  Identical
    requests are served from the process-wide content-addressed cache.
    Pass an explicit :class:`~repro.runtime.CinnamonSession` via
    ``session`` for on-disk caching, batch execution, and trace export.

    ``tune`` swaps in an autotuned configuration (see :mod:`repro.tune`):
    ``"db"``/``True`` applies a persisted :class:`~repro.tune.TuningDB`
    entry when one matches, ``"quick"``/``"full"`` run a budget-8/32
    simulator-guided search on a DB miss first.
    """
    from .runtime.session import compile_program

    return compile_program(program, params, machine=machine,
                           session=session, tune=tune, **options)


def serve_requests(requests, num_workers=2, **server_kwargs):
    """Serve a batch of :class:`~repro.serve.InferenceRequest` objects
    through a transient :class:`~repro.serve.CinnamonServer` (shard pool,
    adaptive batching, retries); returns results in submission order.
    See :mod:`repro.serve` for the long-lived server API."""
    from .serve.server import serve_requests as _serve

    return _serve(requests, num_workers=num_workers, **server_kwargs)


def set_kernel_backend(backend):
    """Select the FHE kernel backend for this thread by name or instance
    (``"numpy"``, ``"numpy-batched"``, ``"native"``, or a registered
    custom backend; see :mod:`repro.fhe.backend`).  Returns the previous
    backend so callers can restore it."""
    from .fhe.backend import set_backend

    return set_backend(backend)


def get_kernel_backend():
    """The active FHE kernel backend (see :mod:`repro.fhe.backend`)."""
    from .fhe.backend import get_backend

    return get_backend()


def default_session():
    """The process-wide :class:`~repro.runtime.CinnamonSession` behind
    :func:`repro.compile` (inspect its trace, stats, or cache)."""
    from .runtime.session import default_session as _default

    return _default()


_LAZY_ATTRS = {
    "CinnamonServer": ("repro.serve", "CinnamonServer"),
    "ClusterRouter": ("repro.cluster", "ClusterRouter"),
    "cluster": ("repro.cluster", None),
    "InferenceRequest": ("repro.serve", "InferenceRequest"),
    "RequestResult": ("repro.serve", "RequestResult"),
    "serve": ("repro.serve", None),
    "CinnamonSession": ("repro.runtime", "CinnamonSession"),
    "Tuner": ("repro.tune", "Tuner"),
    "TuningDB": ("repro.tune", "TuningDB"),
    "tune": ("repro.tune", None),
    "CompileJob": ("repro.runtime", "CompileJob"),
    "JobResult": ("repro.runtime", "JobResult"),
    "CompiledProgram": ("repro.core.compiler", "CompiledProgram"),
    "CompilerOptions": ("repro.core.compiler", "CompilerOptions"),
    "CinnamonProgram": ("repro.core.dsl.program", "CinnamonProgram"),
    "resolve_machine": ("repro.sim.config", "resolve_machine"),
    "ArtifactManifest": ("repro.trust", "ArtifactManifest"),
    "KeyVault": ("repro.trust", "KeyVault"),
    "ReplayGuard": ("repro.trust", "ReplayGuard"),
    "trust": ("repro.trust", None),
    "obs": ("repro.obs", None),
    "enable_tracing": ("repro.obs", "enable"),
    "export_chrome_trace": ("repro.obs", "export_chrome_trace"),
    "runtime": ("repro.runtime", None),
    "core": ("repro.core", None),
    "sim": ("repro.sim", None),
    "arch": ("repro.arch", None),
    "workloads": ("repro.workloads", None),
    "experiments": ("repro.experiments", None),
}


def __getattr__(name):
    """Lazy re-exports: keep ``import repro`` cheap (numpy only)."""
    try:
        module_name, attr = _LAZY_ATTRS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value
    return value


__all__ = [
    "fhe",
    "compile",
    "serve_requests",
    "set_kernel_backend",
    "get_kernel_backend",
    "default_session",
    "CinnamonServer",
    "ClusterRouter",
    "InferenceRequest",
    "RequestResult",
    "CinnamonSession",
    "Tuner",
    "TuningDB",
    "CompileJob",
    "JobResult",
    "CompiledProgram",
    "CompilerOptions",
    "CinnamonProgram",
    "resolve_machine",
    "ArtifactManifest",
    "KeyVault",
    "ReplayGuard",
    "obs",
    "enable_tracing",
    "export_chrome_trace",
    "__version__",
]
