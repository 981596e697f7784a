"""Machine-level fault tolerance for scale-out encrypted execution.

The paper's machine is a multi-chip package of reticle-sized dies; at
realistic defect densities some fraction of deployments *will* lose a
die or link mid-run.  This package makes the reproduction stack survive
that:

* :mod:`~repro.resilience.faults` — seeded, deterministic
  :class:`FaultSchedule` injection (chip kill, link sever/degrade,
  vector-cluster slowdown) plus the typed failures the simulator raises;
* :mod:`~repro.resilience.recovery` — the
  :class:`RecoveryOrchestrator` loop: detect, recompile for the degrade
  ladder's next rung, replay from cycle 0 on the survivors.

``faults`` is imported eagerly (the simulator itself depends on it);
``recovery`` loads lazily because it pulls in the runtime session, which
imports the simulator — an eager import here would cycle.
"""

from .faults import (
    CHIP_CRASH,
    CLUSTER_SLOW,
    LINK_DEGRADE,
    LINK_SEVER,
    NO_MACHINE_FAULTS,
    ChipFailure,
    FaultSchedule,
    LinkFailure,
    MachineFault,
    MachineFaultError,
    WatchdogTimeout,
)

__all__ = [
    "CHIP_CRASH",
    "CLUSTER_SLOW",
    "LINK_DEGRADE",
    "LINK_SEVER",
    "NO_MACHINE_FAULTS",
    "ChipFailure",
    "FaultSchedule",
    "LinkFailure",
    "MachineFault",
    "MachineFaultError",
    "WatchdogTimeout",
    # Lazily-loaded (see __getattr__):
    "RecoveryEvent",
    "RecoveryExhausted",
    "RecoveryOrchestrator",
    "ResilientRunResult",
    "run_with_recovery",
]

_LAZY_ATTRS = {
    "RecoveryEvent": "recovery",
    "RecoveryExhausted": "recovery",
    "RecoveryOrchestrator": "recovery",
    "ResilientRunResult": "recovery",
    "run_with_recovery": "recovery",
}


def __getattr__(name):
    module_name = _LAZY_ATTRS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_ATTRS))
