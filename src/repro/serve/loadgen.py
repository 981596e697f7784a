"""Load generator for :class:`~repro.serve.CinnamonServer`.

Two arrival models:

* **open loop** (``--mode open``): Poisson arrivals at ``--rate`` req/s,
  submitted on schedule regardless of completions — the honest way to
  measure a service under offered load (no coordinated omission); a
  saturated queue shows up as explicit rejections, not hidden stalls.
* **closed loop** (``--mode closed``): ``--concurrency`` clients, each
  submitting its next request the moment the previous one resolves —
  the throughput-ceiling probe.

The request stream samples the four-workload mix of
:func:`repro.workloads.serving_mix` (bootstrap / ResNet-20 block / HELR
step / BERT layer), optionally reweighted via ``--mix``.  ``--nn mixed``
adds the three whole models the :mod:`repro.nn` frontend lowers (HELR,
reduced ResNet-20, BERT encoder block) as extra classes; ``--nn only``
replays pure-nn traffic — both compose with ``--cluster``.  The run
prints
a throughput/latency report and can dump the full metrics snapshot
(``--metrics-out``) and the request-level trace (``--trace-out``).

Usage::

    python -m repro.serve.loadgen --requests 200 --workers 4 \\
        --machine cinnamon_4 --scale small --mode open --rate 100

``--cluster N`` swaps the in-process :class:`CinnamonServer` for a
:class:`~repro.cluster.ClusterRouter` fronting ``N`` worker *processes*
(multi-process scale-out; see :mod:`repro.cluster`); the report, metrics
snapshot, and trace outputs work identically.  ``--chaos-kill-worker K``
SIGKILLs a live worker ``K`` times mid-run to exercise the router's
zero-loss failover; ``--chaos-chip-crash`` arms simulated die deaths
(in-process via the fault injector, cluster via the first worker's
degrade-ladder recovery).  Mid-run chaos is keyed to request progress,
not to a timer: the k-th of a flag's N actions fires once k/(N+1) of
``--requests`` have been sent, so a 1 s run and a 60 s run see the same
faults.

Trust chaos (:mod:`repro.trust`) injects *attacks* mid-run and asserts
the hardening layer absorbs them with zero lost legitimate requests:

* ``--chaos-tamper-cache N`` bit-flips every on-disk cache artifact N
  times — each flip must degrade to a verified miss + quarantine
  (``trust_tamper_detected_total``), never a crash or a poisoned load;
* ``--chaos-stale-key K`` (cluster) submits K requests pinned to a
  *revoked* key version — each must be rejected with a typed
  :class:`~repro.trust.errors.StaleKeyError`;
* ``--chaos-replay K`` (cluster) replays one freshness envelope K times
  — each replay must be rejected with a typed
  :class:`~repro.trust.errors.ReplayError`.

Attack submissions are accounted separately from the legitimate stream
(``attacks`` in the report); ``--fail-on-errors`` also fails the run if
any attack *leaked* (was accepted instead of rejected).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..cluster.merge import merged_scalar
from ..workloads.serving import MixEntry, serving_mix
from .faults import FaultInjector
from ..obs.analyze import registry_from_journal
from ..obs.metrics import MetricsRegistry
from .queue import QueueSaturatedError
from .request import InferenceRequest, RequestResult, RequestStatus
from .server import CinnamonServer

#: Wait bound for any single in-flight request during a loadgen run.
RESULT_TIMEOUT_S = 600.0


@dataclass
class LoadReport:
    """What one loadgen run measured."""

    mode: str
    machine: str
    scale: str
    offered: int                     # requests the generator tried to send
    duration_s: float
    counts: Dict[str, int] = field(default_factory=dict)
    throughput_rps: float = 0.0      # completed-OK per wall second
    latency: Dict[str, float] = field(default_factory=dict)
    queue_wait: Dict[str, float] = field(default_factory=dict)
    batch: Dict[str, float] = field(default_factory=dict)
    cache: Dict[str, float] = field(default_factory=dict)
    per_class: Dict[str, int] = field(default_factory=dict)
    chaos: Dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return (self.counts.get("failed", 0)
                + self.counts.get("timeout", 0)
                + self.counts.get("rejected", 0))

    def as_dict(self) -> dict:
        return {
            "mode": self.mode, "machine": self.machine, "scale": self.scale,
            "offered": self.offered, "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps, "counts": self.counts,
            "latency_s": self.latency, "queue_wait_s": self.queue_wait,
            "batch": self.batch, "cache": self.cache,
            "per_class": self.per_class, "chaos": self.chaos,
        }

    def render(self) -> str:
        lines = [
            f"loadgen: {self.offered} requests ({self.mode} loop) on "
            f"{self.machine}, scale={self.scale}",
            f"  duration      {self.duration_s:8.2f} s",
            f"  throughput    {self.throughput_rps:8.1f} req/s (ok only)",
            "  outcomes      " + "  ".join(
                f"{k}={v}" for k, v in sorted(self.counts.items())),
            # Empty histograms report None quantiles — render as 0.
            f"  latency p50   {self.latency.get('p50') or 0:8.4f} s   "
            f"p95 {self.latency.get('p95') or 0:8.4f} s   "
            f"p99 {self.latency.get('p99') or 0:8.4f} s",
            f"  queue    p50  {self.queue_wait.get('p50') or 0:8.4f} s   "
            f"p95 {self.queue_wait.get('p95') or 0:8.4f} s",
            f"  batch size    mean {self.batch.get('mean') or 0:.2f}  "
            f"max {self.batch.get('max') or 0:.0f}  "
            f"({self.batch.get('count') or 0:.0f} batches)",
            f"  cache         hit rate {self.cache.get('hit_rate', 0):.1%} "
            f"({self.cache.get('hits', 0):.0f}/"
            f"{self.cache.get('lookups', 0):.0f} lookups)",
            "  per class     " + "  ".join(
                f"{k}={v}" for k, v in sorted(self.per_class.items())),
        ]
        if self.chaos:
            lines.append("  chaos         " + "  ".join(
                f"{k}={v}" for k, v in sorted(self.chaos.items())))
        return "\n".join(lines)


class LoadGenerator:
    """Replays a workload mix against a server."""

    def __init__(self, server: CinnamonServer, mix: Dict[str, MixEntry],
                 seed: int = 0, deadline_s: Optional[float] = None,
                 tenants: int = 1):
        self.server = server
        self.mix = mix
        self.deadline_s = deadline_s
        self.tenants = max(1, tenants)
        self._rng = random.Random(seed)
        self._names = list(mix)
        self._weights = [mix[name].weight for name in self._names]
        self._programs = {name: mix[name].build() for name in self._names}
        self._sent_per_class: Dict[str, int] = {n: 0 for n in self._names}
        self._sent_total = 0

    # ------------------------------------------------------------------ #

    def _next_request(self, machine) -> InferenceRequest:
        name = self._rng.choices(self._names, weights=self._weights)[0]
        self._sent_per_class[name] += 1
        self._sent_total += 1
        entry = self.mix[name]
        tenant = (f"t{self._sent_total % self.tenants}"
                  if self.tenants > 1 else "default")
        return InferenceRequest(
            program=self._programs[name], params=entry.params,
            machine=machine, deadline_s=self.deadline_s, tenant=tenant,
            name=f"{name}-{self._sent_per_class[name]}")

    def run_open_loop(self, num_requests: int, rate_rps: float,
                      machine) -> List[RequestResult]:
        """Poisson arrivals at ``rate_rps``; returns one result per
        offered request (rejections included)."""
        results: List[Optional[RequestResult]] = [None] * num_requests
        handles = []
        start = time.monotonic()
        next_arrival = start
        for i in range(num_requests):
            next_arrival += self._rng.expovariate(rate_rps)
            delay = next_arrival - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            request = self._next_request(machine)
            try:
                handles.append((i, self.server.submit(request)))
            except QueueSaturatedError:
                results[i] = RequestResult(
                    request_id=request.request_id, name=request.label,
                    status=RequestStatus.REJECTED,
                    error="admission queue saturated")
        for i, handle in handles:
            results[i] = handle.result(timeout=RESULT_TIMEOUT_S)
        return [r for r in results if r is not None]

    def run_closed_loop(self, num_requests: int, concurrency: int,
                        machine) -> List[RequestResult]:
        """``concurrency`` synchronous clients sharing a request budget."""
        results: List[RequestResult] = []
        lock = threading.Lock()
        budget = iter(range(num_requests))

        def client():
            while True:
                with lock:
                    if next(budget, None) is None:
                        return
                    request = self._next_request(machine)
                try:
                    handle = self.server.submit(request)
                except QueueSaturatedError:
                    outcome = RequestResult(
                        request_id=request.request_id, name=request.label,
                        status=RequestStatus.REJECTED,
                        error="admission queue saturated")
                else:
                    outcome = handle.result(timeout=RESULT_TIMEOUT_S)
                with lock:
                    results.append(outcome)

        clients = [threading.Thread(target=client, name=f"client-{c}")
                   for c in range(concurrency)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        return results


# ---------------------------------------------------------------------- #

def _histogram_summary(metrics: MetricsRegistry, name: str) -> dict:
    snap = metrics.snapshot().get(name)
    if not snap or not snap["series"]:
        return {}
    return dict(snap["series"][0]["value"])


#: ``report.chaos`` key -> the front-end's own counter behind it; a run
#: reports those its front-end keeps (shard executors' or the router's).
FRONTEND_CHAOS = {
    "chip_failures": "serve_chip_failures_total",
    "watchdog_timeouts": "serve_watchdog_timeouts_total",
    "worker_deaths": "cluster_worker_deaths_total",
    "requeued": "cluster_requeued_total",
    "retries": "serve_retries_total",
    "trust_rejections": "cluster_trust_rejections_total",
}
#: ``report.chaos`` key -> the row-derived family behind it, read off
#: the replayed journal: on either back-end the rows may have been
#: recorded in a registry the front-end does not own (a shard session's,
#: a worker process's), but the drained journal holds them all.
JOURNAL_CHAOS = {
    "recoveries": "runtime_recoveries_total",
    "tamper_detected": "trust_tamper_detected_total",
    "replay_rejected": "trust_replay_rejected_total",
    "stale_key_rejections": "trust_stale_key_rejections_total",
}


def tamper_cache_dir(cache_dir) -> int:
    """Bit-flip one byte of every artifact pickle under ``cache_dir`` —
    the exact attack the signed manifest exists to catch.  Returns the
    number of files flipped."""
    flipped = 0
    for path in sorted(Path(cache_dir).glob("*.pkl")):
        try:
            data = bytearray(path.read_bytes())
        except OSError:
            continue
        if not data:
            continue
        data[len(data) // 2] ^= 0x01
        try:
            path.write_bytes(bytes(data))
        except OSError:
            continue
        flipped += 1
    return flipped


def build_report(server: CinnamonServer, results: Sequence[RequestResult],
                 duration_s: float, *, mode: str, machine: str,
                 scale: str, offered: int,
                 per_class: Dict[str, int]) -> LoadReport:
    """The run's report; ``server`` must have drained, so that its
    journal is complete."""
    counts: Dict[str, int] = {}
    for result in results:
        counts[result.status.value] = counts.get(result.status.value, 0) + 1
    ok = counts.get("ok", 0)
    cache_totals = server.cache_stats()
    hits = cache_totals.get("memory_hits", 0) + cache_totals.get(
        "disk_hits", 0)
    lookups = hits + cache_totals.get("misses", 0)
    latency = _histogram_summary(server.metrics,
                                 "serve_request_latency_seconds")
    own = server.metrics.snapshot()
    replayed = registry_from_journal(server.trace()).snapshot()
    chaos = {key: int(merged_scalar(own, family))
             for key, family in FRONTEND_CHAOS.items() if family in own}
    chaos.update((key, int(merged_scalar(replayed, family)))
                 for key, family in JOURNAL_CHAOS.items())
    return LoadReport(
        mode=mode, machine=machine, scale=scale, offered=offered,
        duration_s=duration_s,
        counts=counts,
        throughput_rps=ok / duration_s if duration_s > 0 else 0.0,
        latency={k: latency.get(k) or 0.0
                 for k in ("p50", "p95", "p99", "mean", "max")},
        queue_wait=_histogram_summary(server.metrics,
                                      "serve_queue_wait_seconds"),
        batch=_histogram_summary(server.metrics, "serve_batch_size"),
        cache={"hits": hits, "lookups": lookups,
               "hit_rate": hits / lookups if lookups else 0.0},
        per_class=dict(per_class),
        chaos=chaos,
    )


def parse_mix_weights(text: str) -> Dict[str, float]:
    """``"bootstrap=2,resnet-block=0"`` -> weight overrides."""
    weights = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        name, _, value = part.partition("=")
        weights[name.strip()] = float(value) if value else 1.0
    return weights


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Replay an encrypted-inference workload mix against "
                    "a CinnamonServer and report throughput/latency.")
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--mode", choices=("open", "closed"),
                        default="closed")
    parser.add_argument("--rate", type=float, default=50.0,
                        help="open-loop arrival rate, req/s (Poisson)")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="closed-loop client count")
    parser.add_argument("--machine", default="cinnamon_4")
    parser.add_argument("--workers", type=int, default=4,
                        help="server session shards")
    parser.add_argument("--cluster", type=int, default=0, metavar="N",
                        help="serve through a ClusterRouter with N worker "
                             "processes instead of the in-process server")
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--queue-depth", type=int, default=0,
                        help="admission bound; 0 = unbounded")
    parser.add_argument("--scale", choices=("small", "paper"),
                        default="small")
    parser.add_argument("--mix", default="",
                        help="weight overrides, e.g. 'bootstrap=2,"
                             "bert-layer=0.5'")
    parser.add_argument("--nn", choices=("off", "mixed", "only"),
                        default="off",
                        help="'mixed' adds the three lowered repro.nn "
                             "models (HELR / ResNet-20 / BERT encoder) to "
                             "the kernel mix; 'only' replays pure-nn "
                             "traffic")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-request deadline, seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chaos-chip-crash", type=int, default=0,
                        metavar="N",
                        help="kill a chip mid-simulation in N batches; "
                             "the server must recover via degraded-mode "
                             "recompilation with zero lost requests")
    parser.add_argument("--chaos-chip", type=int, default=None,
                        help="which die dies (default: last chip of "
                             "--machine)")
    parser.add_argument("--chaos-cycle", type=int, default=1000,
                        help="simulated cycle at which the chip dies")
    parser.add_argument("--chaos-kill-worker", type=int, default=0,
                        metavar="K",
                        help="cluster mode: SIGKILL a live worker K times "
                             "mid-run (failover must lose zero requests)")
    parser.add_argument("--cache-dir", default=None,
                        help="shared on-disk compile cache directory "
                             "(cluster mode defaults to a private "
                             "temporary one)")
    parser.add_argument("--capacity", type=int, default=None,
                        help="per-shard (or per-worker) in-memory LRU "
                             "bound; 1 forces disk reloads, which is what "
                             "--chaos-tamper-cache needs to bite")
    parser.add_argument("--chaos-tamper-cache", type=int, default=0,
                        metavar="N",
                        help="bit-flip every on-disk cache artifact N "
                             "times mid-run; the signed manifest must "
                             "degrade each to miss + quarantine")
    parser.add_argument("--chaos-stale-key", type=int, default=0,
                        metavar="K",
                        help="cluster mode: submit K requests pinned to "
                             "a revoked key version (typed rejection "
                             "expected)")
    parser.add_argument("--chaos-replay", type=int, default=0,
                        metavar="K",
                        help="cluster mode: replay one freshness "
                             "envelope K times (typed rejection expected)")
    parser.add_argument("--watchdog", type=float, default=None,
                        help="per-simulation wall-clock budget, seconds")
    parser.add_argument("--metrics-out", default=None,
                        help="write the metrics JSON snapshot here")
    parser.add_argument("--trace-out", default=None,
                        help="write the request-level trace JSON here")
    parser.add_argument("--obs", action="store_true",
                        help="enable repro.obs tracing for the run "
                             "(journal rows gain trace ids)")
    parser.add_argument("--obs-trace-out", default=None, metavar="FILE",
                        help="write the merged Chrome/Perfetto timeline "
                             "here (implies --obs)")
    parser.add_argument("--fail-on-errors", action="store_true",
                        help="exit 1 if any request was not served OK")
    parser.add_argument("--tenants", type=int, default=1, metavar="N",
                        help="spread requests round-robin over N "
                             "billing tenants (t0..tN-1) to exercise "
                             "per-tenant cost attribution")
    args = parser.parse_args(argv)

    if args.obs or args.obs_trace_out:
        from .. import obs

        obs.enable()
    mix_weights = parse_mix_weights(args.mix) or None
    if args.nn == "only":
        from ..workloads.serving import nn_mix

        mix = nn_mix(args.scale, weights=mix_weights)
    else:
        mix = serving_mix(args.scale, weights=mix_weights,
                          include_nn=args.nn == "mixed")
    keyvault = None
    if args.cluster > 0:
        from ..cluster import ClusterRouter

        if args.chaos_stale_key > 0:
            from ..trust.keyvault import KeyVault

            keyvault = KeyVault()
            keyvault.issue("default")
        server = ClusterRouter(num_workers=args.cluster,
                               queue_depth=args.queue_depth,
                               default_machine=args.machine,
                               cache_dir=args.cache_dir,
                               capacity=args.capacity,
                               keyvault=keyvault,
                               chaos_chip_crash=args.chaos_chip_crash,
                               chaos_cycle=args.chaos_cycle)
    else:
        for flag, value in (("--chaos-kill-worker", args.chaos_kill_worker),
                            ("--chaos-stale-key", args.chaos_stale_key),
                            ("--chaos-replay", args.chaos_replay)):
            if value > 0:
                parser.error(f"{flag} requires --cluster N")
        faults = None
        if args.chaos_chip_crash > 0:
            from ..sim.config import resolve_machine

            chip = args.chaos_chip
            if chip is None:
                chip = resolve_machine(args.machine).num_chips - 1
            faults = FaultInjector().chip_crash(
                chip=chip, cycle=args.chaos_cycle,
                count=args.chaos_chip_crash)
        server = CinnamonServer(
            num_workers=args.workers, queue_depth=args.queue_depth,
            max_batch=args.max_batch, default_machine=args.machine,
            seed=args.seed, faults=faults, cache_dir=args.cache_dir,
            capacity=args.capacity, watchdog_s=args.watchdog)
    if args.chaos_tamper_cache > 0 \
            and getattr(server, "cache_dir", None) is None:
        parser.error("--chaos-tamper-cache needs a server with an "
                     "on-disk cache")
    generator = LoadGenerator(server, mix, seed=args.seed,
                              deadline_s=args.deadline,
                              tenants=args.tenants)

    with server:
        if args.cluster > 0:
            server.wait_ready(timeout=60)
        stop_chaos = threading.Event()
        chaos_threads: List[threading.Thread] = []
        attacks: Dict[str, int] = {}
        attacks_lock = threading.Lock()

        def _count(key: str, n: int = 1) -> None:
            with attacks_lock:
                attacks[key] = attacks.get(key, 0) + n

        def _reached(k: int, n: int) -> bool:
            """Block until the generator has sent ``k/(n+1)`` of the
            run's requests — when the k-th of a chaos loop's ``n``
            actions is due; ``False`` if the run ended first."""
            due = k * args.requests // (n + 1)
            while generator._sent_total < due:
                if stop_chaos.wait(0.005):
                    return False
            return True

        def _attack_request(tag: str) -> InferenceRequest:
            # Built outside the generator so attack traffic never skews
            # the legitimate stream's per-class/offered accounting.
            name = next(iter(mix))
            entry = mix[name]
            return InferenceRequest(
                program=generator._programs[name], params=entry.params,
                machine=args.machine, name=f"attack-{tag}")

        if args.chaos_kill_worker > 0:
            def _kill_loop():
                for k in range(1, args.chaos_kill_worker + 1):
                    if not _reached(k, args.chaos_kill_worker):
                        return
                    victim = server.kill_worker()
                    if victim:
                        print(f"  chaos         SIGKILL -> {victim}",
                              file=sys.stderr)

            chaos_threads.append(threading.Thread(
                target=_kill_loop, name="chaos-kill", daemon=True))

        if args.chaos_tamper_cache > 0:
            def _tamper_loop():
                for k in range(1, args.chaos_tamper_cache + 1):
                    if not _reached(k, args.chaos_tamper_cache):
                        return
                    flipped = tamper_cache_dir(server.cache_dir)
                    _count("tamper_flips", flipped)
                    print(f"  chaos         bit-flipped {flipped} "
                          f"cached artifact(s)", file=sys.stderr)

            chaos_threads.append(threading.Thread(
                target=_tamper_loop, name="chaos-tamper", daemon=True))

        if args.chaos_stale_key > 0:
            def _stale_key_loop():
                from ..trust.errors import KeyVaultError

                if not _reached(1, 1):
                    return
                # Rotate to v2, revoke v1, then hammer with v1-pinned
                # requests: every one must draw a typed rejection.
                keyvault.rotate("default")
                keyvault.revoke("default", 1)
                for i in range(args.chaos_stale_key):
                    request = _attack_request(f"stale-key-{i}")
                    request.key_version = 1
                    _count("stale_key_sent")
                    try:
                        server.submit(request)
                    except KeyVaultError:
                        _count("stale_key_rejected")
                    else:
                        _count("stale_key_leaked")
                    if stop_chaos.wait(0.02):
                        return

            chaos_threads.append(threading.Thread(
                target=_stale_key_loop, name="chaos-stale-key",
                daemon=True))

        if args.chaos_replay > 0:
            def _replay_loop():
                from ..trust.errors import ReplayError
                from ..trust.freshness import EnvelopeMinter

                if not _reached(1, 1):
                    return
                envelope = EnvelopeMinter(sender="loadgen-attacker").mint()
                probe = _attack_request("replay-probe")
                probe.envelope = envelope
                probe_handle = None
                try:
                    probe_handle = server.submit(probe)
                    _count("replay_probe_sent")
                except Exception:
                    _count("replay_probe_failed")
                for i in range(args.chaos_replay):
                    replayed = _attack_request(f"replay-{i}")
                    replayed.envelope = envelope
                    _count("replay_sent")
                    try:
                        server.submit(replayed)
                    except ReplayError:
                        _count("replay_rejected")
                    else:
                        _count("replay_leaked")
                    if stop_chaos.wait(0.02):
                        return
                if probe_handle is not None:
                    try:
                        probe_handle.result(timeout=RESULT_TIMEOUT_S)
                    except Exception:
                        pass

            chaos_threads.append(threading.Thread(
                target=_replay_loop, name="chaos-replay", daemon=True))

        for thread in chaos_threads:
            thread.start()
        start = time.monotonic()
        if args.mode == "open":
            results = generator.run_open_loop(args.requests, args.rate,
                                              args.machine)
        else:
            results = generator.run_closed_loop(args.requests,
                                                args.concurrency,
                                                args.machine)
        server.drain()
        duration = time.monotonic() - start
        stop_chaos.set()
        for thread in chaos_threads:
            thread.join(timeout=5)
        if args.chaos_kill_worker > 0:
            # A kill drill ends with the fleet whole again, so report
            # and trace show every replacement, however short the run.
            server.wait_ready(timeout=60)
        report = build_report(
            server, results, duration, mode=args.mode,
            machine=args.machine, scale=args.scale,
            offered=args.requests, per_class=generator._sent_per_class)
        report.chaos.update(attacks)
        print(report.render())
        if args.metrics_out:
            snapshot = server.metrics_snapshot()
            snapshot["loadgen"] = report.as_dict()
            with open(args.metrics_out, "w") as handle:
                json.dump(snapshot, handle, indent=2)
            print(f"  metrics JSON  {args.metrics_out}")
        if args.trace_out:
            server.export_trace(args.trace_out)
            print(f"  trace JSON    {args.trace_out}")
        if args.obs_trace_out:
            from ..obs import export_chrome_trace

            events = export_chrome_trace(args.obs_trace_out)
            print(f"  chrome trace  {args.obs_trace_out} "
                  f"({events} events)")

    if args.fail_on_errors and report.failed:
        print(f"loadgen: FAIL — {report.failed} request(s) not served OK",
              file=sys.stderr)
        return 1
    if args.fail_on_errors:
        leaked = sum(v for k, v in report.chaos.items()
                     if str(k).endswith("_leaked"))
        if leaked:
            print(f"loadgen: FAIL — {leaked} attack(s) leaked past the "
                  f"trust layer", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
