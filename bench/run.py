#!/usr/bin/env python3
"""The repository's benchmark: four workloads, checked outputs, one JSON.

    python3 bench/run.py [--seed N] [--quick] [--trace] [--out FILE]
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare --base A.json... --new B.json...

Without ``--workload`` every workload runs in a fresh subprocess and one
combined result is written.  With it, this process *is* the fresh
subprocess: it runs that workload, prints every metric by name with its
unit, and ends with the one-line JSON object described in BENCHMARK.json's
contract.  See bench/README.md.
"""

import time

PROCESS_STARTED = time.perf_counter()   # before any import that costs

import argparse                         # noqa: E402
import contextlib                       # noqa: E402
import json                             # noqa: E402
import os                               # noqa: E402
import shutil                           # noqa: E402
import statistics                       # noqa: E402
import subprocess                       # noqa: E402
import sys                              # noqa: E402
from pathlib import Path                # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1
#: Extra set-up-only subprocesses per timed run; set-up is reported as the
#: median over them and the run's own.  encrypted_exec sets up for ~20 s
#: (compile + key generation), long enough to be steady measured once.
SETUP_REPEATS = {"cold_compile": 2, "encrypted_exec": 0,
                 "serve_warm": 1, "serve_thrash": 1}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in "
                        "this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each workload's timed section "
                        "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="traced run: spans on, reduced "
                        "counts, per-layer metrics")
    parser.add_argument("--trace-out", help="write the spans here at exit")
    parser.add_argument("--quick", action="store_true", help="one round / "
                        "60 requests per phase, smallest programs")
    parser.add_argument("--out", help="write the JSON result here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--compare", action="store_true")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    return parser.parse_args(argv)


def _context(seed: int, loadavg) -> dict:
    import numpy

    from bench import surface

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(loadavg),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel_backend": surface.get_backend().name,
        "git_commit": commit,
        "seed": seed,
    }


def _own_command(args, *extra) -> list:
    return [sys.executable, str(Path(__file__).resolve()),
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            *(["--quick"] if args.quick else []), *extra]


def _setup_samples(args) -> list:
    """Set-up times of fresh set-up-only subprocesses."""
    samples = []
    if args.quick or args.trace:
        return samples
    for _ in range(SETUP_REPEATS[args.workload]):
        done = subprocess.run(
            _own_command(args, "--workload", args.workload, "--setup-only"),
            capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"set-up-only run failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


@contextlib.contextmanager
def _scratch(name: str):
    """A directory under ``.bench_work/`` in the checkout, gone on exit."""
    path = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):   # another run still uses it
            path.parent.rmdir()


def run_workload(args) -> int:
    from bench import spec
    from bench.common import RunConfig, SetupClock, Tally
    from bench.spans import SpanRecorder

    if args.workload not in spec.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    loadavg = os.getloadavg()
    with _scratch(args.workload) as work_dir:
        # Everything the library spills (the router's shared cache
        # directory, worker scratch) lands under the checkout.
        os.environ["TMPDIR"] = str(work_dir)
        from bench import batch, serving

        workload = {"cold_compile": batch.cold_compile,
                    "encrypted_exec": batch.encrypted_exec,
                    "serve_warm": serving.serve_warm,
                    "serve_thrash": serving.serve_thrash}[args.workload]
        cfg = RunConfig(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            quick=args.quick, work_dir=work_dir,
            recorder=SpanRecorder(enabled=bool(args.trace)),
            setup_only=args.setup_only)
        tally, setup = Tally(), SetupClock(PROCESS_STARTED)
        outcome = workload(cfg, tally, setup)
        if args.setup_only:
            print(json.dumps({"setup_s": setup.total}))
            return 0
        # Only now, so the repeats neither disturb the timed section nor
        # count towards this process's own set-up.
        setup_samples = [setup.total] + _setup_samples(args)
        outcome.metrics["setup_s"] = statistics.median(setup_samples)
        context = _context(args.seed, loadavg)
        if args.trace_out:
            cfg.recorder.write(args.trace_out)

    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit,
               "better": better, "bound": bound}
        for name, (unit, better, bound, where) in spec.END_TO_END.items()
        if args.workload in where and name in outcome.metrics}
    contract = {
        name: {"value": value, "unit": spec.CONTRACT[name][0]}
        for name, value in spec.contract_view(
            args.workload, outcome.metrics, outcome.ops_per_s).items()}
    per_layer = {
        name: {"value": outcome.layers.get(name, 0), "unit": unit}
        for name, (unit, _better) in spec.PER_LAYER.items()} \
        if args.trace else {}
    result = {
        "schema": SCHEMA, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "quick": args.quick, "correct": tally.failed == 0,
        "ops_attempted": tally.attempted, "ops_failed": tally.failed,
        "failures": tally.failures, "metrics": metrics,
        "contract": contract, "per_layer": per_layer,
        "self_s_by_layer": cfg.recorder.self_by_layer(),
        "counts": outcome.counts, "detail": outcome.detail,
        "setup_samples_s": setup_samples,
        "wall_s": time.perf_counter() - started, "context": context,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))

    _print_metrics(args.workload, metrics, "end-to-end")
    if args.trace:
        measured = {k: v for k, v in per_layer.items()
                    if k in outcome.layers}
        _print_metrics(args.workload, measured, "per-layer")
        for layer, seconds in sorted(result["self_s_by_layer"].items()):
            print(f"{args.workload:15s} self time in {layer:10s} "
                  f"{seconds:.4f} s")
    print(f"{args.workload:15s} ops_attempted {tally.attempted} "
          f"ops_failed {tally.failed}")
    for failure in tally.failures:
        print(f"{args.workload:15s} FAILED {failure}")
    print(json.dumps({
        "correct": result["correct"], "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": per_layer if args.trace else contract}))
    return 0 if result["correct"] else 1


def _print_metrics(workload: str, metrics: dict, kind: str) -> None:
    for name, m in metrics.items():
        bound = (f"  ({m['better']} is better, bound "
                 f"{100 * m['bound']:g}%)" if "bound" in m else "")
        value = m["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{workload:15s} {kind:10s} {name:32s} {shown} "
              f"{m['unit']}{bound}")


def run_suite(args) -> int:
    from bench import spec

    started = time.perf_counter()
    results, status = {}, 0
    with _scratch("suite") as out_dir:
        for name in spec.WORKLOADS:
            out = out_dir / f"{name}.json"
            extra = ["--workload", name, "--trace", str(args.trace),
                     "--out", str(out)]
            if args.trace_out:
                extra += ["--trace-out", f"{args.trace_out}.{name}"]
            code = subprocess.run(_own_command(args, *extra),
                                  timeout=600).returncode
            status = max(status, code)
            if out.exists():
                results[name] = json.loads(out.read_text())
    document = {
        "schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "quick": args.quick,
        "correct": status == 0 and len(results) == len(spec.WORKLOADS),
        "wall_s": time.perf_counter() - started,
        "end_to_end": {
            name: {"unit": unit, "better": better, "bound": bound,
                   "workloads": list(where)}
            for name, (unit, better, bound, where)
            in spec.END_TO_END.items()},
        "workloads": results,
    }
    out_path = Path(args.out or "bench_result.json")
    out_path.write_text(json.dumps(document, indent=1))
    print(f"wrote {out_path} ({document['wall_s']:.1f} s, "
          f"{'all checks passed' if document['correct'] else 'FAILED'})")
    return 0 if document["correct"] else 1


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.compare:
        sys.path.insert(0, str(ROOT))
        from bench.compare import compare

        return compare(args.base, args.new)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT}/src/repro not found: the benchmark measures the "
              "library in this checkout and cannot run without it",
              file=sys.stderr)
        return 2
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    if args.seconds is None:
        from bench import spec

        args.seconds = float(spec.RUN_SECONDS)
    if args.workload:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
