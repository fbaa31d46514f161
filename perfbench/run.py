"""Benchmark of the multiport package: certificates per second end to end,
and time per module from a traced run.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 45 --trace 0

``--workload`` is one of closed-form, shot-statistics, cross-check, cli or
``all``. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with spans around every call into multiport, then one round of each
other workload, prints the per-layer metrics and writes the spans to
``perfbench/out/``. The last line of standard output is one JSON object.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the figures must not depend on what else runs on the host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5


def import_program():
    """Import multiport from this checkout's src/, never from elsewhere."""
    if not (SRC / "multiport" / "__init__.py").is_file():
        sys.exit(f"perfbench: no multiport package under {SRC}")
    sys.path.insert(0, str(SRC))
    import multiport

    if Path(multiport.__file__).resolve().parent != SRC / "multiport":
        sys.exit(f"perfbench: imported multiport from {multiport.__file__}, not {SRC}")


def workloads() -> dict:
    import cli_workload
    import closed_form
    import cross_check
    import shot_statistics

    return {m.NAME: m for m in (closed_form, shot_statistics, cross_check, cli_workload)}


def set_up(module, seed: int, workdir: Path):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return module.setup(seed, workdir)


def run_untraced(module, seed: int, seconds: float, workdir: Path) -> dict:
    from harness import end_to_end, measure
    from tracing import OFF

    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = set_up(module, seed, workdir)
        times.append(time.perf_counter() - start)
    out = measure(ops, seconds, OFF)
    metrics = end_to_end(out, times, getattr(module, "PEAK_RSS_OF_CHILDREN", False))
    return report(module.NAME, out, metrics)


def run_traced(module, seed: int, seconds: float, workdir: Path, everything: dict) -> dict:
    from harness import Outcome, measure, ops_per_s, run_round
    from layers import per_layer
    from tracing import Tracer

    tracer = Tracer()
    tracer.workload = module.NAME
    ops = set_up(module, seed, workdir)
    out = measure(ops, seconds, tracer)
    traced_rate = ops_per_s(out)
    others = Outcome()
    for other in everything.values():
        if other is not module:
            tracer.workload = other.NAME
            run_round(set_up(other, seed, workdir), tracer, others)
    tracer.workload = "cli"
    everything["cli"].probe_imports(tracer)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{module.NAME}-seed{seed}.jsonl"
    tracer.write(trace_path)
    print(f"traced ops_per_s {traced_rate:.6g} 1/s on {module.NAME}; spans in {trace_path}")
    # attempted and failed count the traced workload alone, so that their
    # ratio stays that of its whole rounds; wrong outputs count everywhere
    out.wrong += others.wrong
    return report(module.NAME, out, per_layer(tracer.spans))


def report(name: str, out, metrics: dict) -> dict:
    print(f"{name}: {out.rounds} rounds, {out.attempted} attempted, {out.failed} failed")
    for (op, reason), count in sorted(out.failures.items()):
        print(f"  failed {count}x {op}: {reason}")
    for problem in out.wrong[:20]:
        print(f"  WRONG {problem}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:44s} {value:14.6g} {unit}")
    return {
        "correct": not out.wrong,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    everything = workloads()
    names = list(everything) if args.workload == "all" else [args.workload]
    if any(n not in everything for n in names):
        parser.error(f"--workload must be one of {', '.join(everything)} or all")
    results = {}
    for name in names:
        workdir = OUT / f"work-{name}-{os.getpid()}"
        try:
            if args.trace:
                results[name] = run_traced(everything[name], args.seed, args.seconds, workdir, everything)
            else:
                results[name] = run_untraced(everything[name], args.seed, args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
