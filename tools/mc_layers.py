"""Monte Carlo layer benchmark: time ``mc_estimate_gbar`` and its stages on
fixed setups and write a JSON record.

    python tools/mc_layers.py --seconds 120 --baseline ../parent-checkout --out BENCH_<n>.json

Each source tree (this checkout's ``src/``, and the ``--baseline`` checkout's
if given) runs in its own worker process, which imports ``multiport`` from
that tree, warms up and then times one round of the setups whenever the
driver asks; the driver alternates rounds between the trees until
``--seconds`` have passed, so both see the same host. The setups, with fixed
seeds:

* ``cross-check-fixed``: three fixed sources on a phased 3-mode Fourier
  interferometer, 10^6 shots (the fixed twin of ``perfbench`` cross-check);
* ``cross-check-pseudo-thermal``: four pseudo-thermal sources on a phased
  4-mode Fourier interferometer, 7 x 10^5 shots (its pseudo-thermal twin);
* ``overlap-32-rank3``: 32 sources, half fixed and half pseudo-thermal, on a
  Haar-random 32-mode interferometer with rank-3 mode overlaps, 10^5 shots.

All use 100 batches. The workers run with one BLAS thread unless
``--default-blas-threads`` is given. After the whole estimates, a round
runs each setup once more on one sampler thread with the engine's stages
wrapped in timers, so the stages see the estimate's own chunk layout:
``draws`` (both streams), ``phasors``, ``picks``, ``propagation`` and
``sums``; ``other`` is the rest of that estimate (folding the picks in,
the loop, the report). Each tree's worker wraps the stage functions that
tree has, by name (``STAGE_NAMES``), so trees whose engines split the
stages differently are timed alike. The JSON records, per tree and setup, the median
and quartiles of the wall time, the shots per second at the median, and the
median and quartiles of each stage in ns per shot; per tree, the worker's
peak RSS, the tree's commit (and whether its files differ from it); and
numpy, BLAS and the CPU count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHOTS = {"cross-check-fixed": 1_000_000, "cross-check-pseudo-thermal": 700_000, "overlap-32-rank3": 100_000}
SETUPS = tuple(SHOTS)
BATCHES = 100


def build_setups(mp, np):
    """(setup, seed) by name, from fixed seeds."""
    rng = np.random.default_rng(16)

    def phased_ftm(m):
        d1, d2 = np.exp(2j * np.pi * rng.random(m)), np.exp(2j * np.pi * rng.random(m))
        return d1[:, None] * mp.ftm(m).matrix * d2[None, :]

    fixed = mp.ClassicalSetup(phased_ftm(3), (mp.fixed_source(np.sqrt(0.5)),) * 3)
    thermal = mp.ClassicalSetup(phased_ftm(4), (mp.pseudo_thermal_source(0.12),) * 4)
    sources = tuple(
        mp.fixed_source(float(rng.uniform(0.3, 1.5))) if k % 2 else mp.pseudo_thermal_source(float(rng.uniform(0.2, 2.0)))
        for k in range(32)
    )
    vectors = rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    gram = vectors @ vectors.conj().T
    np.fill_diagonal(gram, 1.0)
    overlap = mp.ClassicalSetup(mp.random_unitary(32, 7).matrix, sources, overlap=mp.OverlapMatrix(gram))
    return {"cross-check-fixed": (fixed, 11), "cross-check-pseudo-thermal": (thermal, 12), "overlap-32-rank3": (overlap, 13)}


STAGES = ("draws", "phasors", "picks", "propagation", "sums")
# the engine's module names that a stage-timed estimate replaces: each tree
# wraps the ones it has
STAGE_NAMES = {
    "phasors": "_phasors",
    "picks": "_pick_amplitudes",
    "propagation": "_detected_intensities",
    "sums": "batch_sums",
}


@contextlib.contextmanager
def timed_stages(engine, seconds: dict):
    """Run the engine's estimates on one thread, with its stages wrapped in
    timers that add to ``seconds``; the draws are timed per generator call."""
    def timed(stage, fn):
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[stage] += time.perf_counter() - start
        return run

    class Stream:
        def __init__(self, generator):
            self.random = timed("draws", generator.random)

    stage_of = {name: stage for stage, name in STAGE_NAMES.items() if hasattr(engine, name)}
    saved = {name: getattr(engine, name) for name in ("_generator_at", "_worker_count", *stage_of)}
    engine._generator_at = lambda stream, draws: Stream(saved["_generator_at"](stream, draws))
    engine._worker_count = lambda batches, draws: 1
    for name, stage in stage_of.items():
        setattr(engine, name, timed(stage, saved[name]))
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(engine, name, value)


def worker(src: str) -> None:
    """Time one round of every setup, then of its stages, per line read from
    stdin; print the peak RSS at end of input."""
    sys.path.insert(0, src)
    import numpy as np

    import multiport as mp
    import multiport.classical_engine as engine

    setups = build_setups(mp, np)
    for name, (setup, seed) in setups.items():  # warm-up
        mp.mc_estimate_gbar(setup, SHOTS[name] // 10, seed, BATCHES)
    print(json.dumps({"ready": True}), flush=True)
    for _ in sys.stdin:
        times, stages = {}, {}
        for name, (setup, seed) in setups.items():
            start = time.perf_counter()
            mp.mc_estimate_gbar(setup, SHOTS[name], seed, BATCHES)
            times[name] = time.perf_counter() - start
        for name, (setup, seed) in setups.items():
            seconds = dict.fromkeys(STAGES, 0.0)
            with timed_stages(engine, seconds):
                start = time.perf_counter()
                mp.mc_estimate_gbar(setup, SHOTS[name], seed, BATCHES)
                seconds["other"] = time.perf_counter() - start - sum(seconds.values())
            stages[name] = seconds
        print(json.dumps({"times": times, "stages": stages}), flush=True)
    import resource

    print(json.dumps({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}), flush=True)


def describe(tree: Path) -> dict:
    """The tree's commit, and whether its tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True).stdout.strip()

    return {"commit": git("rev-parse", "HEAD") or None, "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no"))}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(values, n=4, method="inclusive")) if len(values) > 1 else tuple(values * 3)


def summary(times: list[float], stages: list[dict], shots: int) -> dict:
    q1, median, q3 = quartiles(times)
    per_shot = {
        stage: dict(zip(("q1", "median", "q3"), quartiles([s[stage] * 1e9 / shots for s in stages])))
        for stage in (*STAGES, "other")
    }
    return {
        "rounds": len(times),
        "median_ms": median * 1e3,
        "q1_ms": q1 * 1e3,
        "q3_ms": q3 * 1e3,
        "shots_per_s": shots / median,
        "stages_ns_per_shot": per_shot,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--baseline", type=Path, help="another checkout to time in alternation")
    parser.add_argument("--default-blas-threads", action="store_true")
    parser.add_argument("--out", type=Path, help="the JSON record to write (required)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if args.out is None:  # no default: a plain run must not overwrite a committed record
        parser.error("--out is required")

    import numpy as np

    trees = {"change": ROOT}
    if args.baseline is not None:
        trees = {"baseline": args.baseline.resolve(), **trees}
    env = dict(os.environ)
    if not args.default_blas_threads:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    workers = {
        label: subprocess.Popen(
            [sys.executable, __file__, "--worker", str(tree / "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        for label, tree in trees.items()
    }
    for proc in workers.values():
        json.loads(proc.stdout.readline())
    times = {label: {name: [] for name in SETUPS} for label in trees}
    stages = {label: {name: [] for name in SETUPS} for label in trees}
    start, order = time.perf_counter(), list(workers)
    while time.perf_counter() - start < args.seconds:
        for label in order:
            workers[label].stdin.write("round\n")
            workers[label].stdin.flush()
            done = json.loads(workers[label].stdout.readline())
            for name in SETUPS:
                times[label][name].append(done["times"][name])
                stages[label][name].append(done["stages"][name])
        order.reverse()  # each tree goes first in every other pair of rounds
    results = {}
    for label, proc in workers.items():
        proc.stdin.close()
        rss = json.loads(proc.stdout.readlines()[-1])["peak_rss_mb"]
        proc.wait()
        results[label] = {
            **describe(trees[label]),
            "peak_rss_mb": rss,
            "setups": {name: summary(times[label][name], stages[label][name], SHOTS[name]) for name in SETUPS},
        }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "benchmark": "mc_estimate_gbar, alternating rounds per source tree",
        "seconds": args.seconds,
        "batches": BATCHES,
        "blas_threads": "default" if args.default_blas_threads else 1,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "results": results,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for label, result in results.items():
        for name, stats in result["setups"].items():
            print(f"{label:9s} {name:28s} median {stats['median_ms']:8.1f} ms "
                  f"(q1 {stats['q1_ms']:.1f}, q3 {stats['q3_ms']:.1f}, {stats['rounds']} rounds)")
            print(f"{'':9s} {'ns per shot, one thread:':28s} " + ", ".join(
                f"{stage} {q['median']:.1f}" for stage, q in stats["stages_ns_per_shot"].items()))
        print(f"{label:9s} peak RSS {result['peak_rss_mb']:.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
