"""Monte Carlo layer benchmark: time ``mc_estimate_gbar`` on fixed setups and
write ``BENCH_16.json``.

    python tools/mc_layers.py --seconds 60 --baseline ../parent-checkout

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
``--default-blas-threads`` is given. The JSON records, per tree and setup,
the median and quartiles of the wall time and the shots per second at the
median, the worker's peak RSS, the tree's commit (and whether its files
differ from it), numpy, BLAS and the CPU count.
"""

from __future__ import annotations

import argparse
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


def worker(src: str) -> None:
    """Time one round of every setup per line read from stdin; print the
    peak RSS at end of input."""
    sys.path.insert(0, src)
    import numpy as np

    import multiport as mp

    setups = build_setups(mp, np)
    for name, (setup, seed) in setups.items():  # warm-up
        mp.mc_estimate_gbar(setup, SHOTS[name] // 10, seed, BATCHES)
    print(json.dumps({"ready": True}), flush=True)
    for _ in sys.stdin:
        times = {}
        for name, (setup, seed) in setups.items():
            start = time.perf_counter()
            mp.mc_estimate_gbar(setup, SHOTS[name], seed, BATCHES)
            times[name] = time.perf_counter() - start
        print(json.dumps(times), flush=True)
    import resource

    print(json.dumps({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}), flush=True)


def describe(tree: Path) -> dict:
    """The tree's commit, and whether its tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True).stdout.strip()

    return {"commit": git("rev-parse", "HEAD") or None, "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no"))}


def summary(times: list[float], shots: int) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else times * 3
    return {
        "rounds": len(times),
        "median_ms": median * 1e3,
        "q1_ms": q1 * 1e3,
        "q3_ms": q3 * 1e3,
        "shots_per_s": shots / median,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--baseline", type=Path, help="another checkout to time in alternation")
    parser.add_argument("--default-blas-threads", action="store_true")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_16.json")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0

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
    start, order = time.perf_counter(), list(workers)
    while time.perf_counter() - start < args.seconds:
        for label in order:
            workers[label].stdin.write("round\n")
            workers[label].stdin.flush()
            for name, seconds in json.loads(workers[label].stdout.readline()).items():
                times[label][name].append(seconds)
        order.reverse()  # each tree goes first in every other pair of rounds
    results = {}
    for label, proc in workers.items():
        proc.stdin.close()
        rss = json.loads(proc.stdout.readlines()[-1])["peak_rss_mb"]
        proc.wait()
        results[label] = {
            **describe(trees[label]),
            "peak_rss_mb": rss,
            "setups": {name: summary(times[label][name], SHOTS[name]) for name in SETUPS},
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
        print(f"{label:9s} peak RSS {result['peak_rss_mb']:.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
