"""Command-line start-up benchmark: time each mode's process and
``import multiport.cli`` on fixed configs, and write a JSON record.

    python tools/cli_startup.py --seconds 120 --baseline ../parent-checkout --out BENCH_<n>.json

The configs are those of the ``perfbench`` ``cli`` workload (its nine
modes), drawn from ``--seed`` as that workload draws them. Each is run as
``python -m multiport --config MODE.json --out MODE.out.json`` in a fresh
process, with one BLAS thread and this checkout's ``src/`` (or the
``--baseline`` checkout's) on ``PYTHONPATH``; ``import`` is a fresh
``python -c "import multiport.cli"``. A round times every mode once per
tree, and the trees alternate which goes first, until ``--seconds`` have
passed, so both see the same host; every tree first runs each mode once
untimed, to warm the page cache and any byte-code cache. A run that exits
non-zero stops the benchmark. The JSON records, per tree and mode, the
median and quartiles of the process wall time; per tree, the tree's commit
(and whether its files differ from it); and Python, numpy, the CPU count and
whether byte code is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mc_layers import describe, quartiles

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT = "import"


def write_configs(seed: int, workdir: Path) -> list[str]:
    """Write the cli workload's nine configs for ``seed``; returns the modes."""
    import numpy as np
    from cli_workload import configs

    cfgs = configs(np.random.default_rng([seed, 4]), workdir)
    for mode, cfg in cfgs.items():
        (workdir / f"{mode}.json").write_text(json.dumps({"mode": mode, **cfg}, indent=1), encoding="utf-8")
    return list(cfgs)


def timed_run(tree: Path, workdir: Path, mode: str) -> float:
    """Wall time of one fresh process for ``mode`` (or the import) on ``tree``."""
    if mode == IMPORT:
        command = [sys.executable, "-c", "import multiport.cli"]
    else:
        command = [sys.executable, "-m", "multiport", "--config", f"{mode}.json", "--out", f"{mode}.out.json"]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), **dict.fromkeys(BLAS_VARS, "1")}
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {mode} exited {proc.returncode}: {proc.stderr.decode(errors='replace')}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--baseline", type=Path, help="another checkout to time in alternation")
    parser.add_argument("--seed", type=int, default=1, help="the cli workload seed the configs are drawn from")
    parser.add_argument("--out", type=Path, required=True, help="the JSON record to write")
    args = parser.parse_args(argv)
    # the workload module imports multiport; the configs it draws do not depend on the tree
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import numpy as np

    trees = {"change": ROOT}
    if args.baseline is not None:
        trees = {"baseline": args.baseline.resolve(), **trees}
    with tempfile.TemporaryDirectory(prefix="cli-startup-") as tmp:
        workdir = Path(tmp)
        modes = [IMPORT, *write_configs(args.seed, workdir)]
        for tree in trees.values():
            for mode in modes:
                timed_run(tree, workdir, mode)
        times = {label: {mode: [] for mode in modes} for label in trees}
        start, order = time.perf_counter(), list(trees)
        while time.perf_counter() - start < args.seconds:
            for label in order:
                for mode in modes:
                    times[label][mode].append(timed_run(trees[label], workdir, mode))
            order.reverse()  # each tree goes first in every other round
    results = {}
    for label, tree in trees.items():
        per_mode = {}
        for mode, values in times[label].items():
            q1, median, q3 = quartiles(values)
            per_mode[mode] = {"rounds": len(values), "median_ms": median * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3}
        results[label] = {**describe(tree), "modes": per_mode}
    record = {
        "benchmark": "process wall time per command-line mode, alternating rounds per source tree",
        "seconds": args.seconds,
        "seed": args.seed,
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "results": results,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for label, result in results.items():
        for mode, stats in result["modes"].items():
            print(f"{label:9s} {mode:19s} median {stats['median_ms']:7.1f} ms "
                  f"(q1 {stats['q1_ms']:.1f}, q3 {stats['q3_ms']:.1f}, {stats['rounds']} rounds)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
