"""Byte-identity check of the command-line reports of two source trees.

    python3 tools/report_identity.py --baseline ../parent-checkout --seeds 0-5

For each seed, the configs of the ``perfbench`` ``cli`` workload (its nine
modes, drawn from the seed as that workload draws them, and its two
``FAULTY`` configs) are written to a scratch directory, with three configs
whose interferometer is a matrix file: a 3x3 unitary for ``quantum`` and
``oracle`` and a 2x3 transfer map for ``classical-analytic``, drawn from a
stream of the seed of their own, and a ``classical-mc`` config of 100 shots
in the default batches, which the sampler cuts into batches of two shots.
Each config then runs
as ``python -m multiport --config NAME.json --out NAME.out.json`` in a fresh
process, once with this checkout's ``src/`` and once with the baseline's on
``PYTHONPATH``. The two runs must give the same exit code, standard output,
standard error (with each tree's path masked) and ``--out`` bytes.
``--baseline .`` checks that reruns of one tree are byte-identical.

Each difference is printed on a line of its own; the last line of standard
output is a JSON summary. The exit status is 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120
# the children run as the perfbench cli workload runs them, on one BLAS thread
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_seeds(text: str) -> list[int]:
    """Seeds such as ``0``, ``0-5`` or ``1,3,7-9``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def file_configs(seed: int, workdir: Path) -> dict[str, dict]:
    """Configs that read their interferometer from a matrix file; writes the files."""
    from cli_workload import classical_record, quantum_record

    from multiport import random_unitary, save_matrix

    rng = np.random.default_rng([seed, 5])
    save_matrix(random_unitary(3, int(rng.integers(0, 2**31))).matrix, workdir / "unitary.txt")
    save_matrix(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)), workdir / "transfer.txt")
    unitary = {"file": "unitary.txt"}
    return {
        "quantum-file": {
            "mode": "quantum",
            "interferometer": unitary,
            "sources": [quantum_record(rng) for _ in range(3)],
        },
        "oracle-file": {
            "mode": "oracle",
            "interferometer": unitary,
            "sources": [{"kind": "fock", "n": 1}] * 3,
        },
        "classical-analytic-file": {
            "mode": "classical-analytic",
            "interferometer": {"file": "transfer.txt"},
            "sources": [classical_record(rng) for _ in range(3)],
        },
    }


def write_configs(seed: int, workdir: Path) -> list[str]:
    """Write the cli workload's configs, the file configs and the two-shot
    batch config for ``seed``; returns their names."""
    from cli_workload import FAULTY, configs

    rng = np.random.default_rng([seed, 4])
    cfgs = {name: {"mode": name, **cfg} for name, cfg in configs(rng, workdir).items()}
    cfgs.update(FAULTY)
    cfgs.update(file_configs(seed, workdir))
    cfgs["classical-mc-two-shot-batches"] = {
        "mode": "classical-mc",
        "interferometer": {"ftm": 2},
        "sources": [{"kind": "fixed", "amplitude": 1}, {"kind": "fixed", "amplitude": 1}],
        "shots": 100,
        "seed": seed,
    }
    for name, cfg in cfgs.items():
        (workdir / f"{name}.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return list(cfgs)


def run_cli(tree: Path, workdir: Path, name: str) -> dict:
    """Exit code, stdout, masked stderr and ``--out`` bytes of one config."""
    out = workdir / f"{name}.out.json"
    out.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), **dict.fromkeys(BLAS_VARS, "1")}
    proc = subprocess.run(
        [sys.executable, "-m", "multiport", "--config", f"{name}.json", "--out", out.name],
        cwd=workdir,
        env=env,
        capture_output=True,
        timeout=TIMEOUT_S,
    )
    return {
        "exit code": proc.returncode,
        "stdout": proc.stdout,
        "stderr": proc.stderr.replace(str(tree).encode(), b"<tree>"),
        "out": out.read_bytes() if out.exists() else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True, help="root of the other checkout")
    parser.add_argument("--seeds", type=parse_seeds, default=[0], help="e.g. 0, 0-5 or 1,3")
    args = parser.parse_args(argv)
    baseline = args.baseline.resolve()
    if not (baseline / "src" / "multiport").is_dir():
        parser.error(f"no src/multiport under {baseline}")
    # the workload module imports multiport; the configs it draws do not depend on the tree
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

    differences, runs = [], 0
    with tempfile.TemporaryDirectory(prefix="report-identity-") as tmp:
        for seed in args.seeds:
            workdir = Path(tmp) / str(seed)
            workdir.mkdir()
            for name in write_configs(seed, workdir):
                ours, theirs = run_cli(ROOT, workdir, name), run_cli(baseline, workdir, name)
                runs += 1
                for key in ours:
                    if ours[key] != theirs[key]:
                        differences.append({"seed": seed, "config": name, "differs": key})
                        print(f"seed {seed} {name}: {key} differs", flush=True)
    summary = {
        "tree": str(ROOT),
        "baseline": str(baseline),
        "seeds": args.seeds,
        "configs": runs,
        "differences": len(differences),
    }
    print(json.dumps(summary))
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
