"""Workload ``cli``: ``multiport --config ... --out ...`` in a fresh process
for each of the nine modes, on small configs.

This is what a user runs: interpreter and numpy start-up, config parsing and
JSON writing dominate, so a faster engine should leave it unchanged. Each
round also reruns one config (the report must be byte-identical) and runs
two configs that show faults of the program; those two count as failed until
the faults are mended:

* ``oracle-ftm2-coherent``: the oracle's pruning biases gbar of two coherent
  inputs to just below the classical bound 1/2, and the verdict ignores
  ``pruned_mass``, so coherent light is reported ``nonclassical``. Correct
  once the verdict is not ``nonclassical`` or the config is refused (exit 4).
* ``classical-mc-one-batch``: with ``"batches": 1`` the batch stderr is NaN,
  and the report holds a bare ``NaN``, which is not JSON. Correct once the
  report is strict JSON or the config is refused (exit 2 or 4).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
from harness import Op
from shot_statistics import simulated_intensities, write_records

NAME = "cli"
PEAK_RSS_OF_CHILDREN = True
SRC = Path(__file__).resolve().parents[1] / "src"
TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def invoke(workdir: Path, name: str) -> tuple[int, bytes, bytes]:
    out = workdir / f"{name}.out.json"
    out.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "multiport", "--config", f"{name}.json", "--out", out.name],
        cwd=workdir,
        env=child_env(),
        capture_output=True,
        timeout=TIMEOUT_S,
    )
    return proc.returncode, out.read_bytes() if out.exists() else b"", proc.stderr


def classical_record(rng) -> dict:
    if rng.random() < 0.5:
        return {"kind": "fixed", "amplitude": float(rng.uniform(0.3, 1.5))}
    return {"kind": "pseudo-thermal", "mean_intensity": float(rng.uniform(0.2, 2.0))}


def quantum_record(rng) -> dict:
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return {"kind": "fock", "n": int(rng.integers(1, 3))}
    if kind == 1:
        return {"kind": "coherent", "mean": float(rng.uniform(0.2, 2.0))}
    if kind == 2:
        return {"kind": "thermal", "mean": float(rng.uniform(0.2, 1.5))}
    return {"kind": "squeezed", "r": float(rng.uniform(0.2, 0.8))}


def configs(rng, workdir: Path) -> dict[str, dict]:
    """The nine modes' configs, drawn from ``rng``; writes the ingest records."""
    seeds = [int(s) for s in rng.integers(0, 2**31, size=5)]
    data = simulated_intensities(rng, 2000, 4)
    write_records(workdir / "records.txt", data, rng)
    return {
        "classical-analytic": {
            "interferometer": {"random": {"dim": 8, "seed": seeds[0]}},
            "sources": [classical_record(rng) for _ in range(8)],
        },
        "classical-mc": {
            "interferometer": {"ftm": 4},
            "sources": [classical_record(rng) for _ in range(4)],
            "shots": 20_000,
            "batches": 50,
            "seed": seeds[1],
        },
        "quantum": {
            "interferometer": {"direct_sum": [{"ftm": 4}, {"random": {"dim": 4, "seed": seeds[2]}}]},
            "sources": [quantum_record(rng) for _ in range(8)],
            "detectors": sorted(int(d) for d in rng.choice(8, size=6, replace=False)),
        },
        "oracle": {
            "interferometer": {"random": {"dim": 3, "seed": seeds[3]}},
            "sources": [{"kind": "fock", "n": 1}] * 3,
        },
        "bounds": {"m_min": 2, "m_max": int(rng.integers(8, 13)), "eta": float(rng.uniform(0.0, 1.0))},
        "optimize": {"n_sources": 3, "n_detectors": 3, "restarts": 5, "seed": seeds[4]},
        "witness": {
            "gbar": float(rng.uniform(0.5, 1.0)),
            "stderr": 0.01,
            "n_sources": 4,
            "n_detectors": 4,
        },
        "divisibility": {
            "interferometer": {"direct_sum": [{"ftm": 3}, {"ftm": 3}]},
            "sources": [{"kind": "fock", "n": 1}],
        },
        "ingest": {"records_file": "records.txt", "n_sources": 4},
    }


# Inputs of the two operations that fail today; they do not depend on --seed.
FAULTY = {
    "oracle-ftm2-coherent": {
        "mode": "oracle",
        "interferometer": {"ftm": 2},
        "sources": [{"kind": "coherent", "mean": 1}, {"kind": "coherent", "mean": 1}],
        "photon_limit": 80,
    },
    "classical-mc-one-batch": {
        "mode": "classical-mc",
        "interferometer": {"ftm": 2},
        "sources": [{"kind": "fixed", "amplitude": 1}, {"kind": "fixed", "amplitude": 1}],
        "shots": 1000,
        "batches": 1,
        "seed": 0,
    },
}


def mode_op(workdir: Path, name: str, mode: str, first: dict, shots: int = 0) -> Op:
    """Run the config of ``mode``; the report must match the run's first one."""

    def run(tr):
        with tr.span("cli.run", mode=mode):
            return invoke(workdir, mode)

    def check(result, done):
        code, out, err = result
        if code != 0:
            raise checks.CheckFailed(f"exit code {code}: {err.decode(errors='replace').strip()}")
        checks.equal(checks.strict_json(out).get("mode"), mode, "report mode")
        checks.equal(out, first.setdefault(mode, out), "report bytes of a rerun")

    return Op(name, run, check, shots=shots, sampling=shots > 0)


def oracle_fault(result, done):
    code, out, err = result
    if code == 4:
        return
    if code != 0:
        raise checks.CheckFailed(f"exit code {code}")
    witness = checks.strict_json(out)["results"]["witness"]
    if witness["classification"] == "nonclassical":
        raise checks.KnownFault(
            "coherent light certified nonclassical: the oracle's pruning bias sits"
            " above BOUNDARY_MARGIN and the verdict ignores pruned_mass"
        )


def nan_fault(result, done):
    code, out, err = result
    if code in (2, 4):
        return
    if code != 0:
        raise checks.CheckFailed(f"exit code {code}")
    try:
        checks.strict_json(out)
    except checks.CheckFailed as bad:
        raise checks.KnownFault(f"one batch gives a NaN stderr; {bad}") from None


def probe_imports(tr, count: int = 5) -> None:
    """Time ``import multiport.cli`` in fresh processes (traced runs only)."""
    code = "import time; t = time.perf_counter(); import multiport.cli; print(time.perf_counter() - t)"
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, timeout=TIMEOUT_S, check=True
        )
        tr.add("cli.import", float(proc.stdout))


def setup(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    cfgs = {name: {"mode": name, **cfg} for name, cfg in configs(rng, workdir).items()}
    cfgs.update(FAULTY)
    for name, cfg in cfgs.items():
        (workdir / f"{name}.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    first: dict = {}
    shots = {"classical-mc": cfgs["classical-mc"]["shots"], "ingest": 2000}
    ops = [mode_op(workdir, mode, mode, first, shots.get(mode, 0)) for mode in cfgs if mode not in FAULTY]
    ops += [
        Op("oracle-ftm2-coherent", lambda tr: invoke(workdir, "oracle-ftm2-coherent"), oracle_fault),
        Op("classical-mc-one-batch", lambda tr: invoke(workdir, "classical-mc-one-batch"), nan_fault),
        mode_op(workdir, "classical-mc-rerun", "classical-mc", first, shots["classical-mc"]),
    ]
    invoke(workdir, "bounds")  # warm-up: byte-code caches and the page cache
    return ops
