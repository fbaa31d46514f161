"""Workload ``shot-statistics``: Monte Carlo estimates and record ingestion.

``mc_estimate_gbar`` runs with 10^5 shots and 100 batches at M = 8 and
M = 32 without mode overlaps and at M = 16 with them; the M = 32 estimate
runs with four Monte Carlo seeds, and the first of them is repeated and must
match bit for bit. Beside them, a file of about 10^5 shots x 8 detectors,
written at set-up with a header, comments and malformed rows
planted in the middle, goes through ``read_shot_records``,
``estimate_gbar_from_records`` and ``correlation_report_from_records``.
Sampling, propagation, accumulation, batch errors and line parsing do the
work; the closed form does none of it (it only feeds the checks).

A round has 10 operations: three of about 0.1 s, five 32-mode estimates of
about 0.5 s and two of 2 to 3 s. Sorted by time, the 5th and 6th are the
2nd and 3rd of the five 32-mode estimates, whose cost does not depend on the
seed. (With one 32-mode estimate per round the median fell on
``correlation_report_from_records``, whose time spread from 131 to 199 ms
over ten runs; with the M = 8 estimate repeated instead of a 32-mode one, it
fell on the fastest 32-mode estimate, which a short calm stretch of the host
moves most.)
"""

from __future__ import annotations

import numpy as np

import multiport as mp

import checks
import reference as ref
from common import haar, mc_op, random_classical_specs, random_overlap
from harness import Op
from tracing import OFF

NAME = "shot-statistics"
SHOTS = 100_000
RECORDS = 100_000
DETECTORS = 8
BATCHES = 100


def simulated_intensities(rng, shots: int, m: int) -> np.ndarray:
    """Detector intensities of m sources, half pseudo-thermal and half of
    fixed intensity, with uniform random phases, behind a random unitary."""
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    t = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    intensity = np.where(np.arange(m) % 2 == 0, rng.exponential(1.0, (shots, m)), 1.0)
    fields = np.sqrt(intensity) * np.exp(2j * np.pi * rng.random((shots, m)))
    return np.abs(fields @ t.T) ** 2


BAD_ROWS = ("{} x {}", "{} {}", "{} -1.0 {}", "{} nan {}", "{} inf {}", "{} {} {} {}")


def write_records(path, data: np.ndarray, rng) -> int:
    """Write shots with a header and comments; plant malformed rows in the
    middle of the file. Returns the number of planted rows."""
    n = data.shape[0]
    planted = sorted(int(k) for k in rng.choice(np.arange(n // 10, 9 * n // 10), size=12, replace=False))
    kinds = rng.integers(0, len(BAD_ROWS), size=len(planted))
    bad = {k: BAD_ROWS[kind] for k, kind in zip(planted, kinds)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# simulated intensities, one shot per line\n")
        fh.write(" ".join(f"d{d}" for d in range(data.shape[1])) + "\n")
        for k, row in enumerate(data.tolist()):
            if k in bad:
                cells = [repr(v) for v in row]
                fh.write(bad[k].format(*cells[: bad[k].count("{}")]) + "\n")
                fh.write("# resumed after a bad row\n")
            fh.write(" ".join(map(repr, row)) + "\n")
    return len(planted)


def ingestion_ops(path, data: np.ndarray, planted: int) -> list[Op]:
    state = {}
    expected_gbar = ref.ratio_of_means(data)
    expected_stderr = ref.batch_means_stderr(data, BATCHES)

    def read(tr):
        with tr.span("ingestion.read", records=data.shape[0]):
            state["records"], rejected = mp.read_shot_records(str(path))
        return state["records"], rejected

    def check_read(result, done):
        records, rejected = result
        checks.equal(rejected, planted, "rejected rows")
        checks.equal(len(records), data.shape[0], "accepted rows")
        if not np.array_equal(np.stack([r.intensities for r in records]), data):
            raise checks.CheckFailed("accepted rows differ from the rows written")

    def estimate(tr):
        with tr.span("ingestion.estimate"):
            return mp.estimate_gbar_from_records(state["records"], batches=BATCHES)

    def check_estimate(est, done):
        checks.close(est.gbar, expected_gbar, checks.CLOSED_FORM_TOL, "ingested gbar")
        checks.close(est.stderr, expected_stderr, checks.CLOSED_FORM_TOL, "ingested stderr")
        checks.equal(est.shots, data.shape[0], "ingested shots")

    def report(tr):
        with tr.span("ingestion.report"):
            return mp.correlation_report_from_records(state["records"], batches=BATCHES)

    def check_report(rep, done):
        mean = data.mean(axis=0)
        checks.pair_ratios_match(rep, ref.pair_ratios(mean, data.T @ data / data.shape[0]))
        checks.close(rep.stderr, expected_stderr, checks.CLOSED_FORM_TOL, "report stderr")

    return [
        Op("ingest-read", read, check_read, shots=data.shape[0], sampling=True),
        Op("ingest-estimate", estimate, check_estimate, sampling=True),
        Op("ingest-report", report, check_report, sampling=True),
    ]


def repeat_of(op: Op) -> Op:
    def check(result, done):
        checks.same_report(result[1], done[op.name][1])

    return Op(op.name + "-repeat", op.run, check, shots=op.shots, sampling=True)


def setup(seed: int, workdir) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    seeds = [int(s) for s in rng.integers(0, 2**31, size=9)]
    mc8 = mc_op("mc8", random_classical_specs(rng, 8), haar(8, seeds[0]), SHOTS, seeds[1])
    specs32 = random_classical_specs(rng, 32)
    mc32 = [mc_op(f"mc32-{k}", specs32, haar(32, seeds[2]), SHOTS, seeds[3 + k]) for k in range(4)]
    ops = [
        mc8,
        mc32[0],
        repeat_of(mc32[0]),
        *mc32[1:],
        mc_op("mc16-overlap", random_classical_specs(rng, 16), haar(16, seeds[7]), SHOTS, seeds[8],
              overlap=random_overlap(rng, 16)),
    ]
    data = simulated_intensities(rng, RECORDS, DETECTORS)
    path = workdir / "records.txt"
    ops += ingestion_ops(path, data, write_records(path, data, rng))
    mc8.run(OFF)  # warm-up
    return ops
