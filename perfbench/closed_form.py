"""Workload ``closed-form``: certify setups of 16, 32 and 64 modes.

Each operation builds the sources and the interferometer, runs
``classical_gbar`` or ``quantum_gbar``, applies the witnesses and serializes
the report. The per-pair loops of the two closed-form engines do nearly all
the work. Two Monte Carlo spot checks per round, on 16-mode setups, give
``shots_per_s`` a measured value here too.

A round has 23 operations: five certificates of 16 modes, fourteen of 32,
the two spot checks and two certificates of 64 modes. Sorted by time, the
12th is the middle one of the 32-mode certificates, so the median operation
time falls inside that kind, whose cost does not depend on the seed. The
32-mode certificates run in two groups, before and after the first 64-mode
certificate, so that their times sample the whole round rather than one
stretch of it: the host's speed drifts by tens of percent within seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import multiport as mp

import checks
import reference as ref
from common import (
    QUANTUM,
    build,
    expected_ratios,
    haar,
    lit_sources,
    mc_op,
    random_classical_specs,
    random_overlap,
)
from harness import Op
from tracing import OFF

NAME = "closed-form"
MC_SHOTS = 150_000


@dataclass
class Certificate:
    setup: object
    report: object
    verdicts: list
    text: str


def certificate(tr, m, specs, unitary, detectors=None, overlap=None, divisibility=False):
    """Build a setup, compute gbar in closed form, witness it, serialize it."""
    with tr.span("sources.build"):
        sources = tuple(build(s) for s in specs)
        ov = None if overlap is None else mp.OverlapMatrix(overlap)
    with tr.span("interferometer.build"):
        u = unitary()
    if specs[0][0] in QUANTUM:
        setup = mp.QuantumSetup(u, sources, detectors=detectors)
        with tr.span("quantum_engine.closed_form", m=m):
            rep = mp.quantum_gbar(setup)
        lit = sum(1 for q in sources if q.mean > 0)
    else:
        setup = mp.ClassicalSetup(u.matrix, sources, overlap=ov)
        with tr.span("classical_engine.closed_form", m=m) as attrs:
            rep = mp.classical_gbar(setup)
            attrs["pairs"] = len(rep.pair_ratios)
        lit = sum(1 for s in sources if mp.classical_moments(s)[0] > 0)
    with tr.span("bounds.witness"):
        verdicts = [mp.nonclassicality_witness(rep.gbar, lit, len(rep.active_detectors))]
    if divisibility:
        with tr.span("bounds.witness"):
            verdicts.append(mp.divisibility_witness(rep.gbar, m, mp.eta(sources[0])))
    with tr.span("report.to_dict"):
        body = {"correlations": rep.to_dict(), "witness": [v.to_dict() for v in verdicts]}
        text = json.dumps(body, sort_keys=True)
    return Certificate(setup, rep, verdicts, text)


# Checks on a Certificate; each takes (cert, done) like Op.check.


def formula(c, done):
    checks.pair_ratios_match(c.report, expected_ratios(c.setup))


def classical_floor(c, done):
    """Never below the classical bound and never certified nonclassical."""
    bound = ref.classical_floor(lit_sources(c.setup), len(c.report.active_detectors))
    checks.not_below(c.report.gbar, bound, "gbar of classical or eta <= 0 input")
    checks.classification(c.verdicts[0], forbidden=mp.bounds.NONCLASSICAL)


def symmetric_minimum(c, done):
    m = c.setup.n_modes
    eta = ref.eta(c.setup.stats[0].pmf)
    checks.close(c.report.gbar, ref.symmetric_quantum_min(m, eta), checks.CLOSED_FORM_TOL, "FTM gbar")


def two_block(c, done):
    eta = ref.eta(c.setup.stats[0].pmf)
    expected = ref.two_block_min(c.setup.n_modes, eta)
    checks.close(c.report.gbar, expected, checks.CLOSED_FORM_TOL, "two-block gbar")
    checks.close(c.verdicts[1].threshold, expected, checks.CLOSED_FORM_TOL, "divisibility threshold")
    checks.classification(c.verdicts[1], forbidden=mp.bounds.INDIVISIBLE)


def saturates_classical_bound(c, done):
    bound = ref.classical_floor(c.setup.n_sources, c.setup.n_detectors)
    checks.close(c.report.gbar, bound, checks.CLOSED_FORM_TOL, "FTM gbar of equal fixed sources")


def indivisible(c, done):
    checks.classification(c.verdicts[0], expected=mp.bounds.NONCLASSICAL)
    checks.classification(c.verdicts[1], expected=mp.bounds.INDIVISIBLE)


def same_gbar_as(other):
    def check(c, done):
        checks.close(c.report.gbar, done[other].report.gbar, checks.CLOSED_FORM_TOL, f"gbar vs {other}")

    return check


def cert_op(name, m, specs, unitary, *extra, **options):
    def run(tr):
        return certificate(tr, m, specs, unitary, **options)

    def check(c, done):
        for f in (formula, *extra):
            f(c, done)

    return Op(name, run, check)


def permuted(m, seed, rows, cols):
    # contiguous copy: UnitaryMatrix refuses a column-major array (see CHANGES.md)
    return lambda: mp.UnitaryMatrix(
        np.ascontiguousarray(mp.random_unitary(m, seed).matrix[rows][:, cols])
    )


def two_ftm_blocks(m):
    return lambda: mp.direct_sum(mp.ftm(m // 2), mp.ftm(m // 2))


def random_quantum_specs(rng, m):
    kinds = rng.integers(0, 5, size=m)
    specs = []
    for k in kinds:
        if k == 0:
            specs.append(("fock", int(rng.integers(0, 3))))
        elif k == 1:
            specs.append(("coherent", float(rng.uniform(0.2, 2.0))))
        elif k == 2:
            specs.append(("thermal", float(rng.uniform(0.2, 1.5))))
        elif k == 3:
            specs.append(("squeezed", float(rng.uniform(0.2, 0.8))))
        else:
            specs.append(("fock", 1))
    if all(s == ("fock", 0) for s in specs):
        specs[0] = ("fock", 1)
    return specs


def setup(seed: int, workdir) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    seeds = [int(s) for s in rng.integers(0, 2**31, size=8)]
    c16_specs, overlap16 = random_classical_specs(rng, 16), random_overlap(rng, 16)
    means16 = rng.uniform(0.2, 2.0, size=16)
    subset16 = sorted(int(d) for d in rng.choice(16, size=int(rng.integers(8, 14)), replace=False))
    fock_n = int(rng.integers(1, 4))
    rows32, cols32 = rng.permutation(32), rng.permutation(32)
    q32_specs = random_quantum_specs(rng, 32)
    c32_specs = random_classical_specs(rng, 32)
    super_poisson = [
        ("coherent", float(rng.uniform(0.3, 2.0))),
        ("thermal", float(rng.uniform(0.2, 1.5))),
        ("squeezed", float(rng.uniform(0.2, 0.8))),
    ][int(rng.integers(0, 3))]
    means32 = rng.uniform(0.2, 2.0, size=32)
    c32_overlap_specs, overlap32 = random_classical_specs(rng, 32), random_overlap(rng, 32)
    subset32 = sorted(int(d) for d in rng.choice(32, size=int(rng.integers(16, 28)), replace=False))
    thermal32, squeezed32 = float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.2, 0.8))

    ops = [
        cert_op("q16-two-block-fock1", 16, [("fock", 1)] * 16, two_ftm_blocks(16), two_block,
                divisibility=True),
        cert_op("q16-haar-coherent", 16, [("coherent", float(x)) for x in means16], haar(16, seeds[0]),
                classical_floor),
        cert_op("c16-haar-fixed", 16, [("fixed", float(np.sqrt(x))) for x in means16], haar(16, seeds[0]),
                classical_floor, same_gbar_as("q16-haar-coherent")),
        cert_op("c16-haar-overlap", 16, c16_specs, haar(16, seeds[1]), classical_floor,
                overlap=overlap16),
        cert_op("q16-haar-mixed-subset", 16, random_quantum_specs(rng, 16), haar(16, seeds[2]),
                detectors=subset16),
        mc_op("mc16-haar-fixed", [("fixed", float(np.sqrt(x))) for x in means16], haar(16, seeds[0]),
              MC_SHOTS, seeds[3]),
        cert_op("c32-haar", 32, c32_specs, haar(32, seeds[4]), classical_floor),
        cert_op("c32-haar-permuted", 32, [c32_specs[k] for k in cols32],
                permuted(32, seeds[4], rows32, cols32), classical_floor, same_gbar_as("c32-haar")),
        cert_op("c32-ftm-fixed", 32, [("fixed", float(rng.uniform(0.3, 1.5)))] * 32, lambda: mp.ftm(32),
                classical_floor, saturates_classical_bound),
        cert_op("q32-ftm-fock", 32, [("fock", fock_n)] * 32, lambda: mp.ftm(32), symmetric_minimum,
                indivisible, divisibility=True),
        cert_op("q32-two-block-fock", 32, [("fock", fock_n)] * 32, two_ftm_blocks(32), two_block,
                divisibility=True),
        cert_op("q32-haar-mixed", 32, q32_specs, haar(32, seeds[5])),
        cert_op("q32-haar-mixed-permuted", 32, [q32_specs[k] for k in cols32],
                permuted(32, seeds[5], rows32, cols32), same_gbar_as("q32-haar-mixed")),
        cert_op("c64-haar", 64, random_classical_specs(rng, 64), haar(64, seeds[6]), classical_floor),
        cert_op("c32-haar-fixed", 32, [("fixed", float(np.sqrt(x))) for x in means32], haar(32, seeds[5]),
                classical_floor),
        cert_op("q32-haar-coherent", 32, [("coherent", float(x)) for x in means32], haar(32, seeds[5]),
                classical_floor, same_gbar_as("c32-haar-fixed")),
        cert_op("c32-haar-overlap", 32, c32_overlap_specs, haar(32, seeds[4]), classical_floor,
                overlap=overlap32),
        cert_op("c32-ftm-pseudo-thermal", 32, [("pseudo-thermal", thermal32)] * 32, lambda: mp.ftm(32),
                classical_floor),
        cert_op("q32-ftm-thermal", 32, [("thermal", thermal32)] * 32, lambda: mp.ftm(32),
                symmetric_minimum, classical_floor),
        cert_op("q32-ftm-squeezed", 32, [("squeezed", squeezed32)] * 32, lambda: mp.ftm(32),
                symmetric_minimum, classical_floor),
        cert_op("q32-haar-mixed-subset", 32, q32_specs, haar(32, seeds[5]), detectors=subset32),
        mc_op("mc16-haar-mixed", c16_specs, haar(16, seeds[1]), MC_SHOTS, seeds[7]),
        cert_op("q64-ftm-super-poissonian", 64, [super_poisson] * 64, lambda: mp.ftm(64),
                symmetric_minimum, classical_floor),
    ]
    for op in ops[:6]:  # warm-up: the 16-mode certificates and a spot check
        op.run(OFF)
    return ops
