"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import sys
import time

import numpy as np
import pytest

from conftest import (
    random_classical_setup,
    random_psi_configuration,
    random_quantum_setup_eta_nonpositive,
    report_values,
)

import multiport as mp


def degenerate(route, setup) -> bool:
    try:
        route(setup)
    except mp.DegenerateSetupError:
        return True
    return False


def report(number, description, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    budget_note = f" (budget {budget:.0f}s)" if budget else ""
    line = f"[ACCEPTANCE {number:02d}] {status} in {elapsed:.2f}s{budget_note}: {description}"
    print(line, file=sys.stdout)
    sys.stdout.flush()
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def test_criterion_01_hom_reproduction():
    start = time.perf_counter()
    quantum = mp.QuantumSetup(mp.ftm(2), (mp.fock(1), mp.fock(1)))
    q_value = mp.quantum_gbar(quantum).gbar
    classical = mp.ClassicalSetup(
        mp.ftm(2).matrix, (mp.fixed_source(1.0), mp.fixed_source(1.0))
    )
    c_value = mp.classical_gbar(classical).gbar
    ok = abs(q_value) <= 1e-12 and c_value == 0.5
    report(1, "two-photon dip at 0, classical setup at 1/2", ok, time.perf_counter() - start, 1.0)


def test_criterion_02_classical_bound_tightness():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        for m in range(2, 7):
            target = mp.classical_min(n, m)
            value, _ = mp.minimize_classical_gbar(n, m, restarts=20, seed=7)
            ok &= abs(value - target) <= 1e-6
            explicit = mp.gbar_objective(mp.optimal_configuration(n, m))
            ok &= abs(explicit - target) <= 1e-12
    report(2, "multistart minimum and explicit vectors match the closed form on the 6x5 grid",
           ok, time.perf_counter() - start, 60.0)


def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(333)
    ok = True
    for k in range(100):
        m = int(rng.integers(2, 4))
        u = mp.random_unitary(m, 9000 + k)
        occupation = tuple(int(n) for n in rng.integers(0, 3, m))
        rng.choice(m, size=2, replace=False)  # a detector pair, drawn so the instances stay the same
        setup = mp.QuantumSetup(u, tuple(mp.fock(n) for n in occupation))
        if not any(occupation):  # no detector is lit: neither route has a pair
            ok &= degenerate(mp.quantum_gbar, setup) and degenerate(mp.oracle_gbar, setup)
            continue
        formula, oracle = report_values(mp.quantum_gbar(setup)), report_values(mp.oracle_gbar(setup))
        ok &= formula == pytest.approx(oracle, rel=1e-10, abs=1e-10)
    report(3, "closed-form pair ratios and means match the Fock oracle on 100 random instances",
           ok, time.perf_counter() - start, 30.0)


def test_criterion_04_coherent_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(444)
    ok = True
    for k in range(20):
        m = int(rng.integers(2, 5))
        u = mp.random_unitary(m, 7000 + k)
        means = rng.uniform(0.2, 1.6, m)
        quantum = mp.QuantumSetup(u, tuple(mp.coherent(x, 40) for x in means))
        classical = mp.ClassicalSetup(
            u.matrix, tuple(mp.fixed_source(np.sqrt(q.mean)) for q in quantum.stats)
        )
        ok &= abs(mp.quantum_gbar(quantum).gbar - mp.classical_gbar(classical).gbar) <= 1e-12
    report(4, "coherent inputs reproduce the classical value on 20 random unitaries",
           ok, time.perf_counter() - start)


def test_criterion_05_symmetric_quantum_minimum():
    start = time.perf_counter()
    ok = True
    for m in range(2, 9):
        for stats in (mp.fock(1), mp.coherent(1.0, 30), mp.thermal(1.0, 60)):
            setup = mp.QuantumSetup(mp.ftm(m), tuple(stats for _ in range(m)))
            expected = 1 - (1 + mp.eta(stats)) / m
            ok &= abs(mp.quantum_gbar(setup).gbar - expected) <= 1e-6
    report(5, "Fourier interferometer with identical inputs reaches 1 - (1 + eta)/M",
           ok, time.perf_counter() - start)


def test_criterion_06_divisibility():
    start = time.perf_counter()
    ok = True
    for k in (2, 3, 4):
        m = 2 * k
        blocks = mp.direct_sum(mp.ftm(k), mp.ftm(k))
        block_setup = mp.QuantumSetup(blocks, tuple(mp.fock(1) for _ in range(m)))
        block_value = mp.quantum_gbar(block_setup).gbar
        threshold = mp.divisibility_threshold(m, 1.0)
        ok &= abs(block_value - threshold) <= 1e-12

        full_setup = mp.QuantumSetup(mp.ftm(m), tuple(mp.fock(1) for _ in range(m)))
        full_value = mp.quantum_gbar(full_setup).gbar
        ok &= abs(full_value - (1 - 2 / m)) <= 1e-12
        ok &= full_value < threshold

        ok &= mp.divisibility_witness(full_value, m, 1.0).classification == "indivisible-certified"
        ok &= mp.divisibility_witness(block_value, m, 1.0).classification != "indivisible-certified"
    report(6, "two-block interferometers sit exactly at the divisibility threshold; "
              "the full Fourier matrix is certified and the blocks are not",
           ok, time.perf_counter() - start)


def test_criterion_07_monte_carlo_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    ok = True
    for k in range(20):
        setup = random_classical_setup(rng, max_sources=4, max_detectors=4)
        estimate = mp.mc_estimate_gbar(setup, shots=10**5, seed=60000 + k)
        exact = mp.classical_gbar(setup).gbar
        ok &= abs(estimate.gbar - exact) <= 3 * estimate.stderr
    hom = mp.ClassicalSetup(mp.ftm(2).matrix, (mp.fixed_source(1.0), mp.fixed_source(1.0)))
    estimate = mp.mc_estimate_gbar(hom, shots=10**6, seed=20260810)
    ok &= estimate.stderr <= 0.005
    ok &= abs(estimate.gbar - 0.5) <= 3 * estimate.stderr
    report(7, "Monte Carlo matches the closed form within 3 stderr (20 setups + 1e6-shot run)",
           ok, time.perf_counter() - start, 120.0)


def test_criterion_08_no_false_positives():
    start = time.perf_counter()
    rng = np.random.default_rng(888)
    ok = True
    for _ in range(500):
        setup = random_classical_setup(rng)
        rep = mp.classical_gbar(setup)
        bound = mp.classical_min(setup.n_sources, len(rep.active_detectors))
        ok &= rep.gbar >= bound - 1e-9
    for _ in range(500):
        setup = random_quantum_setup_eta_nonpositive(rng)
        rep = mp.quantum_gbar(setup)
        n_active = sum(1 for q in setup.stats if q.mean > 0)
        bound = mp.classical_min(n_active, len(rep.active_detectors))
        ok &= rep.gbar >= bound - 1e-9
    report(8, "1000 random setups with eta <= 0 never undercut the classical bound",
           ok, time.perf_counter() - start)


def test_criterion_09_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(999)
    step = 1e-5
    ok = True
    for _ in range(100):
        config = random_psi_configuration(rng, max_vectors=4, max_dim=4)
        analytic = mp.gbar_gradient(config)
        numeric = np.zeros_like(analytic)
        flat_shape = config.vectors.shape
        flat = config.vectors.ravel()
        for idx in range(flat.size):
            for direction in (1.0, 1j):
                bump = np.zeros_like(flat)
                bump[idx] = step * direction
                plus = mp.gbar_objective((flat + bump).reshape(flat_shape))
                minus = mp.gbar_objective((flat - bump).reshape(flat_shape))
                numeric.ravel()[idx] += ((plus - minus) / (2 * step)) * direction
        scale = max(1.0, float(np.max(np.abs(analytic))))
        ok &= float(np.max(np.abs(analytic - numeric))) <= 1e-6 * scale
    report(9, "analytic gradient matches central finite differences on 100 configurations",
           ok, time.perf_counter() - start)


def test_criterion_10_frame_inequalities():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(1000):
        check = mp.check_frame_inequalities(random_psi_configuration(rng))
        ok &= check.diagonal_slack >= -1e-10
        ok &= check.rank_slack >= -1e-10
    report(10, "both frame-operator inequalities hold on 1000 random configurations",
           ok, time.perf_counter() - start)
