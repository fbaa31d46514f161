"""Workload ``cross-check``: the two independent verification routes.

``minimize_classical_gbar`` runs on four (N sources, M detectors) points,
6 x 6 among them, each with 20 restarts; ``oracle_gbar`` enumerates Fock
configurations on Fourier interferometers of 3 and 4 modes with coherent and
thermal inputs and on a random 4-mode interferometer with Fock inputs. Monte
Carlo estimates, with two seeds each, of the classical twins of two oracle
inputs (fixed for coherent, pseudo-thermal for thermal light) close the
triangle of closed form, oracle and sampling. The arrays are tiny, so Python overhead bounds
every call.

The optimizer's own seeds are fixed: its run time varies by about 15% from
one seed to the next, which would swamp the run-to-run spread. ``--seed``
sets the interferometer phases, the Fock inputs and the Monte Carlo seeds.
The oracle's input means are fixed too, because its cost grows steeply with
them.

A round has 13 operations; sorted by time, the 7th is one of the four Monte
Carlo estimates (about 0.3 s each), whose cost does not depend on the seed.
With one estimate per twin the median fell among four kinds of operation
and spread by up to 25% over ten runs.
"""

from __future__ import annotations

import numpy as np

import multiport as mp

import checks
import reference as ref
from common import expected_ratios, mc_op
from harness import Op
from tracing import OFF

NAME = "cross-check"
RESTARTS = 20
OPTIMIZER_POINTS = ((2, 3), (3, 5), (4, 4), (6, 6))
OPTIMIZER_SEED = 7
MC_SHOTS = 1_000_000
MC_SHOTS_FTM4 = 700_000  # about as long as MC_SHOTS on three modes
COHERENT_CUTOFF = 12
THERMAL_CUTOFF = 30
PHOTON_LIMIT = 200


def minimize_op(n: int, m: int) -> Op:
    def run(tr):
        with tr.span("optimizer.minimize", n=n, m=m, restarts=RESTARTS):
            return mp.minimize_classical_gbar(n, m, restarts=RESTARTS, seed=OPTIMIZER_SEED)

    def check(result, done):
        value, argmin = result
        checks.minimum_at_bound(value, ref.classical_floor(n, m))
        if not mp.check_frame_inequalities(argmin).holds:
            raise checks.CheckFailed("argmin violates the frame inequalities")
        checks.close(mp.gbar_objective(argmin), value, 1e-12, "objective at the argmin")

    return Op(f"minimize-{n}x{m}", run, check)


def oracle_op(name, stats, unitary) -> Op:
    def run(tr):
        with tr.span("sources.build"):
            built = tuple(stats())
        with tr.span("interferometer.build"):
            u = unitary()
        setup = mp.QuantumSetup(u, built)
        with tr.span("quantum_engine.oracle", m=u.dim):
            return setup, mp.oracle_gbar(setup, photon_limit=PHOTON_LIMIT)

    def check(result, done):
        setup, rep = result
        checks.close(rep.gbar, ref.gbar(expected_ratios(setup)), checks.ORACLE_TOL, "oracle gbar")

    return Op(name, run, check)


def phased_ftm(rng, m):
    """D1 F D2 with random diagonal phases: a Fourier interferometer whose
    gbar for identical inputs, and whose oracle cost, the phases leave alone."""
    d1, d2 = np.exp(2j * np.pi * rng.random(m)), np.exp(2j * np.pi * rng.random(m))
    return lambda: mp.UnitaryMatrix(d1[:, None] * mp.ftm(m).matrix * d2[None, :])


def setup(seed: int, workdir) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ftm3, ftm4 = phased_ftm(rng, 3), phased_ftm(rng, 4)
    haar4 = int(rng.integers(0, 2**31))
    occupation = [int(n) for n in rng.permutation([1, 1, 1, 0])]
    mc_seeds = [int(s) for s in rng.integers(0, 2**31, size=4)]

    def identical(make, m):
        return lambda: [make()] * m

    ops = [
        oracle_op("oracle-haar4-fock", lambda: [mp.fock(n) for n in occupation],
                  lambda: mp.random_unitary(4, haar4)),
        *(mc_op(f"mc-ftm3-fixed-{k}", [("fixed", np.sqrt(0.5))] * 3, ftm3, MC_SHOTS, mc_seeds[k])
          for k in range(2)),
        *(mc_op(f"mc-ftm4-pseudo-thermal-{k}", [("pseudo-thermal", 0.12)] * 4, ftm4, MC_SHOTS_FTM4,
                mc_seeds[2 + k]) for k in range(2)),
        oracle_op("oracle-ftm3-coherent", identical(lambda: mp.coherent(0.5, COHERENT_CUTOFF), 3), ftm3),
        oracle_op("oracle-ftm3-thermal", identical(lambda: mp.thermal(0.4, THERMAL_CUTOFF), 3), ftm3),
        oracle_op("oracle-ftm4-coherent", identical(lambda: mp.coherent(0.25, COHERENT_CUTOFF), 4), ftm4),
        oracle_op("oracle-ftm4-thermal", identical(lambda: mp.thermal(0.12, THERMAL_CUTOFF), 4), ftm4),
    ]
    ops += [minimize_op(n, m) for n, m in OPTIMIZER_POINTS]
    for op in ops[:2]:  # warm-up: the Fock oracle and one Monte Carlo estimate
        op.run(OFF)
    return ops
