import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_psi_configuration
from optimizer_reference import (
    CHECK_TOL,
    DETECTORS,
    RESTARTS,
    SEEDS,
    SOURCES,
    key,
    load_golden,
    reference_gradient,
    reference_objective,
    reference_restart_values,
    reference_starts,
)

import multiport.optimizer as optimizer

from multiport import (
    DimensionError,
    MatrixValidationError,
    PsiConfiguration,
    check_frame_inequalities,
    classical_min,
    fixed_source,
    ftm,
    gbar_gradient,
    gbar_objective,
    minimize_classical_gbar,
    multistart_minimize,
    optimal_configuration,
)


def config_from_transfer(transfer, intensities, energy_scale=1.0):
    """Vectors with components T*_ia sqrt(E <|A_a|^2> / <I_i>)."""
    transfer = np.asarray(transfer, dtype=complex)
    mu = np.asarray(intensities, dtype=float)
    means = energy_scale * (np.abs(transfer) ** 2) @ mu
    return PsiConfiguration(transfer.conj() * np.sqrt(energy_scale * mu / means[:, None]))


# ----------------------------------------------------------- objective


def test_objective_of_hom_configuration():
    config = config_from_transfer(ftm(2).matrix, [1.0, 1.0])
    assert gbar_objective(config) == pytest.approx(0.5, abs=1e-14)


def test_objective_single_coordinate_is_one(rng):
    for m in (2, 3, 5):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (m, 1)))
        assert gbar_objective(PsiConfiguration(phases)) == pytest.approx(1.0, abs=1e-12)


def test_objective_matches_classical_engine(rng):
    # the vector rewrite reproduces the engine value for fixed-intensity setups
    from multiport import ClassicalSetup, classical_gbar

    for _ in range(20):
        m, n = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        transfer = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        mu = rng.uniform(0.3, 2.0, n)
        setup = ClassicalSetup(transfer, tuple(fixed_source(np.sqrt(x)) for x in mu))
        config = config_from_transfer(transfer, mu)
        assert gbar_objective(config) == pytest.approx(classical_gbar(setup).gbar, abs=1e-10)


def test_objective_respects_bound_on_random_configs(rng):
    for _ in range(1000):
        config = random_psi_configuration(rng)
        bound = classical_min(config.dimension, config.n_vectors)
        assert gbar_objective(config) >= bound - 1e-9


def test_objective_invariant_under_coordinate_phases(rng):
    for _ in range(20):
        config = random_psi_configuration(rng)
        theta = rng.uniform(0, 2 * np.pi, config.dimension)
        rotated = PsiConfiguration(config.vectors * np.exp(1j * theta))
        assert gbar_objective(rotated) == pytest.approx(gbar_objective(config), abs=1e-12)


def test_objective_requires_two_vectors():
    with pytest.raises(DimensionError):
        gbar_objective(PsiConfiguration(np.array([[1.0 + 0j]])))


def test_configuration_validation():
    with pytest.raises(MatrixValidationError):
        PsiConfiguration(np.array([[0.5 + 0j, 0.0], [0.0, 1.0]]))
    with pytest.raises(MatrixValidationError):
        PsiConfiguration(np.array([[np.nan + 0j, 1.0]]))


# ----------------------------------------------------------- gradient


def finite_difference_gradient(vectors, step=1e-5):
    grad = np.zeros_like(vectors)
    flat = vectors.ravel()
    for k in range(flat.size):
        for direction in (1.0, 1j):
            bump = np.zeros_like(flat)
            bump[k] = step * direction
            plus = gbar_objective((flat + bump).reshape(vectors.shape))
            minus = gbar_objective((flat - bump).reshape(vectors.shape))
            derivative = (plus - minus) / (2 * step)
            grad.ravel()[k] += derivative * direction
    return grad


def test_gradient_matches_finite_differences(rng):
    for _ in range(100):
        config = random_psi_configuration(rng, max_vectors=4, max_dim=4)
        analytic = gbar_gradient(config)
        numeric = finite_difference_gradient(config.vectors)
        scale = max(1.0, float(np.max(np.abs(analytic))))
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale


# ----------------------------------------------------------- minimization


@pytest.mark.parametrize(
    "n,m,expected",
    [(2, 2, 0.5), (3, 3, 2 / 3), (5, 3, 2 / 3)],
)
def test_minimize_reaches_known_values(n, m, expected):
    value, config = minimize_classical_gbar(n, m, restarts=20, seed=7)
    assert value == pytest.approx(expected, abs=1e-6)
    assert config.vectors.shape == (m, n)


def test_minimize_ignores_surplus_sources():
    _, config = minimize_classical_gbar(5, 3, restarts=20, seed=7)
    # at the optimum at least N - M = 2 coordinates are dark for every vector
    column_peak = np.abs(config.vectors).max(axis=0)
    assert np.sum(column_peak < 1e-4) >= 2


def test_minimize_is_deterministic():
    v1, c1 = minimize_classical_gbar(3, 3, restarts=5, seed=11)
    v2, c2 = minimize_classical_gbar(3, 3, restarts=5, seed=11)
    assert v1 == v2
    assert np.array_equal(c1.vectors, c2.vectors)


def test_minimize_emits_trace():
    stream = io.StringIO()
    minimize_classical_gbar(2, 2, restarts=2, seed=1, trace=stream)
    lines = stream.getvalue().strip().splitlines()
    assert lines
    restart, iteration, objective = lines[0].split("\t")
    assert int(restart) == 0 and int(iteration) == 0
    assert float(objective) <= 1.0


def test_minimize_validation():
    with pytest.raises(DimensionError):
        minimize_classical_gbar(2, 1, restarts=1, seed=0)
    with pytest.raises(DimensionError):
        minimize_classical_gbar(0, 3, restarts=1, seed=0)
    # a negative cap never matched an iteration count, so the restarts ran to convergence
    with pytest.raises(DimensionError, match="max_iters"):
        multistart_minimize(2, 3, restarts=2, seed=0, max_iters=-1)
    with pytest.raises(DimensionError, match="max_iters"):
        minimize_classical_gbar(2, 3, restarts=1, seed=0, max_iters=-1)


# ----------------------------------------------------------- reference descent
# The reference is the earlier descent, one restart at a time
# (tests/optimizer_reference.py). Its minima on the bound grid come from a
# golden file that one grid point re-derives on every run, and CI rebuilds
# in full. The two descents take different paths, so they are held to the
# same minima, not to the same steps.

GOLDEN = load_golden()


def start_values(n, m, restarts, seed):
    """Each restart's value at its start, as the descent evaluates it."""
    return optimizer._value_and_gradient(np.stack(reference_starts(n, m, restarts, seed)))[0]


def assert_reaches_reference(n, m, restarts, seed, expected, max_iters=2000):
    """The contract of the descent against the reference's restart values."""
    result = multistart_minimize(n, m, restarts=restarts, seed=seed, max_iters=max_iters)
    values, bound = np.array(result.restart_values), classical_min(n, m)
    assert np.all(values >= bound - 1e-12)
    assert np.all(values <= start_values(n, m, restarts, seed))
    assert all(0 <= k <= max_iters for k in result.iterations)
    if max_iters == 2000:
        assert abs(result.value - bound) <= 1e-9
        assert result.value <= min(expected) + 1e-9
    return result


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_descent_matches_reference_on_bound_grid(seed):
    # the grid of acceptance criterion 02, against the golden reference minima
    for n in SOURCES:
        for m in DETECTORS:
            assert_reaches_reference(n, m, RESTARTS, seed, GOLDEN[key(n, m, seed)])


def test_golden_minima_match_the_live_reference():
    # one grid point from the live loop; CI rebuilds the whole grid
    live = reference_restart_values(3, 5, RESTARTS, seed=7)
    assert np.max(np.abs(np.subtract(live, GOLDEN[key(3, 5, 7)]))) <= CHECK_TOL


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 4),
    m=st.integers(2, 4),
    restarts=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    max_iters=st.sampled_from([0, 1, 10, 2000]),
)
def test_batched_descent_matches_reference_property(n, m, restarts, seed, max_iters):
    expected = reference_restart_values(n, m, restarts, seed, max_iters)
    result = assert_reaches_reference(n, m, restarts, seed, expected, max_iters)
    assert check_frame_inequalities(result.argmin).holds
    assert abs(gbar_objective(result.argmin) - result.value) <= 1e-12
    if max_iters == 0:
        assert result.restart_values == tuple(start_values(n, m, restarts, seed))


@pytest.mark.parametrize("n,m,seed", [(4, 2, 1), (5, 2, 1), (2, 2, 2), (4, 3, 0)])
def test_accepted_values_pass_the_nonmonotone_test(n, m, seed):
    # each accepted value is at most the largest of the NONMONOTONE values
    # before it, the start included, so none is above the start
    stream = io.StringIO()
    multistart_minimize(n, m, restarts=4, seed=seed, max_iters=300, trace=stream)
    rows = np.array([line.split("\t") for line in stream.getvalue().splitlines()], dtype=float)
    for restart, start in enumerate(start_values(n, m, 4, seed)):
        history = [start, *rows[rows[:, 0] == restart, 2]]
        assert len(history) >= 3
        for k in range(1, len(history)):
            assert history[k] <= max(history[max(0, k - optimizer.NONMONOTONE) : k])


# ----------------------------------------------------------- kernel


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 7),
    n=st.integers(1, 6),
    stack=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    on_spheres=st.booleans(),
)
def test_kernel_obeys_euler_identity_and_matches_reference(m, n, stack, seed, on_spheres):
    # f - 1 is a homogeneous quartic, so f = 1 + Re<p, grad f> / 4
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((stack, m, n)) + 1j * rng.standard_normal((stack, m, n))
    p /= np.linalg.norm(p, axis=-1, keepdims=True)
    if not on_spheres:
        p *= rng.uniform(0.5, 2.0, (stack, m, 1))
    value, grad = optimizer._value_and_gradient(p)
    assert value.shape == (stack,) and grad.shape == p.shape
    scale = (np.abs(p) ** 2).sum(axis=(-2, -1)) ** 2
    euler = (p.conj() * grad).real.sum(axis=(-2, -1)) / 4.0
    assert np.all(np.abs(value - 1.0 - euler) <= 1e-13 * scale)
    for k in range(stack):
        assert abs(value[k] - reference_objective(p[k])) <= 1e-13 * scale[k]
        expected = reference_gradient(p[k])
        assert np.max(np.abs(grad[k] - expected)) <= 1e-15 * np.max(np.abs(expected))


def count_kernel_calls(monkeypatch):
    """The stack shape (without M, N) of every kernel call from now on."""
    calls = []
    kernel = optimizer._value_and_gradient

    def counted(p):
        calls.append(p.shape[:-2])
        return kernel(p)

    monkeypatch.setattr(optimizer, "_value_and_gradient", counted)
    return calls


def test_each_trial_costs_one_kernel_call(monkeypatch):
    # a pass of the descent is one kernel call on the live restarts; at the
    # four cross-check benchmark points the descent makes 24, 63, 132 and 76
    # calls, the final gradient norm included
    calls = count_kernel_calls(monkeypatch)
    for n, m, budget in [(2, 3, 78), (3, 5, 200), (4, 4, 1000), (6, 6, 740)]:
        calls.clear()
        multistart_minimize(n, m, restarts=20, seed=7)
        assert len(calls) <= budget
        assert max(int(np.prod(shape)) for shape in calls) <= 20


def test_restart_at_its_minimum_retires_after_its_first_kernel_call(monkeypatch):
    calls = count_kernel_calls(monkeypatch)
    for n in SOURCES:
        for m in DETECTORS:
            calls.clear()
            start = optimal_configuration(n, m).vectors[None]
            value, point, steps, _ = optimizer._descend(start, 2000, False)
            assert len(calls) == 1
            assert steps[0] == 0 and np.array_equal(point, start)
            assert value[0] == pytest.approx(classical_min(n, m), abs=1e-12)


def test_restart_blocks_do_not_change_results(monkeypatch):
    whole = multistart_minimize(3, 4, restarts=7, seed=5)
    monkeypatch.setattr(optimizer, "RESTART_BLOCK", 3)
    stream = io.StringIO()
    blocked = multistart_minimize(3, 4, restarts=7, seed=5, trace=stream)
    assert np.max(np.abs(np.subtract(blocked.restart_values, whole.restart_values))) <= 1e-12
    restarts = [int(line.split("\t")[0]) for line in stream.getvalue().splitlines()]
    assert sorted(set(restarts)) == list(range(7))
    assert restarts == sorted(restarts)


def test_trace_is_restart_major_and_reproducible():
    first, second = io.StringIO(), io.StringIO()
    result = multistart_minimize(3, 3, restarts=6, seed=2, trace=first)
    multistart_minimize(3, 3, restarts=6, seed=2, trace=second)
    assert first.getvalue() == second.getvalue()
    rows = [line.split("\t") for line in first.getvalue().splitlines()]
    for restart, steps in enumerate(result.iterations):
        mine = [row for row in rows if int(row[0]) == restart]
        assert [int(row[1]) for row in mine] == list(range(steps))
        if steps:
            assert float(mine[-1][2]) == result.restart_values[restart]
    assert [int(row[0]) for row in rows] == sorted(int(row[0]) for row in rows)


def test_multistart_diagnostics():
    result = multistart_minimize(4, 4, restarts=8, seed=3, max_iters=500)
    assert len(result.restart_values) == len(result.iterations) == 8
    assert all(0 <= k <= 500 for k in result.iterations)
    assert result.value == result.restart_values[result.best_restart] == min(result.restart_values)
    assert result.best_restart == result.restart_values.index(result.value)
    assert 0.0 <= result.gradient_norm < 1e-3
    value, config = minimize_classical_gbar(4, 4, restarts=8, seed=3, max_iters=500)
    assert value == result.value
    assert np.array_equal(config.vectors, result.argmin.vectors)


def test_tangent_gradient_vanishes_at_saturating_vectors():
    for m in (2, 3, 5):
        assert optimizer._tangent_gradient_norm(optimal_configuration(m, m).vectors) <= 1e-12


# ----------------------------------------------------------- saturating vectors


def test_optimal_configuration_hits_closed_form_everywhere():
    for n in range(1, 7):
        for m in range(2, 7):
            config = optimal_configuration(n, m)
            assert gbar_objective(config) == pytest.approx(classical_min(n, m), abs=1e-12)


def test_optimal_configuration_ignores_surplus_sources():
    config = optimal_configuration(6, 3)
    assert np.all(config.vectors[:, 3:] == 0)


# ----------------------------------------------------------- frame inequalities


def test_frame_inequalities_tight_for_square_saturating_config():
    for m in (2, 3, 4, 5):
        report = check_frame_inequalities(optimal_configuration(m, m))
        assert report.holds
        assert abs(report.diagonal_slack) <= 1e-10
        assert abs(report.rank_slack) <= 1e-10


def test_frame_inequalities_hold_on_random_configs(rng):
    for _ in range(1000):
        report = check_frame_inequalities(random_psi_configuration(rng))
        assert report.diagonal_slack >= -1e-10
        assert report.rank_slack >= -1e-10
        assert report.holds


def test_frame_inequalities_single_vector():
    config = PsiConfiguration(np.array([[1.0, 0.0, 0.0]], dtype=complex))
    report = check_frame_inequalities(config)
    assert report.trace == pytest.approx(1.0, abs=1e-12)
    assert report.purity == pytest.approx(1.0, abs=1e-12)
    assert report.rank_slack == pytest.approx(0.0, abs=1e-12)


def test_ties_between_blocks_go_to_the_lower_restart(monkeypatch):
    # every block's best value is exactly equal, so the first block must win
    def flat_descend(p, max_iters, record):
        return np.zeros(len(p)), p, np.zeros(len(p), dtype=int), [[] for _ in p]

    monkeypatch.setattr(optimizer, "RESTART_BLOCK", 2)
    monkeypatch.setattr(optimizer, "_descend", flat_descend)
    result = multistart_minimize(2, 3, restarts=5, seed=1)
    assert result.best_restart == 0
    assert result.restart_values == (0.0,) * 5
