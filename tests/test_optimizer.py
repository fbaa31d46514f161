import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_psi_configuration

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


# ----------------------------------------------------------- reference descent
# The reference for the batched descent: one restart at a time on 2-D arrays,
# with the kernels and the loop the batched code replaced. Only the returned
# history is new.


def reference_objective(p):
    m = p.shape[0]
    gram = p.conj() @ p.T
    weights = np.abs(p) ** 2
    coord = weights @ weights.T
    iu = np.triu_indices(m, 1)
    return 1.0 + float((np.abs(gram[iu]) ** 2 - coord[iu]).sum()) / (m * (m - 1) / 2)


def reference_gradient(p):
    m = p.shape[0]
    gram = p.conj() @ p.T
    np.fill_diagonal(gram, 0.0)
    weights = np.abs(p) ** 2
    cross = gram.conj() @ p
    other = weights.sum(axis=0) - weights
    return (4.0 / (m * (m - 1))) * (cross - p * other)


def reference_normalized_rows(p):
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def reference_descend(p, max_iters, window=50, tol=1e-12):
    """Returns the final value, the final point and every value on the way."""
    value = reference_objective(p)
    lr = 0.5
    history = [value]
    for it in range(max_iters):
        grad = reference_gradient(p)
        improved = False
        while lr > 1e-18:
            trial = reference_normalized_rows(p - lr * grad)
            trial_value = reference_objective(trial)
            if trial_value < value:
                improved = True
                break
            lr *= 0.5
        if not improved:
            break
        p, value = trial, trial_value
        lr = min(lr * 2.0, 1.0)
        history.append(value)
        if len(history) > window and history[-window - 1] - value < tol:
            break
    return value, p, history


def reference_runs(n, m, restarts, seed, max_iters=2000):
    runs = []
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        start = reference_normalized_rows(
            rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        )
        runs.append(reference_descend(start, max_iters))
    return runs


def reference_restart_values(n, m, restarts, seed, max_iters=2000):
    return np.array([value for value, _, _ in reference_runs(n, m, restarts, seed, max_iters)])


def assert_matches_reference(n, m, restarts, seed, max_iters=2000):
    result = multistart_minimize(n, m, restarts=restarts, seed=seed, max_iters=max_iters)
    expected = reference_restart_values(n, m, restarts, seed, max_iters)
    assert np.max(np.abs(np.array(result.restart_values) - expected)) <= 1e-12
    assert abs(result.value - expected.min()) <= 1e-12
    return result


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_batched_descent_matches_reference_on_bound_grid(seed):
    # the grid of acceptance criterion 02: every restart ends where the
    # per-restart loop ends, up to rounding on flat minima
    for n in range(1, 7):
        for m in range(2, 7):
            assert_matches_reference(n, m, restarts=20, seed=seed)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 4),
    m=st.integers(2, 4),
    restarts=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    max_iters=st.sampled_from([0, 1, 10, 2000]),
)
def test_batched_descent_matches_reference_property(n, m, restarts, seed, max_iters):
    result = assert_matches_reference(n, m, restarts, seed, max_iters)
    assert check_frame_inequalities(result.argmin).holds
    assert abs(gbar_objective(result.argmin) - result.value) <= 1e-12
    assert result.value >= classical_min(n, m) - 1e-9


@pytest.mark.parametrize("n,m,seed", [(4, 2, 1), (5, 2, 1), (2, 2, 2), (4, 3, 0)])
def test_batched_steps_follow_reference_trajectory(n, m, seed):
    # step by step, while each step still improves by far more than rounding;
    # with two vectors a full step often overshoots, so these runs halve
    # their step 6, 9 and 7 times before that point
    stream = io.StringIO()
    multistart_minimize(n, m, restarts=4, seed=seed, max_iters=300, trace=stream)
    rows = np.array([line.split("\t") for line in stream.getvalue().splitlines()], dtype=float)
    for restart, (_, _, history) in enumerate(reference_runs(n, m, 4, seed, 300)):
        gains = -np.diff(history)
        steep = int(np.argmax(gains <= 1e-12)) if np.any(gains <= 1e-12) else gains.size
        assert steep >= 3
        mine = rows[rows[:, 0] == restart, 2]
        assert np.max(np.abs(mine[:steep] - np.array(history[1 : steep + 1]))) <= 1e-12


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
    # a failed trial's halvings go in one stacked call of at most
    # RESTART_BLOCK configurations, as long as they fit
    calls = count_kernel_calls(monkeypatch)
    result = multistart_minimize(2, 3, restarts=20, seed=7)
    assert len(calls) <= 2 * max(result.iterations) + 2
    assert max(int(np.prod(shape)) for shape in calls) <= optimizer.RESTART_BLOCK


def test_restart_at_its_minimum_retires_after_one_stacked_halving_call(monkeypatch):
    # start, first trial, and every halving above MIN_STEP in one call
    calls = count_kernel_calls(monkeypatch)
    start = optimal_configuration(3, 3).vectors[None]
    value, point, steps, _ = optimizer._descend(start, 2000, False)
    assert len(calls) <= 3
    assert steps[0] == 0 and np.array_equal(point, start)
    assert value[0] == pytest.approx(classical_min(3, 3), abs=1e-12)


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
