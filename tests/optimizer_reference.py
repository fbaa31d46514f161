"""The optimizer's reference route and the golden file of its minima.

The reference is the earlier descent, one restart at a time on 2-D arrays:
a projected Euclidean gradient step with renormalization, whose step size
halves until the value improves and doubles (up to 1) after each accepted
step, stopping when the value fell by less than 1e-12 over the last 50
accepted steps. It shares no code with ``multiport.optimizer``.

Running it over the bound grid of acceptance criterion 02 (N 1-6, M 2-6,
seeds 0, 7 and 11, 20 restarts) takes over a minute, so its per-restart
final values are committed in ``data/reference_minima.json``:

    python tests/optimizer_reference.py           # rewrite the file
    python tests/optimizer_reference.py --check   # rebuild it and compare

``--check`` exits with status 1 when a rebuilt value differs from the file
by more than ``CHECK_TOL``: another BLAS build may round a complex matmul
another way, which moves a creeping restart's last digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

SEEDS = (0, 7, 11)
SOURCES = range(1, 7)
DETECTORS = range(2, 7)
RESTARTS = 20
MAX_ITERS = 2000
GOLDEN = Path(__file__).with_name("data") / "reference_minima.json"
CHECK_TOL = 1e-12


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


def reference_starts(n, m, restarts, seed):
    """The start of each restart, drawn as ``multistart_minimize`` draws it."""
    starts = []
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        raw = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        starts.append(reference_normalized_rows(raw))
    return starts


def reference_restart_values(n, m, restarts=RESTARTS, seed=0, max_iters=MAX_ITERS):
    return [reference_descend(p, max_iters)[0] for p in reference_starts(n, m, restarts, seed)]


def key(n, m, seed):
    return f"{n}x{m}/seed{seed}"


def grid_minima() -> dict[str, list[float]]:
    return {
        key(n, m, seed): reference_restart_values(n, m, RESTARTS, seed)
        for seed in SEEDS
        for n in SOURCES
        for m in DETECTORS
    }


def load_golden() -> dict[str, list[float]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["minima"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the file, write nothing")
    args = parser.parse_args(argv)
    minima = grid_minima()
    if args.check:
        golden = load_golden()
        if sorted(golden) != sorted(minima):
            print("the golden file covers other grid points", file=sys.stderr)
            return 1
        worst = max(abs(a - b) for k in minima for a, b in zip(minima[k], golden[k], strict=True))
        print(f"{len(minima)} grid points, largest difference {worst:.3g}")
        return 0 if worst <= CHECK_TOL else 1
    GOLDEN.parent.mkdir(exist_ok=True)
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in minima.items())
    head = f'{{"restarts": {RESTARTS}, "max_iters": {MAX_ITERS}, "minima": {{\n'
    GOLDEN.write_text(head + rows + "\n}}\n", encoding="utf-8")
    print(f"wrote {len(minima)} grid points to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
