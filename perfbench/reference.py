"""The benchmark's own evaluation of the quantities multiport reports.

Written from the definitions, not from the package's code, so a checker that
compares against it does not copy today's output:

* For fields A_a with independent uniform phases, propagated by T (and, with
  partially distinguishable pulses, mode overlaps V), the fourth-order moment
  gives

      <I_i I_j> = sum_{a != c} |T_ia|^2 |T_jc|^2 m2_a m2_c
                + sum_{a != b} T_ia T*_ib T_jb T*_ja m2_a m2_b |V_ab|^2
                + sum_a |T_ia|^2 |T_ja|^2 m4_a,

  with m2 = <|A|^2> and m4 = <|A|^4>. Phase-averaged quantum inputs follow the
  same normal-ordered expression with m2 = <n> and m4 = <n(n-1)>.
* Measured shots use the ratio of full-sample means, and the standard error
  of the same statistic over equal contiguous batches.
"""

from __future__ import annotations

import numpy as np

# A detector counts when its mean exceeds this share of the brightest one.
RELATIVE_EXCLUSION = 1e-12


def classical_moments(probabilities, amplitudes) -> tuple[float, float]:
    a2 = np.asarray(amplitudes, dtype=float) ** 2
    p = np.asarray(probabilities, dtype=float)
    return float(p @ a2), float(p @ a2**2)


def photon_moments(pmf) -> tuple[float, float]:
    """(<n>, <n(n-1)>) of a photon-number distribution."""
    p = np.asarray(pmf, dtype=float)
    n = np.arange(p.size, dtype=float)
    return float(n @ p), float((n * (n - 1.0)) @ p)


def means_and_products(transfer, m2, m4, overlap=None) -> tuple[np.ndarray, np.ndarray]:
    """Mean intensities and the full matrix of <I_i I_j> (energy scale 1)."""
    t = np.asarray(transfer, dtype=complex)
    m2 = np.asarray(m2, dtype=float)
    m4 = np.asarray(m4, dtype=float)
    a = np.abs(t) ** 2
    mean = a @ m2
    uncorrelated = np.outer(mean, mean) - (a * m2**2) @ a.T
    x = np.einsum("ia,ja,a->ija", t, t.conj(), m2)
    w = np.ones((t.shape[1], t.shape[1])) if overlap is None else np.abs(overlap) ** 2
    interference = np.einsum("ija,ab,ijb->ij", x, w, x.conj(), optimize=True).real
    interference -= np.einsum("ija,a->ij", np.abs(x) ** 2, np.diagonal(w))
    fluctuation = (a * m4) @ a.T
    return mean, uncorrelated + interference + fluctuation


def pair_ratios(means, products, detectors=None) -> dict[tuple[int, int], float]:
    """{(i, j): <I_i I_j> / (<I_i><I_j>)} over lit monitored detectors, i < j."""
    det = range(len(means)) if detectors is None else sorted(detectors)
    top = max(means[d] for d in det)
    lit = [d for d in det if top > 0 and means[d] > RELATIVE_EXCLUSION * top]
    return {
        (i, j): float(products[i, j] / (means[i] * means[j]))
        for k, i in enumerate(lit)
        for j in lit[k + 1 :]
    }


def gbar(ratios: dict) -> float:
    return float(np.mean(list(ratios.values())))


def ratio_of_means(data: np.ndarray) -> float:
    """Pair average of shots (rows) by the ratio of full-sample means."""
    mean = data.mean(axis=0)
    products = data.T @ data / data.shape[0]
    return gbar(pair_ratios(mean, products))


def batch_means_stderr(data: np.ndarray, batches: int) -> float:
    """Standard error of :func:`ratio_of_means` over equal contiguous batches;
    the first ``shots % batches`` batches hold one extra shot."""
    base, extra = divmod(data.shape[0], batches)
    values, start = [], 0
    for b in range(batches):
        size = base + (1 if b < extra else 0)
        values.append(ratio_of_means(data[start : start + size]))
        start += size
    return float(np.std(values, ddof=1) / np.sqrt(batches))


def eta(pmf) -> float:
    """(<n>^2 - <n(n-1)>) / <n>^2: 1 for single photons, 0 for Poisson light."""
    mean, factorial2 = photon_moments(pmf)
    return (mean**2 - factorial2) / mean**2


def classical_floor(n_sources: int, n_detectors: int) -> float:
    """Least pair average of N classical stochastic fields on M detectors."""
    if n_sources >= n_detectors:
        return 1.0 - 1.0 / n_detectors
    return 1.0 - (n_sources - 1) / (n_sources * (n_detectors - 1))


def symmetric_quantum_min(m: int, eta_value: float) -> float:
    """gbar of m identical inputs on the m-mode Fourier interferometer."""
    return 1.0 - (1.0 + eta_value) / m


def two_block_min(m: int, eta_value: float) -> float:
    """gbar of m identical inputs on two uncoupled m/2-mode Fourier blocks."""
    return 1.0 - (1.0 + eta_value) * (m - 2) / (m * (m - 1))
