"""Command-line entry point.

Loads a JSON experiment configuration, dispatches to the engines, bounds,
optimizer, or ingestion, and emits a human-readable summary on stdout plus an
optional machine-readable JSON report. Reports echo the fully resolved
configuration (defaults included) and are byte-identical across reruns of the
same configuration and seed. Witness verdicts never affect the exit status.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import bounds
from .classical_engine import ClassicalSetup, classical_gbar, mc_estimate_gbar
from .errors import (
    ConfigError,
    DegenerateSetupError,
    DimensionError,
    InsufficientSamplesError,
    InvalidStatisticsError,
    MatrixValidationError,
    MultiportError,
    OracleLimitError,
    PreconditionError,
    TruncationError,
    UndefinedEtaError,
)
from .ingestion import GbarEstimate, correlation_report_from_records, read_shot_records
from .interferometer import UnitaryMatrix, direct_sum, ftm, load_matrix, random_unitary
from .optimizer import multistart_minimize
from .quantum_engine import (
    DEFAULT_PHOTON_LIMIT,
    DEFAULT_PRUNE_TOL,
    QuantumSetup,
    oracle_gbar,
    quantum_gbar,
)
from .sources import (
    OverlapMatrix,
    classical_moments,
    classical_source_from_record,
    eta,
    photon_statistics_from_record,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIMENSION = 3
EXIT_ENGINE = 4

_DIMENSION_ERRORS = (DimensionError, MatrixValidationError, InvalidStatisticsError)
_ENGINE_ERRORS = (
    DegenerateSetupError,
    InsufficientSamplesError,
    OracleLimitError,
    TruncationError,
    UndefinedEtaError,
    PreconditionError,
)

MODES = (
    "classical-analytic",
    "classical-mc",
    "quantum",
    "oracle",
    "bounds",
    "optimize",
    "witness",
    "divisibility",
    "ingest",
)


def _finite(token: str) -> float:
    """Parse a config number, refusing NaN and infinities (also by overflow)."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {token!r} in config")
    return value


def _need(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required config field {key!r}")
    return cfg[key]


def _build_unitary(spec) -> UnitaryMatrix:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(f"interferometer spec must name exactly one builder: {spec!r}")
    (kind, value), = spec.items()
    if kind == "ftm":
        return ftm(int(value))
    if kind == "random":
        return random_unitary(int(_need(value, "dim")), int(value.get("seed", 0)))
    if kind == "direct_sum":
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError("direct_sum takes a list of two interferometer specs")
        return direct_sum(_build_unitary(value[0]), _build_unitary(value[1]))
    if kind == "file":
        return UnitaryMatrix(load_matrix(value))
    raise ConfigError(f"unknown interferometer builder {kind!r}")


def _build_transfer(spec) -> np.ndarray:
    """Like :func:`_build_unitary` but files may hold arbitrary rectangular maps."""
    if isinstance(spec, dict) and set(spec) == {"file"}:
        return load_matrix(spec["file"])
    return _build_unitary(spec).matrix


def _classical_setup(cfg: dict) -> tuple[ClassicalSetup, dict]:
    transfer = _build_transfer(_need(cfg, "interferometer"))
    records = _need(cfg, "sources")
    sources = tuple(classical_source_from_record(r) for r in records)
    overlap_cfg = cfg.get("overlap")
    overlap = None
    if overlap_cfg is not None:
        overlap = OverlapMatrix(load_matrix(_need(overlap_cfg, "file")))
    energy = float(cfg.get("energy_scale", 1.0))
    setup = ClassicalSetup(transfer, sources, overlap=overlap, energy_scale=energy)
    resolved = {
        "interferometer": cfg["interferometer"],
        "sources": records,
        "overlap": overlap_cfg,
        "energy_scale": energy,
    }
    return setup, resolved


def _quantum_setup(cfg: dict) -> tuple[QuantumSetup, dict]:
    unitary = _build_unitary(_need(cfg, "interferometer"))
    m = unitary.dim
    records = list(_need(cfg, "sources"))
    if len(records) > m:
        raise ConfigError(f"{len(records)} sources for {m} modes")
    padded = records + [{"kind": "vacuum"}] * (m - len(records))
    stats = tuple(photon_statistics_from_record(r) for r in padded)
    det_cfg = cfg.get("detectors", "all")
    detectors = None if det_cfg == "all" else tuple(int(d) for d in det_cfg)
    energy = float(cfg.get("energy_scale", 1.0))
    setup = QuantumSetup(unitary, stats, detectors=detectors, energy_scale=energy)
    resolved = {
        "interferometer": cfg["interferometer"],
        "sources": padded,
        "detectors": list(setup.detectors),
        "energy_scale": energy,
    }
    return setup, resolved


def _withheld(verdict: bounds.WitnessVerdict) -> bounds.WitnessVerdict:
    """The verdict made inconclusive, for estimates whose error no stderr bounds."""
    return dataclasses.replace(verdict, classification=bounds.INCONCLUSIVE)


def _run_engine(cfg: dict, seed: int, mode: str) -> tuple[dict, list[str]]:
    """classical-analytic, classical-mc, quantum and oracle: a report and its witness."""
    if mode.startswith("classical"):
        setup, resolved = _classical_setup(cfg)
        powers = [classical_moments(s)[0] for s in setup.sources]
    else:
        setup, resolved = _quantum_setup(cfg)
        powers = [q.mean for q in setup.stats]
    if mode == "classical-mc":
        shots = int(_need(cfg, "shots"))
        batches = int(cfg.get("batches", 100))
        resolved.update({"shots": shots, "seed": seed, "batches": batches})
        rep = mc_estimate_gbar(setup, shots, seed, batches=batches)
    elif mode == "oracle":
        photon_limit = int(cfg.get("photon_limit", DEFAULT_PHOTON_LIMIT))
        prune_tol = float(cfg.get("prune_tol", DEFAULT_PRUNE_TOL))
        resolved.update({"photon_limit": photon_limit, "prune_tol": prune_tol})
        rep = oracle_gbar(setup, photon_limit=photon_limit, prune_tol=prune_tol)
    else:
        rep = (classical_gbar if mode == "classical-analytic" else quantum_gbar)(setup)
    n_sources = sum(1 for p in powers if p > 0)
    n_detectors = len(rep.active_detectors)
    verdict = bounds.nonclassicality_witness(
        rep.gbar, n_sources, n_detectors, stderr=rep.stderr, batches=rep.batches
    )
    # a pruned enumeration is biased by an amount no stderr measures
    if rep.pruned_mass:
        verdict = _withheld(verdict)
    witness = {**verdict.to_dict(), "n_sources": n_sources, "n_detectors": n_detectors}
    results = {"correlations": rep.to_dict(), "witness": witness}
    summary = [f"gbar = {rep.gbar:.12g} ({rep.provenance})", verdict.one_line()]
    return {"config": resolved, "results": results}, summary


def _run_divisibility(cfg: dict) -> tuple[dict, list[str]]:
    if cfg.get("detectors", "all") != "all":
        raise PreconditionError("divisibility certification needs all outputs monitored")
    records = list(_need(cfg, "sources"))
    if len(records) == 1:
        # one record means the same state on every port
        records = records * _build_unitary(_need(cfg, "interferometer")).dim
    setup, resolved = _quantum_setup({**cfg, "sources": records})
    padded = resolved["sources"]
    if any(r != padded[0] for r in padded):
        raise PreconditionError("divisibility certification needs identical inputs")
    shared_eta = eta(setup.stats[0])
    rep = quantum_gbar(setup)
    if len(rep.active_detectors) != setup.n_modes:
        raise PreconditionError("every output must receive light for the divisibility test")
    verdict = bounds.divisibility_witness(rep.gbar, setup.n_modes, shared_eta, stderr=rep.stderr)
    results = {
        "correlations": rep.to_dict(),
        "eta": shared_eta,
        "witness": verdict.to_dict(),
    }
    summary = [f"gbar = {rep.gbar:.12g} (eta = {shared_eta:.6g})", verdict.one_line()]
    return {"config": resolved, "results": results}, summary


def _run_bounds(cfg: dict) -> tuple[dict, list[str]]:
    m_min = int(cfg.get("m_min", 2))
    m_max = int(cfg.get("m_max", 10))
    eta_value = float(cfg.get("eta", 1.0))
    if m_min < 2 or m_max < m_min:
        raise ConfigError("bounds mode needs 2 <= m_min <= m_max")
    rows = []
    for m in range(m_min, m_max + 1):
        rows.append(
            {
                "m": m,
                "classical_min": bounds.classical_min(m, m),
                "symmetric_quantum_min": bounds.symmetric_quantum_min(m, eta_value),
                "divisibility_threshold": bounds.divisibility_threshold(m, eta_value),
            }
        )
    resolved = {"m_min": m_min, "m_max": m_max, "eta": eta_value}
    header = "m\tclassical_min\tsymmetric_quantum_min\tdivisibility_threshold"
    lines = [header] + [
        f"{r['m']}\t{r['classical_min']:.12g}\t{r['symmetric_quantum_min']:.12g}"
        f"\t{r['divisibility_threshold']:.12g}"
        for r in rows
    ]
    table_out = cfg.get("table_out")
    if table_out:
        with open(table_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        resolved["table_out"] = table_out
    return {"config": resolved, "results": {"thresholds": rows}}, lines


def _run_optimize(cfg: dict, seed: int, verbose: bool) -> tuple[dict, list[str]]:
    n_sources = int(_need(cfg, "n_sources"))
    n_detectors = int(_need(cfg, "n_detectors"))
    restarts = int(cfg.get("restarts", 20))
    trace = sys.stderr if verbose else None
    result = multistart_minimize(n_sources, n_detectors, restarts=restarts, seed=seed, trace=trace)
    value = result.value
    closed_form = bounds.classical_min(n_sources, n_detectors)
    resolved = {
        "n_sources": n_sources,
        "n_detectors": n_detectors,
        "restarts": restarts,
        "seed": seed,
    }
    results = {
        "minimum": value,
        "closed_form": closed_form,
        "gap": value - closed_form,
        "argmin": [[[z.real, z.imag] for z in row] for row in result.argmin.vectors],
        "best_restart": result.best_restart,
        "iterations": list(result.iterations),
        "gradient_norm": result.gradient_norm,
    }
    summary = [
        f"minimized gbar = {value:.12g}",
        f"closed form = {closed_form:.12g} (gap {value - closed_form:.3g})",
        f"best restart {result.best_restart} of {restarts}, "
        f"tangent gradient norm {result.gradient_norm:.3g}",
    ]
    return {"config": resolved, "results": results}, summary


def _run_witness(cfg: dict) -> tuple[dict, list[str]]:
    kind = cfg.get("witness_kind", "nonclassicality")
    gbar = float(_need(cfg, "gbar"))
    stderr = cfg.get("stderr")
    stderr = None if stderr is None else float(stderr)
    if kind == "nonclassicality":
        n_sources = int(_need(cfg, "n_sources"))
        n_detectors = int(_need(cfg, "n_detectors"))
        verdict = bounds.nonclassicality_witness(gbar, n_sources, n_detectors, stderr=stderr)
        resolved = {
            "witness_kind": kind,
            "gbar": gbar,
            "stderr": stderr,
            "n_sources": n_sources,
            "n_detectors": n_detectors,
        }
    elif kind == "divisibility":
        n_modes = int(_need(cfg, "n_modes"))
        eta_value = float(_need(cfg, "eta"))
        verdict = bounds.divisibility_witness(gbar, n_modes, eta_value, stderr=stderr)
        resolved = {
            "witness_kind": kind,
            "gbar": gbar,
            "stderr": stderr,
            "n_modes": n_modes,
            "eta": eta_value,
        }
    else:
        raise ConfigError(f"unknown witness_kind {kind!r}")
    return {"config": resolved, "results": {"witness": verdict.to_dict()}}, [verdict.one_line()]


def _run_ingest(cfg: dict) -> tuple[dict, list[str]]:
    path = _need(cfg, "records_file")
    delimiter = cfg.get("delimiter")
    batches = int(cfg.get("batches", 100))
    records, rejected = read_shot_records(path, delimiter=delimiter)
    full_report = correlation_report_from_records(records, batches=batches)
    estimate = GbarEstimate.from_report(full_report, len(records))
    n_detectors = len(estimate.active_detectors)
    n_sources = cfg.get("n_sources")
    assumed = n_sources is None
    # without a declared source count, N >= M gives the lowest (most
    # conservative) classical bound, so no false certification is possible
    n_sources = n_detectors if assumed else int(n_sources)
    verdict = bounds.nonclassicality_witness(
        estimate.gbar, n_sources, n_detectors, stderr=estimate.stderr, batches=full_report.batches
    )
    resolved = {
        "records_file": path,
        "delimiter": delimiter,
        "batches": batches,
        "n_sources": n_sources,
        "n_sources_assumed": assumed,
    }
    results = {
        "estimate": estimate.to_dict(),
        "correlations": full_report.to_dict(),
        "rejected_records": rejected,
        "witness": verdict.to_dict(),
    }
    summary = [
        f"gbar = {estimate.gbar:.12g} +- {estimate.stderr:.3g} from {estimate.shots} shots"
        + (f" ({rejected} rejected)" if rejected else ""),
        verdict.one_line(),
    ]
    return {"config": resolved, "results": results}, summary


def run(config: dict, seed_override: int | None = None, verbose: bool = False) -> tuple[dict, list[str]]:
    """Execute one experiment configuration; returns (report, summary lines)."""
    if not isinstance(config, dict):
        raise ConfigError("configuration must be a JSON object")
    mode = _need(config, "mode")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    seed = int(seed_override if seed_override is not None else config.get("seed", 0))

    if mode in ("classical-analytic", "classical-mc", "quantum", "oracle"):
        report, summary = _run_engine(config, seed, mode)
    elif mode == "divisibility":
        report, summary = _run_divisibility(config)
    elif mode == "bounds":
        report, summary = _run_bounds(config)
    elif mode == "optimize":
        report, summary = _run_optimize(config, seed, verbose)
    elif mode == "witness":
        report, summary = _run_witness(config)
    else:
        report, summary = _run_ingest(config)
    report["mode"] = mode
    report["config"]["mode"] = mode
    return report, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="multiport",
        description="Pair-intensity correlations, bounds, and nonclassicality witnesses "
        "for multiport interferometers",
    )
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--out", help="write the machine-readable JSON report here")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--verbose", action="store_true", help="emit progress traces")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh, parse_float=_finite, parse_constant=_finite)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
        report, summary = run(config, seed_override=args.seed, verbose=args.verbose)
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DIMENSION_ERRORS as exc:
        print(f"dimension error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except _ENGINE_ERRORS as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except MultiportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except (OSError, TypeError, ValueError) as exc:
        # unreadable referenced files, malformed field values, and values
        # that overflow to a non-finite number in the report
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: cannot write {args.out!r}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    for line in summary:
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
