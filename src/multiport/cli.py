"""Command-line entry point.

Loads a JSON experiment configuration, dispatches to the engines, bounds,
optimizer, or ingestion, and emits a human-readable summary on stdout plus an
optional machine-readable JSON report. Reports echo exactly the config fields
the mode read, defaults applied, and are byte-identical across reruns of the
same configuration and seed. Witness verdicts never affect the exit status.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys

# the package reads each engine's names on first use, so the modes that need
# only the thresholds and the witnesses start without numpy
import multiport as mp

from . import bounds
from .errors import (
    ConfigError,
    DimensionError,
    InvalidStatisticsError,
    MatrixValidationError,
    MultiportError,
    PreconditionError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIMENSION = 3
EXIT_ENGINE = 4

_REQUIRED = object()


def _finite(token: str) -> float:
    """Parse a config number, refusing NaN and infinities (also by overflow)."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {token!r} in config")
    return value


def _real(value) -> float:
    """A config real number: a JSON number, never a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """A config count: an integer, or a float with no fractional part."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise ConfigError(f"expected an integer, got {value!r}")
    return int(value)


def _text(value) -> str:
    """A config path or delimiter: a JSON string, never a number read as a file descriptor."""
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}")
    return value


def _seed(value) -> int:
    """A config seed: a non-negative integer."""
    seed = _integer(value)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {value!r}")
    return seed


class _Fields(dict):
    """The resolved config: each field a mode read, as :meth:`read` returned
    it, and the values derived from those fields, assigned directly. A nested
    record is a ``_Fields`` of its own, so it is echoed the same way."""

    def __init__(self, source):
        super().__init__()
        if not isinstance(source, dict):
            raise ConfigError(f"config and its records must be JSON objects, got {source!r}")
        self.source = source

    def read(self, key: str, kind=None, default=_REQUIRED):
        """Field ``key`` passed through ``kind``, or ``default`` when absent. A
        field whose default is ``None`` stays ``None`` when absent or null;
        any other null goes through ``kind`` and so is refused as malformed."""
        if key in self.source:
            value = self.source[key]
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config field {key!r}")
        else:
            value = default
        if kind is not None and (value is not None or default is not None):
            value = kind(value)
        self[key] = value
        return value

    def optional(self, key: str, kind=None):
        """A field with no default: ``None``, and not echoed, when absent or null."""
        return None if self.source.get(key) is None else self.read(key, kind)

    def build(self, kinds: dict):
        """The object that ``kinds[kind]`` builds from this record's fields."""
        kind = self.read("kind")
        if kind not in kinds:
            raise ConfigError(f"unknown source kind {kind!r}; expected one of {tuple(kinds)}")
        return kinds[kind](self)


def _records(values) -> list[_Fields]:
    return [_Fields(v) for v in values]


def _floats(value) -> list:
    return [_floats(v) for v in value] if isinstance(value, list) else _real(value)


def _realizations(record: _Fields) -> mp.ClassicalSource:
    pairs = record.read("realizations", _floats)
    if not isinstance(pairs, list) or not pairs or not all(
        isinstance(p, list) and [type(v) for v in p] == [float, float] for p in pairs
    ):
        raise ConfigError("realizations must be [probability, amplitude] pairs")
    probabilities, amplitudes = zip(*pairs)
    return mp.ClassicalSource(probabilities, amplitudes)


# each source kind's builder, with the default cutoffs and quadrature levels
_PHOTON_KINDS = {
    "fock": lambda r: mp.fock(r.read("n", _integer)),
    "vacuum": lambda r: mp.fock(0),
    "coherent": lambda r: mp.coherent(r.read("mean", _real), r.read("cutoff", _integer, 40)),
    "thermal": lambda r: mp.thermal(r.read("mean", _real), r.read("cutoff", _integer, 80)),
    "squeezed": lambda r: mp.squeezed_vacuum(r.read("r", _real), r.read("cutoff", _integer, 60)),
    "custom": lambda r: mp.PhotonStatistics(r.read("pmf", _floats)),
}
_CLASSICAL_KINDS = {
    "fixed": lambda r: mp.fixed_source(r.read("amplitude", _real)),
    "pseudo-thermal": lambda r: mp.pseudo_thermal_source(
        r.read("mean_intensity", _real), r.read("levels", _integer, 32)
    ),
    "custom": _realizations,
}


def _interferometer(spec: _Fields):
    """The matrix the interferometer ``{builder: argument}`` names; only a file may be non-unitary."""
    if len(spec.source) != 1:
        raise ConfigError(f"interferometer spec must name exactly one builder: {spec.source!r}")
    (kind,) = spec.source
    if kind == "ftm":
        return mp.ftm(spec.read("ftm", _integer)).matrix
    if kind == "random":
        args = spec.read("random", _Fields)
        return mp.random_unitary(args.read("dim", _integer), args.read("seed", _seed, 0)).matrix
    if kind == "direct_sum":
        parts = spec.read("direct_sum", _records)
        if len(parts) != 2:
            raise ConfigError("direct_sum takes a list of two interferometer specs")
        return mp.direct_sum(*(mp.UnitaryMatrix(_interferometer(part)) for part in parts)).matrix
    if kind == "file":
        return mp.load_matrix(spec.read("file", _text))
    raise ConfigError(f"unknown interferometer builder {kind!r}")


def _classical_setup(fields: _Fields) -> mp.ClassicalSetup:
    transfer = _interferometer(fields.read("interferometer", _Fields))
    sources = tuple(r.build(_CLASSICAL_KINDS) for r in fields.read("sources", _records))
    overlap = fields.read("overlap", _Fields, None)
    if overlap is not None:
        overlap = mp.OverlapMatrix(mp.load_matrix(overlap.read("file", _text)))
    energy = fields.read("energy_scale", _real, 1.0)
    return mp.ClassicalSetup(transfer, sources, overlap=overlap, energy_scale=energy)


def _quantum_setup(fields: _Fields, broadcast: bool = False) -> mp.QuantumSetup:
    """Sources padded with vacuum to the unitary's modes; with ``broadcast``,
    a single source record means the same state on every port."""
    unitary = mp.UnitaryMatrix(_interferometer(fields.read("interferometer", _Fields)))
    m = unitary.dim
    records = fields.read("sources", _records)
    if broadcast and len(records) == 1:
        records *= m
    if len(records) > m:
        raise ConfigError(f"{len(records)} sources for {m} modes")
    records += _records([{"kind": "vacuum"}] * (m - len(records)))
    stats = tuple(r.build(_PHOTON_KINDS) for r in records)
    det_cfg = fields.read("detectors", default="all")
    detectors = None if det_cfg == "all" else tuple(_integer(d) for d in det_cfg)
    energy = fields.read("energy_scale", _real, 1.0)
    setup = mp.QuantumSetup(unitary, stats, detectors=detectors, energy_scale=energy)
    fields["detectors"] = list(setup.detectors)
    return setup


def _run_engine(fields: _Fields) -> tuple[dict, list[str]]:
    """classical-analytic, classical-mc, quantum and oracle: a report and its witness."""
    mode = fields["mode"]
    setup = (_classical_setup if mode.startswith("classical") else _quantum_setup)(fields)
    if mode == "classical-mc":
        from .report import DEFAULT_BATCHES

        shots = fields.read("shots", _integer)
        seed = fields.read("seed", _seed, 0)
        batches = fields.read("batches", _integer, DEFAULT_BATCHES)
        rep = mp.mc_estimate_gbar(setup, shots, seed, batches=batches)
    elif mode == "oracle":
        from .quantum_engine import DEFAULT_PHOTON_LIMIT, DEFAULT_PRUNE_TOL

        photon_limit = fields.read("photon_limit", _integer, DEFAULT_PHOTON_LIMIT)
        prune_tol = fields.read("prune_tol", _real, DEFAULT_PRUNE_TOL)
        rep = mp.oracle_gbar(setup, photon_limit=photon_limit, prune_tol=prune_tol)
    else:
        rep = mp.classical_gbar(setup)
    n_sources = int((setup.weights()[0] > 0).sum())
    n_detectors = len(rep.active_detectors)
    verdict = bounds.nonclassicality_witness(rep, n_sources, n_detectors)
    witness = {**verdict.to_dict(), "n_sources": n_sources, "n_detectors": n_detectors}
    summary = [f"gbar = {rep.gbar:.12g} ({rep.provenance})", verdict.one_line()]
    return {"correlations": rep.to_dict(), "witness": witness}, summary


def _run_divisibility(fields: _Fields) -> tuple[dict, list[str]]:
    if fields.read("detectors", default="all") != "all":
        raise PreconditionError("divisibility certification needs all outputs monitored")
    setup = _quantum_setup(fields, broadcast=True)
    padded = fields["sources"]  # as read, so equal states compare equal however spelled
    if any(r != padded[0] for r in padded):
        raise PreconditionError("divisibility certification needs identical inputs")
    shared_eta = mp.eta(setup.stats[0])
    rep = mp.quantum_gbar(setup)
    verdict = bounds.divisibility_witness(rep, setup.n_modes, shared_eta)
    results = {"correlations": rep.to_dict(), "eta": shared_eta, "witness": verdict.to_dict()}
    summary = [f"gbar = {rep.gbar:.12g} (eta = {shared_eta:.6g})", verdict.one_line()]
    return results, summary


def _run_bounds(fields: _Fields) -> tuple[dict, list[str]]:
    m_min = fields.read("m_min", _integer, 2)
    m_max = fields.read("m_max", _integer, 10)
    eta_value = fields.read("eta", _real, 1.0)
    if m_min < 2 or m_max < m_min:
        raise ConfigError("bounds mode needs 2 <= m_min <= m_max")
    rows = [
        {
            "m": m,
            "classical_min": bounds.classical_min(m, m),
            "symmetric_quantum_min": bounds.symmetric_quantum_min(m, eta_value),
            "divisibility_threshold": bounds.divisibility_threshold(m, eta_value),
        }
        for m in range(m_min, m_max + 1)
    ]
    lines = ["\t".join(rows[0])] + ["\t".join(f"{v:.12g}" for v in r.values()) for r in rows]
    fields.optional("table_out", _text)  # main writes the table, once the report is out
    return {"thresholds": rows}, lines


def _run_optimize(fields: _Fields) -> tuple[dict, list[str]]:
    n_sources = fields.read("n_sources", _integer)
    n_detectors = fields.read("n_detectors", _integer)
    restarts = fields.read("restarts", _integer, 20)
    seed = fields.read("seed", _seed, 0)
    result = mp.multistart_minimize(n_sources, n_detectors, restarts=restarts, seed=seed)
    value = result.value
    closed_form = bounds.classical_min(n_sources, n_detectors)
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
    return results, summary


def _run_witness(fields: _Fields) -> tuple[dict, list[str]]:
    kind = fields.read("witness_kind", default="nonclassicality")
    gbar = fields.read("gbar", _real)
    stderr = fields.read("stderr", _real, None)
    batches = fields.optional("batches", _integer)
    if kind == "nonclassicality":
        witness = bounds.nonclassicality_witness
        args = fields.read("n_sources", _integer), fields.read("n_detectors", _integer)
    elif kind == "divisibility":
        witness = bounds.divisibility_witness
        args = fields.read("n_modes", _integer), fields.read("eta", _real)
    else:
        raise ConfigError(f"unknown witness_kind {kind!r}")
    verdict = witness(gbar, *args, stderr=stderr, batches=batches)
    return {"witness": verdict.to_dict()}, [verdict.one_line()]


def _run_ingest(fields: _Fields) -> tuple[dict, list[str]]:
    from .report import DEFAULT_BATCHES

    records, rejected = mp.read_shot_records(
        fields.read("records_file", _text), delimiter=fields.read("delimiter", _text, None)
    )
    batches = fields.read("batches", _integer, DEFAULT_BATCHES)
    rep = mp.correlation_report_from_records(records, batches=batches)
    n_detectors = len(rep.active_detectors)
    n_sources = fields.read("n_sources", _integer, None)
    fields["n_sources_assumed"] = n_sources is None
    # without a declared source count, N >= M gives the lowest (most
    # conservative) classical bound, so no false certification is possible
    if n_sources is None:
        n_sources = fields["n_sources"] = n_detectors
    verdict = bounds.nonclassicality_witness(rep, n_sources, n_detectors)
    results = {
        "correlations": rep.to_dict(),
        "rejected_records": rejected,
        "witness": verdict.to_dict(),
    }
    summary = [
        f"gbar = {rep.gbar:.12g} +- {rep.stderr:.3g} from {rep.shots} shots"
        + (f" ({rejected} rejected)" if rejected else ""),
        verdict.one_line(),
    ]
    return results, summary


_RUNNERS = {
    "classical-analytic": _run_engine,
    "classical-mc": _run_engine,
    "quantum": _run_engine,
    "oracle": _run_engine,
    "bounds": _run_bounds,
    "optimize": _run_optimize,
    "witness": _run_witness,
    "divisibility": _run_divisibility,
    "ingest": _run_ingest,
}
MODES = tuple(_RUNNERS)


def run(config: dict, seed_override: int | None = None) -> tuple[dict, list[str]]:
    """Execute one experiment configuration; returns (report, summary lines)."""
    fields = _Fields(config)
    if seed_override is not None:  # replaces the seed of the modes that read one
        fields.source = {**config, "seed": seed_override}
    mode = fields.read("mode")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    results, summary = _RUNNERS[mode](fields)
    return {"config": dict(fields), "mode": mode, "results": results}, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="multiport",
        description="Pair-intensity correlations, bounds, and nonclassicality witnesses "
        "for multiport interferometers",
    )
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--out", help="write the machine-readable JSON report here")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--verbose", action="store_true", help="log the optimizer's steps to stderr")
    args = parser.parse_args(argv)
    # the handler serves this call only, so calls in one process never stack handlers
    logger, handler = logging.getLogger("multiport"), logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = logger.level
    if args.verbose:
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)

    try:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh, parse_float=_finite, parse_constant=_finite)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
        report, summary = run(config, seed_override=args.seed)
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except (DimensionError, MatrixValidationError, InvalidStatisticsError) as exc:
        print(f"dimension error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (MultiportError, OSError, TypeError, ValueError, OverflowError) as exc:
        # ConfigError, unreadable files, malformed field values and values that
        # overflow a float, in the config or the report, exit 2, other errors 4
        engine = isinstance(exc, MultiportError) and not isinstance(exc, ConfigError)
        print(f"{'engine' if engine else 'config'} error: {exc}", file=sys.stderr)
        return EXIT_ENGINE if engine else EXIT_CONFIG
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)

    # the bounds table is that mode's summary, written only after the report
    table = report["config"].get("table_out"), "\n".join(summary) + "\n"
    for path, content in ((args.out, text), table):
        if not path:
            continue
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        except OSError as exc:
            print(f"config error: cannot write {path!r}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    for line in summary:
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
