import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multiport.cli as cli
import multiport.optimizer as optimizer
from multiport import errors, ftm, multistart_minimize, save_matrix
from multiport.cli import EXIT_CONFIG, EXIT_DIMENSION, EXIT_ENGINE, EXIT_OK, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, payload, extra=(), name="config.json", out="report.json"):
    config = write_config(tmp_path, payload, name=name)
    out_path = tmp_path / out
    code = main(["--config", config, "--out", str(out_path), *extra])
    report = json.loads(out_path.read_text()) if out_path.exists() else None
    return code, report, out_path


HOM_QUANTUM = {
    "mode": "quantum",
    "interferometer": {"ftm": 2},
    "sources": [{"kind": "fock", "n": 1}, {"kind": "fock", "n": 1}],
}


def test_quantum_hom_report(tmp_path, capsys):
    code, report, _ = run_cli(tmp_path, HOM_QUANTUM)
    assert code == EXIT_OK
    results = report["results"]
    assert results["correlations"]["gbar"] == 0.0
    assert results["witness"]["threshold"] == 0.5
    assert results["witness"]["classification"] == "nonclassical"
    assert report["config"]["mode"] == "quantum"
    assert "nonclassical" in capsys.readouterr().out


def test_reports_are_byte_identical(tmp_path):
    _, _, first = run_cli(tmp_path, HOM_QUANTUM, out="a.json")
    _, _, second = run_cli(tmp_path, HOM_QUANTUM, out="b.json")
    assert first.read_bytes() == second.read_bytes()


def test_oracle_reports_are_byte_identical_with_their_diagnostics(tmp_path):
    payload = dict(
        HOM_QUANTUM,
        mode="oracle",
        sources=[{"kind": "coherent", "mean": 0.5, "cutoff": 12}, {"kind": "fock", "n": 1}],
        photon_limit=20,
        prune_tol=1e-6,
    )
    code, report, first = run_cli(tmp_path, payload, out="a.json")
    assert code == EXIT_OK
    _, _, second = run_cli(tmp_path, payload, out="b.json")
    assert first.read_bytes() == second.read_bytes()
    correlations = report["results"]["correlations"]
    assert correlations["configurations"] > 0
    assert correlations["pruned_mass"] > 0


def test_classical_mc_deterministic_and_seed_override(tmp_path):
    payload = {
        "mode": "classical-mc",
        "interferometer": {"ftm": 2},
        "sources": [{"kind": "fixed", "amplitude": 1.0}, {"kind": "fixed", "amplitude": 1.0}],
        "shots": 5000,
        "seed": 3,
    }
    _, rep_a, path_a = run_cli(tmp_path, payload, out="a.json")
    _, rep_b, path_b = run_cli(tmp_path, payload, out="b.json")
    assert path_a.read_bytes() == path_b.read_bytes()
    assert rep_a["config"]["seed"] == 3
    code, rep_c, _ = run_cli(tmp_path, payload, extra=["--seed", "4"], out="c.json")
    assert code == EXIT_OK
    assert rep_c["config"]["seed"] == 4
    assert rep_c["results"]["correlations"]["gbar"] != rep_a["results"]["correlations"]["gbar"]


@pytest.mark.parametrize(
    "payload,extra",
    [
        ({"mode": "classical-mc", "shots": 1000, "seed": -1}, []),
        ({"mode": "classical-mc", "shots": 1000, "seed": 3}, ["--seed", "-3"]),
        ({"mode": "optimize", "n_sources": 2, "n_detectors": 2, "restarts": 2}, ["--seed", "-3"]),
        ({"mode": "classical-analytic", "interferometer": {"random": {"dim": 2, "seed": -1}}}, []),
    ],
)
def test_a_negative_seed_is_a_config_error(tmp_path, capsys, payload, extra):
    # exit 2 as before, when numpy's ValueError gave it; now before any engine runs
    sources = [{"kind": "fixed", "amplitude": 1.0}, {"kind": "fixed", "amplitude": 1.0}]
    payload = {"interferometer": {"ftm": 2}, "sources": sources, **payload}
    code, report, _ = run_cli(tmp_path, payload, extra=extra)
    assert code == EXIT_CONFIG and report is None
    assert "config error: seed must be non-negative" in capsys.readouterr().err


def test_classical_analytic_with_matrix_file(tmp_path):
    matrix_path = tmp_path / "transfer.txt"
    save_matrix(ftm(3).matrix[:, :2], matrix_path)
    payload = {
        "mode": "classical-analytic",
        "interferometer": {"file": str(matrix_path)},
        "sources": [{"kind": "fixed", "amplitude": 1.0}, {"kind": "fixed", "amplitude": 1.0}],
    }
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    assert report["results"]["correlations"]["gbar"] == pytest.approx(0.75, abs=1e-12)


def test_bounds_table(tmp_path):
    table_path = tmp_path / "table.tsv"
    payload = {"mode": "bounds", "m_min": 2, "m_max": 10, "eta": 1.0, "table_out": str(table_path)}
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    rows = report["results"]["thresholds"]
    assert len(rows) == 9
    assert rows[0] == {
        "m": 2,
        "classical_min": 0.5,
        "symmetric_quantum_min": 0.0,
        "divisibility_threshold": 1.0,
    }
    by_m = {r["m"]: r for r in rows}
    assert by_m[4]["divisibility_threshold"] == pytest.approx(2 / 3, abs=1e-15)
    lines = table_path.read_text().strip().splitlines()
    assert lines[0].startswith("m\t")
    assert len(lines) == 10


def test_bounds_table_is_not_written_when_the_report_is_not(tmp_path, capsys):
    table_path = tmp_path / "table.tsv"
    config = write_config(tmp_path, {"mode": "bounds", "table_out": str(table_path)})
    code = main(["--config", config, "--out", str(tmp_path / "missing" / "report.json")])
    assert code == EXIT_CONFIG
    assert not table_path.exists()
    assert capsys.readouterr().err.startswith("config error: cannot write")


def test_unwritable_bounds_table_exits_config_error_after_the_report(tmp_path, capsys):
    table_path = tmp_path / "missing" / "table.tsv"
    payload = {"mode": "bounds", "table_out": str(table_path)}
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_CONFIG
    assert not table_path.exists()
    # the table comes after the report, so the report is already complete
    assert report["config"]["table_out"] == str(table_path)
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write") and err.count("\n") == 1


def test_optimize_mode(tmp_path):
    payload = {"mode": "optimize", "n_sources": 2, "n_detectors": 2, "restarts": 5, "seed": 7}
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    assert report["results"]["minimum"] == pytest.approx(0.5, abs=1e-6)
    assert report["results"]["closed_form"] == 0.5
    argmin = np.array(report["results"]["argmin"])
    assert argmin.shape == (2, 2, 2)


def test_optimize_verbose_emits_trace(tmp_path, capsys):
    payload = {"mode": "optimize", "n_sources": 2, "n_detectors": 2, "restarts": 2, "seed": 7}
    code, _, _ = run_cli(tmp_path, payload, extra=["--verbose"])
    assert code == EXIT_OK
    trace_lines = [l for l in capsys.readouterr().err.splitlines() if l]
    assert trace_lines
    restart, iteration, objective = trace_lines[0].split("\t")
    assert restart == "0" and iteration == "0"
    assert 0.0 < float(objective) <= 1.5


OPTIMIZE_3X3 = {"mode": "optimize", "n_sources": 3, "n_detectors": 3, "restarts": 4, "seed": 2}


def test_repeated_verbose_runs_print_each_step_once(tmp_path, capsys):
    handlers = list(logging.getLogger("multiport").handlers)
    runs = []
    for _ in range(2):
        code, report, _ = run_cli(tmp_path, OPTIMIZE_3X3, extra=["--verbose"])
        assert code == EXIT_OK
        runs.append(capsys.readouterr().err.splitlines())
    assert runs[0] == runs[1]
    assert len(runs[0]) == sum(report["results"]["iterations"])
    assert logging.getLogger("multiport").handlers == handlers


def test_without_verbose_no_step_is_recorded(tmp_path, capsys, monkeypatch):
    flags = []
    descend = optimizer._descend

    def recording(p, record):
        flags.append(record)
        return descend(p, record)

    monkeypatch.setattr(optimizer, "_descend", recording)
    # a verbose run first: the next run in the process must not inherit its level
    assert run_cli(tmp_path, OPTIMIZE_3X3, extra=["--verbose"])[0] == EXIT_OK
    capsys.readouterr()
    assert run_cli(tmp_path, OPTIMIZE_3X3)[0] == EXIT_OK
    assert flags == [True, False]
    assert capsys.readouterr().err == ""


def test_a_library_logger_gets_the_verbose_lines(tmp_path, capsys):
    assert run_cli(tmp_path, OPTIMIZE_3X3, extra=["--verbose"])[0] == EXIT_OK
    verbose = capsys.readouterr().err
    stream, logger = io.StringIO(), logging.getLogger("multiport.optimizer")
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        multistart_minimize(3, 3, restarts=4, seed=2)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
    assert verbose and stream.getvalue() == verbose


def test_oracle_mode(tmp_path):
    payload = {
        "mode": "oracle",
        "interferometer": {"ftm": 2},
        "sources": [{"kind": "coherent", "mean": 0.5, "cutoff": 20}] * 2,
        "photon_limit": 40,
    }
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    corr = report["results"]["correlations"]
    assert corr["provenance"] == "oracle"
    assert corr["gbar"] == pytest.approx(0.5, abs=1e-9)
    assert corr["pruned_mass"] < 1e-10


@pytest.mark.parametrize(
    "mode, source",
    [
        ("quantum", {"kind": "coherent", "mean": 1e-6, "cutoff": 1}),
        ("quantum", {"kind": "thermal", "mean": 1e-6, "cutoff": 1}),
        ("quantum", {"kind": "coherent", "mean": 12}),
        ("oracle", {"kind": "coherent", "mean": 0.5, "cutoff": 10}),
    ],
)
def test_a_cutoff_that_fakes_sub_poissonian_light_exits_4(tmp_path, capsys, mode, source):
    # each certified nonclassical once, with a margin of 0.5 down to 1.6e-9
    payload = {"mode": mode, "interferometer": {"ftm": 2}, "sources": [source] * 2, "prune_tol": 0}
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_ENGINE and report is None
    assert "sub-Poissonian" in capsys.readouterr().err


def test_exact_oracle_on_coherent_light_is_classical_compatible(tmp_path):
    payload = {
        "mode": "oracle",
        "interferometer": {"ftm": 2},
        "sources": [{"kind": "coherent", "mean": 0.5, "cutoff": 12}] * 2,
        "photon_limit": 24,
        "prune_tol": 0,
    }
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    assert report["results"]["correlations"]["pruned_mass"] == 0
    assert report["results"]["witness"]["classification"] == "classical-compatible"


@pytest.mark.parametrize("prune_tol", [10, 0.3])
def test_oracle_that_prunes_the_light_blames_prune_tol(tmp_path, capsys, prune_tol):
    payload = {
        "mode": "oracle",
        "interferometer": {"ftm": 3},
        "sources": [{"kind": "coherent", "mean": 0.5, "cutoff": 12}] * 3,
        "prune_tol": prune_tol,
    }
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_ENGINE
    assert report is None
    assert capsys.readouterr().err.startswith(f"engine error: prune_tol = {float(prune_tol)!r} pruned")


def test_witness_mode_direct_numbers(tmp_path):
    payload = {
        "mode": "witness",
        "gbar": 0.45,
        "n_sources": 2,
        "n_detectors": 2,
        "stderr": 0.03,
    }
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    assert report["results"]["witness"]["classification"] == "inconclusive"


def test_witness_mode_divisibility_numbers(tmp_path):
    payload = {"mode": "witness", "witness_kind": "divisibility", "gbar": 0.5, "n_modes": 4, "eta": 1.0}
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    assert report["results"]["witness"]["classification"] == "indivisible-certified"


def test_divisibility_mode_full_ftm_vs_blocks(tmp_path):
    full = {
        "mode": "divisibility",
        "interferometer": {"ftm": 4},
        "sources": [{"kind": "fock", "n": 1}] * 4,
    }
    code, report, _ = run_cli(tmp_path, full, out="full.json")
    assert code == EXIT_OK
    assert report["results"]["witness"]["classification"] == "indivisible-certified"

    blocks = {
        "mode": "divisibility",
        "interferometer": {"direct_sum": [{"ftm": 2}, {"ftm": 2}]},
        "sources": [{"kind": "fock", "n": 1}] * 4,
    }
    code, report, _ = run_cli(tmp_path, blocks, out="blocks.json")
    assert code == EXIT_OK
    assert report["results"]["witness"]["classification"] == "classical-compatible"


def test_divisibility_broadcasts_single_source(tmp_path):
    payload = {
        "mode": "divisibility",
        "interferometer": {"ftm": 6},
        "sources": [{"kind": "fock", "n": 1}],
    }
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    assert len(report["config"]["sources"]) == 6
    assert report["results"]["witness"]["classification"] == "indivisible-certified"


def test_divisibility_requires_identical_sources(tmp_path):
    payload = {
        "mode": "divisibility",
        "interferometer": {"ftm": 2},
        "sources": [{"kind": "fock", "n": 1}, {"kind": "fock", "n": 2}],
    }
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_ENGINE
    assert report is None
    # partially filled symmetric ports get vacuum padding, which breaks symmetry
    partial = {
        "mode": "divisibility",
        "interferometer": {"ftm": 4},
        "sources": [{"kind": "fock", "n": 1}, {"kind": "fock", "n": 1}],
    }
    code, report, _ = run_cli(tmp_path, partial)
    assert code == EXIT_ENGINE


def test_ingest_mode(tmp_path):
    rng = np.random.default_rng(5)
    phases = rng.uniform(0, 2 * np.pi, (5000, 2))
    out = np.exp(1j * phases) @ ftm(2).matrix.T
    data = np.abs(out) ** 2
    records_path = tmp_path / "shots.txt"
    np.savetxt(records_path, data)
    payload = {"mode": "ingest", "records_file": str(records_path)}
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    assert report["config"]["n_sources_assumed"] is True
    assert report["config"]["n_sources"] == 2
    correlations = report["results"]["correlations"]
    assert "estimate" not in report["results"]
    assert abs(correlations["gbar"] - 0.5) <= 3 * correlations["stderr"]
    assert report["results"]["witness"]["classification"] in ("inconclusive", "classical-compatible")


def test_malformed_source_kind_exits_config_error(tmp_path, capsys):
    payload = dict(HOM_QUANTUM, sources=[{"kind": "nope"}, {"kind": "fock", "n": 1}])
    code, report, out_path = run_cli(tmp_path, payload)
    assert code == EXIT_CONFIG
    assert report is None and not out_path.exists()
    assert "config error" in capsys.readouterr().err


def test_unparseable_json_exits_config_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text("{not json")
    assert main(["--config", str(config)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_config_error(tmp_path):
    assert main(["--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG


def test_missing_referenced_file_exits_config_error(tmp_path):
    payload = {
        "mode": "classical-analytic",
        "interferometer": {"file": str(tmp_path / "absent_matrix.txt")},
        "sources": [{"kind": "fixed", "amplitude": 1.0}],
    }
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_CONFIG and report is None


def test_malformed_field_value_exits_config_error(tmp_path):
    payload = {"mode": "witness", "gbar": "not-a-number", "n_sources": 2, "n_detectors": 2}
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_CONFIG and report is None


def test_dimension_mismatch_exits_dimension_error(tmp_path, capsys):
    payload = {
        "mode": "classical-analytic",
        "interferometer": {"ftm": 2},
        "sources": [{"kind": "fixed", "amplitude": 1.0}] * 3,
    }
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_DIMENSION
    assert report is None
    assert "dimension error" in capsys.readouterr().err


def test_engine_error_exits_engine_code(tmp_path, capsys):
    payload = dict(HOM_QUANTUM, sources=[{"kind": "vacuum"}, {"kind": "vacuum"}])
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_ENGINE
    assert report is None
    assert "engine error" in capsys.readouterr().err


def test_unknown_mode_rejected(tmp_path):
    code, report, _ = run_cli(tmp_path, {"mode": "teleport"})
    assert code == EXIT_CONFIG


def test_vacuum_padding_for_unused_ports(tmp_path):
    payload = {
        "mode": "quantum",
        "interferometer": {"ftm": 3},
        "sources": [{"kind": "fock", "n": 1}, {"kind": "fock", "n": 1}],
    }
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    assert len(report["config"]["sources"]) == 3
    assert report["config"]["sources"][2] == {"kind": "vacuum"}
    assert report["results"]["witness"]["n_sources"] == 2


HOM_CLASSICAL_MC = {
    "mode": "classical-mc",
    "interferometer": {"ftm": 2},
    "sources": [{"kind": "fixed", "amplitude": 1}, {"kind": "fixed", "amplitude": 1}],
    "shots": 1000,
    "seed": 0,
}


@pytest.mark.parametrize("mode", ["classical-mc", "ingest"])
def test_one_batch_exits_engine_error(tmp_path, mode):
    if mode == "ingest":
        records = tmp_path / "shots.txt"
        np.savetxt(records, np.random.default_rng(0).uniform(0, 1, (200, 2)))
        payload = {"mode": "ingest", "records_file": str(records), "batches": 1}
    else:
        payload = dict(HOM_CLASSICAL_MC, batches=1)
    code, report, out_path = run_cli(tmp_path, payload)
    assert code == EXIT_ENGINE
    assert not out_path.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_config_numbers_exit_config_error(tmp_path, capsys, token):
    config = tmp_path / "config.json"
    config.write_text(f'{{"mode": "witness", "gbar": {token}, "n_sources": 2, "n_detectors": 2}}')
    out_path = tmp_path / "report.json"
    assert main(["--config", str(config), "--out", str(out_path)]) == EXIT_CONFIG
    assert not out_path.exists()
    assert "non-finite" in capsys.readouterr().err


def test_negative_stderr_exits_engine_error(tmp_path, capsys):
    payload = {"mode": "witness", "gbar": 0.45, "stderr": -0.5, "n_sources": 2, "n_detectors": 2}
    code, _, out_path = run_cli(tmp_path, payload)
    assert code == EXIT_ENGINE
    assert not out_path.exists()
    assert "stderr >= 0" in capsys.readouterr().err


def test_weak_light_exits_engine_error(tmp_path, capsys):
    # pair products of 1e-320 are subnormal: the closed form read 0.666502,
    # below the classical bound 2/3
    payload = {
        "mode": "classical-analytic",
        "interferometer": {"ftm": 3},
        "sources": [{"kind": "fixed", "amplitude": 1e-80}] * 3,
    }
    code, _, out_path = run_cli(tmp_path, payload)
    assert code == EXIT_ENGINE
    assert not out_path.exists()
    assert "rescale" in capsys.readouterr().err


def test_non_finite_report_is_never_written(tmp_path, monkeypatch):
    import multiport.cli as cli

    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: ({"gbar": float("nan")}, []))
    code, report, out_path = run_cli(tmp_path, {"mode": "witness"})
    assert code == EXIT_CONFIG
    assert not out_path.exists()


def test_pruned_oracle_enumeration_never_certifies(tmp_path):
    # pruning biases gbar of coherent light to just below the bound 1/2
    payload = {
        "mode": "oracle",
        "interferometer": {"ftm": 2},
        "sources": [{"kind": "coherent", "mean": 1}, {"kind": "coherent", "mean": 1}],
        "photon_limit": 80,
    }
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    assert report["results"]["correlations"]["pruned_mass"] > 0
    assert report["results"]["witness"]["margin"] > 0
    assert report["results"]["witness"]["classification"] == "inconclusive"


@pytest.mark.parametrize(
    "source",
    [{"kind": "fock", "n": 1}, {"kind": "custom", "pmf": [0.2, 0.7, 0.1]}],
)
def test_exact_oracle_enumeration_still_certifies(tmp_path, source):
    # nothing is pruned, so pruned_mass is exactly 0, not 1 - (kept total)
    payload = dict(HOM_QUANTUM, mode="oracle", sources=[source, source])
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    assert report["results"]["correlations"]["pruned_mass"] == 0.0
    assert report["results"]["witness"]["classification"] == "nonclassical"


def count_certified_at_bound(batches, seeds=1000, shots=300):
    # classical HOM: gbar sits exactly at the bound 1/2, so every
    # "nonclassical" verdict is false
    from multiport.cli import run

    payload = dict(HOM_CLASSICAL_MC, shots=shots, batches=batches)
    return sum(
        run(payload, seed_override=seed)[0]["results"]["witness"]["classification"]
        == "nonclassical"
        for seed in range(seeds)
    )


@pytest.mark.parametrize("batches", [3, 5])
def test_few_batches_never_certify_at_the_bound(batches):
    # the 3-sigma rule on these stderrs certified 51 and 16 of 1000 seeds
    assert count_certified_at_bound(batches) == 0


def test_many_batches_rarely_certify_at_the_bound():
    assert count_certified_at_bound(100) <= 5


def anticorrelated_records(tmp_path, shots):
    # two detectors that take turns: gbar = 0.1 / 0.55^2 = 0.33, below 1/2;
    # every batch of an even number of shots has that same ratio, so the
    # stderr is 0 and only the batch count can withhold a certificate
    data = np.full((shots, 2), 0.1)
    data[::2, 0] = 1.0
    data[1::2, 1] = 1.0
    path = tmp_path / "shots.txt"
    np.savetxt(path, data)
    return str(path)


@pytest.mark.parametrize(
    "batches,shots,expected",
    [(5, 400, "inconclusive"), (10, 100, "inconclusive"), (20, 400, "nonclassical")],
)
def test_ingest_certifies_only_on_enough_batches(tmp_path, batches, shots, expected):
    payload = {
        "mode": "ingest",
        "records_file": anticorrelated_records(tmp_path, shots),
        "batches": batches,
        "n_sources": 2,
    }
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    assert report["results"]["witness"]["classification"] == expected


@pytest.mark.parametrize("shots,batches", [(10, 100), (19, 19)])
def test_classical_mc_counts_effective_batches(tmp_path, shots, batches):
    # a batch holds at least two shots: batches of one shot each had a ratio
    # of exactly 1 and a stderr of 0
    payload = dict(HOM_CLASSICAL_MC, shots=shots, batches=batches)
    for seed in range(20):
        code, report, _ = run_cli(tmp_path, payload, extra=["--seed", str(seed)])
        assert code == EXIT_OK
        assert report["results"]["witness"]["stderr"] > 0.0
        assert report["results"]["witness"]["classification"] == "inconclusive"
        assert report["results"]["correlations"]["batches"] == min(shots // 2, batches)


@pytest.mark.parametrize("mode", ["classical-analytic", "classical-mc", "quantum", "oracle"])
@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300, 1e-300])
def test_extreme_energy_scale_exits_cleanly(tmp_path, mode, scale):
    kind = {"kind": "fixed", "amplitude": 1} if mode.startswith("classical") else {"kind": "fock", "n": 1}
    payload = {
        "mode": mode,
        "interferometer": {"ftm": 2},
        "sources": [kind, kind],
        "energy_scale": scale,
        "shots": 1000,
    }
    code, _, out_path = run_cli(tmp_path, payload)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_ENGINE)
    if out_path.exists():
        report = json.loads(out_path.read_text(), parse_constant=pytest.fail)
        assert report["results"]["correlations"]["gbar"] == pytest.approx(
            0.5 if mode.startswith("classical") else 0.0, abs=0.1
        )


def test_overflowing_intensity_mean_exits_config_error(tmp_path):
    # the means are 4 * 1e308, past the largest float
    payload = {
        "mode": "classical-analytic",
        "interferometer": {"ftm": 2},
        "sources": [{"kind": "fixed", "amplitude": 2}, {"kind": "fixed", "amplitude": 2}],
        "energy_scale": 1e308,
    }
    code, _, out_path = run_cli(tmp_path, payload)
    assert code == EXIT_CONFIG
    assert not out_path.exists()


def test_overflowing_intensity_mean_prints_one_error_line(tmp_path):
    # a fresh process, so any warning numpy prints reaches stderr
    config = write_config(tmp_path, {
        "mode": "classical-analytic",
        "interferometer": {"ftm": 2},
        "sources": [{"kind": "fixed", "amplitude": 2}, {"kind": "fixed", "amplitude": 2}],
        "energy_scale": 1e308,
    })
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "multiport", "--config", config],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1


def test_unrepresentable_levels_exit_3_in_one_line(tmp_path):
    # numpy's quadrature overflows past 186 levels: before, three RuntimeWarnings
    # reached stderr ahead of a complaint about non-finite probabilities
    config = write_config(tmp_path, {
        "mode": "classical-analytic",
        "interferometer": {"ftm": 2},
        "sources": [{"kind": "pseudo-thermal", "mean_intensity": 1, "levels": 300}] * 2,
    })
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "multiport", "--config", config],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_DIMENSION
    assert proc.stderr == "dimension error: 300 levels exceed 186, the most with finite weights\n"


@pytest.mark.parametrize(
    "mode,amplitude,extra",
    [
        ("classical-mc", 1e160, {"shots": 2000}),
        ("classical-analytic", 1e80, {}),
        ("classical-analytic", 1e200, {}),
    ],
)
def test_overflowing_light_is_refused_in_one_line(tmp_path, mode, amplitude, extra):
    # the intensities (or their moments) leave the float range; before, Monte
    # Carlo said that no detector received light, and numpy warned first
    config = write_config(tmp_path, {
        "mode": mode,
        "interferometer": {"ftm": 3},
        "sources": [{"kind": "fixed", "amplitude": amplitude}] * 3,
        **extra,
    })
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "multiport", "--config", config],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_ENGINE
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("engine error: intensities outside the normal float range")


def test_huge_energy_scale_keeps_scale_free_ratios(tmp_path):
    payload = {
        "mode": "classical-analytic",
        "interferometer": {"ftm": 2},
        "sources": [{"kind": "fixed", "amplitude": 1}, {"kind": "fixed", "amplitude": 1}],
        "energy_scale": 1e160,
    }
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    correlations = report["results"]["correlations"]
    assert correlations["gbar"] == 0.5
    assert correlations["intensity_means"] == pytest.approx([1e160, 1e160], rel=1e-12)


def test_optimize_reports_deterministic_diagnostics(tmp_path):
    payload = {"mode": "optimize", "n_sources": 3, "n_detectors": 3, "restarts": 5, "seed": 4}
    code, report, first = run_cli(tmp_path, payload, out="first.json")
    assert code == EXIT_OK
    code, _, second = run_cli(tmp_path, payload, out="second.json")
    assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    results = report["results"]
    assert 0 <= results["best_restart"] < 5
    assert len(results["iterations"]) == 5
    assert all(isinstance(k, int) and 0 <= k <= 2000 for k in results["iterations"])
    assert 0.0 <= results["gradient_norm"] < 1e-3


@pytest.mark.parametrize("batches,expected", [(3, "inconclusive"), (20, "nonclassical")])
def test_witness_mode_honours_batches(batches, expected):
    # 5 sigma below the bound, but a stderr from 3 batches cannot certify
    payload = {"mode": "witness", "gbar": 0.45, "stderr": 0.01, "n_sources": 2, "n_detectors": 2}
    report, _ = cli.run({**payload, "batches": batches})
    assert report["results"]["witness"]["classification"] == expected
    assert report["config"]["batches"] == batches


FIXED = {"kind": "fixed", "amplitude": 1.0}
FOCK = {"kind": "fock", "n": 1}
OVERLAP = {"file": "overlap.txt"}

# mode, its required fields, and every optional field it reads, each set to a
# value other than its default; file names are relative to the test directory
NON_DEFAULT_FIELDS = [
    ("classical-analytic", {"interferometer": {"ftm": 2}, "sources": [FIXED, FIXED]},
     {"overlap": OVERLAP, "energy_scale": 2.0}),
    ("classical-mc", {"interferometer": {"ftm": 2}, "sources": [FIXED, FIXED], "shots": 400},
     {"overlap": OVERLAP, "energy_scale": 2.0, "batches": 20, "seed": 3}),
    ("quantum", {"interferometer": {"ftm": 3}, "sources": [FOCK] * 3},
     {"detectors": [0, 2], "energy_scale": 2.0}),
    ("oracle", {"interferometer": {"ftm": 3}, "sources": [FOCK] * 3},
     {"detectors": [0, 2], "energy_scale": 2.0, "photon_limit": 5, "prune_tol": 1e-9}),
    ("bounds", {}, {"m_min": 3, "m_max": 5, "eta": 0.5, "table_out": "table.tsv"}),
    ("optimize", {"n_sources": 2, "n_detectors": 2}, {"restarts": 2, "seed": 5}),
    ("witness", {"gbar": 0.45, "n_sources": 2, "n_detectors": 2}, {"stderr": 0.01, "batches": 3}),
    ("witness", {"gbar": 0.5, "n_modes": 4, "eta": 1.0},
     {"witness_kind": "divisibility", "stderr": 0.01, "batches": 30}),
    ("divisibility", {"interferometer": {"ftm": 4}, "sources": [FOCK]}, {"energy_scale": 2.0}),
    ("ingest", {"records_file": "shots.txt"}, {"delimiter": ",", "batches": 20, "n_sources": 3}),
]


@pytest.mark.parametrize(
    "mode,required,optional",
    NON_DEFAULT_FIELDS,
    ids=["-".join(filter(None, [mode, opt.get("witness_kind")])) for mode, _, opt in NON_DEFAULT_FIELDS],
)
def test_config_echoes_every_field_the_mode_read(tmp_path, monkeypatch, mode, required, optional):
    monkeypatch.chdir(tmp_path)
    save_matrix(np.array([[1, 0.5], [0.5, 1]], dtype=complex), "overlap.txt")
    np.savetxt("shots.txt", np.random.default_rng(1).uniform(0.5, 1, (400, 3)), delimiter=",")
    report, _ = cli.run({"mode": mode, **required, **optional, "unread": 1})
    config = report["config"]
    assert {key: config[key] for key in optional} == optional
    assert config["mode"] == mode and "unread" not in config


def echoed(report, key):
    """The echo of a config field as JSON, so that 1 and 1.0 differ."""
    return json.dumps(report["config"][key], sort_keys=True)


# a source record of each kind and its echo: defaults applied, numbers
# converted, unread keys (a misspelt "cutoff" among them) dropped
SOURCE_ECHOES = [
    ("quantum", {"kind": "fock", "n": 1, "unread": 1}, {"kind": "fock", "n": 1}),
    ("quantum", {"kind": "vacuum", "n": 3}, {"kind": "vacuum"}),
    ("quantum", {"kind": "coherent", "mean": 1, "cutof": 5},
     {"kind": "coherent", "mean": 1.0, "cutoff": 40}),
    ("quantum", {"kind": "thermal", "mean": 1}, {"kind": "thermal", "mean": 1.0, "cutoff": 80}),
    ("quantum", {"kind": "squeezed", "r": 0.5}, {"kind": "squeezed", "r": 0.5, "cutoff": 60}),
    ("quantum", {"kind": "custom", "pmf": [0, 1], "n": 1}, {"kind": "custom", "pmf": [0.0, 1.0]}),
    ("classical-analytic", {"kind": "fixed", "amplitude": 1, "mean": 2},
     {"kind": "fixed", "amplitude": 1.0}),
    ("classical-analytic", {"kind": "pseudo-thermal", "mean_intensity": 2},
     {"kind": "pseudo-thermal", "mean_intensity": 2.0, "levels": 32}),
    ("classical-analytic", {"kind": "custom", "realizations": [[1, 2]], "levels": 4},
     {"kind": "custom", "realizations": [[1.0, 2.0]]}),
]


@pytest.mark.parametrize(
    "mode,record,echo", SOURCE_ECHOES, ids=[f"{m}-{r['kind']}" for m, r, _ in SOURCE_ECHOES]
)
def test_config_echoes_each_source_record_as_read(mode, record, echo):
    lit = FOCK if mode == "quantum" else FIXED
    report, _ = cli.run({"mode": mode, "interferometer": {"ftm": 2}, "sources": [record, lit]})
    assert echoed(report, "sources") == json.dumps([echo, lit], sort_keys=True)


def test_config_echoes_interferometer_and_overlap_specs_as_read(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_matrix(np.eye(4, dtype=complex), "overlap.txt")
    spec = {"direct_sum": [{"ftm": 2.0}, {"random": {"dim": 2, "unread": 1}}]}
    overlap = {"file": "overlap.txt", "x": 1}
    payload = {"interferometer": spec, "sources": [FIXED] * 4, "overlap": overlap}
    report, _ = cli.run({"mode": "classical-analytic", **payload})
    expected = {"direct_sum": [{"ftm": 2}, {"random": {"dim": 2, "seed": 0}}]}
    assert echoed(report, "interferometer") == json.dumps(expected, sort_keys=True)
    assert report["config"]["overlap"] == {"file": "overlap.txt"}


def test_divisibility_accepts_identical_states_spelled_differently(tmp_path):
    spellings = [
        {"kind": "coherent", "mean": 1, "cutoff": 40},
        {"kind": "coherent", "mean": 1},
        {"kind": "coherent", "mean": 1.0, "cutoff": 40.0},
        {"kind": "coherent", "mean": 1, "note": "same laser"},
    ]
    payload = {"mode": "divisibility", "interferometer": {"ftm": 4}, "sources": spellings}
    code, report, _ = run_cli(tmp_path, payload)
    assert code == EXIT_OK
    assert report["config"]["sources"] == [{"kind": "coherent", "mean": 1.0, "cutoff": 40}] * 4


def concrete_errors(base=errors.MultiportError):
    found = []
    for sub in base.__subclasses__():
        found += [sub] + concrete_errors(sub)
    return found


# the exit code README documents for each toolkit error
EXIT_BY_ERROR = {
    errors.ConfigError: EXIT_CONFIG,
    errors.DimensionError: EXIT_DIMENSION,
    errors.MatrixValidationError: EXIT_DIMENSION,
    errors.InvalidStatisticsError: EXIT_DIMENSION,
    errors.TruncationError: EXIT_ENGINE,
    errors.UndefinedEtaError: EXIT_ENGINE,
    errors.DegenerateSetupError: EXIT_ENGINE,
    errors.InsufficientSamplesError: EXIT_ENGINE,
    errors.OracleLimitError: EXIT_ENGINE,
    errors.PreconditionError: EXIT_ENGINE,
}


@pytest.mark.parametrize("error", concrete_errors(), ids=lambda e: e.__name__)
def test_every_error_class_exits_with_its_documented_code(tmp_path, monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "run", fail)
    code, _, out_path = run_cli(tmp_path, {"mode": "witness"})
    assert code == EXIT_BY_ERROR[error]
    assert not out_path.exists()
    prefix = {EXIT_CONFIG: "config", EXIT_DIMENSION: "dimension", EXIT_ENGINE: "engine"}[code]
    assert capsys.readouterr().err == f"{prefix} error: boom\n"


# a faulty nested record in each way it can be faulty, and its exit code
RECORD_ERRORS = {
    "missing-field": ({"sources": [{"kind": "fock"}, FOCK]}, EXIT_CONFIG),
    "unknown-kind": ({"mode": "classical-analytic", "sources": [{"kind": "sunlight"}]}, EXIT_CONFIG),
    "bad-number": ({"sources": [{"kind": "coherent", "mean": "bright"}, FOCK]}, EXIT_CONFIG),
    "bad-pmf": ({"sources": [{"kind": "custom", "pmf": [0.5, 0.2]}, FOCK]}, EXIT_DIMENSION),
    "non-dict-source": ({"sources": ["fock", FOCK]}, EXIT_CONFIG),
    "bad-realizations": (
        {"mode": "classical-analytic", "sources": [{"kind": "custom", "realizations": [[0.5]]}]},
        EXIT_CONFIG,
    ),
    "non-dict-interferometer": ({"interferometer": "ftm"}, EXIT_CONFIG),
    "missing-dim": ({"interferometer": {"random": {"seed": 1}}}, EXIT_CONFIG),
    "unknown-builder": ({"interferometer": {"fft": 2}}, EXIT_CONFIG),
    "short-direct-sum": ({"interferometer": {"direct_sum": [{"ftm": 2}]}}, EXIT_CONFIG),
    "two-builders": ({"interferometer": {"ftm": 2, "random": {"dim": 2}}}, EXIT_CONFIG),
}


@pytest.mark.parametrize("case", RECORD_ERRORS)
def test_every_record_error_exits_with_its_documented_code(tmp_path, capsys, case):
    fields, expected = RECORD_ERRORS[case]
    code, _, out_path = run_cli(tmp_path, {**HOM_QUANTUM, **fields})
    assert code == expected
    assert not out_path.exists()
    prefix = {EXIT_CONFIG: "config", EXIT_DIMENSION: "dimension"}[expected]
    assert capsys.readouterr().err.startswith(f"{prefix} error: ")


# configs each mode refuses before it computes anything, and their exit codes
REFUSED_CONFIGS = {
    "more-sources-than-modes": ({**HOM_QUANTUM, "sources": [FOCK] * 3}, EXIT_CONFIG, "3 sources"),
    "m_min-above-m_max": ({"mode": "bounds", "m_min": 5, "m_max": 4}, EXIT_CONFIG, "m_min <= m_max"),
    "unknown-witness-kind": (
        {"mode": "witness", "witness_kind": "entanglement", "gbar": 0.5},
        EXIT_CONFIG,
        "unknown witness_kind",
    ),
    "divisibility-detector-subset": (
        {"mode": "divisibility", "interferometer": {"ftm": 3}, "sources": [FOCK], "detectors": [0, 1]},
        EXIT_ENGINE,
        "all outputs monitored",
    ),
    # a batch count says the gbar is an estimate, which a verdict without its stderr would judge as exact
    "witness-batches-without-stderr": (
        {"mode": "witness", "gbar": 0.3, "n_sources": 2, "n_detectors": 2, "batches": 25},
        EXIT_ENGINE,
        "batches",
    ),
    # a number was opened as a file descriptor: 0 read the matrix from stdin,
    # and a table_out of 1 or true wrote to stdout, closed it and crashed
    "interferometer-file-number": ({**HOM_QUANTUM, "interferometer": {"file": 0}}, EXIT_CONFIG, "string"),
    "overlap-file-number": (
        {"mode": "classical-analytic", "interferometer": {"ftm": 2}, "sources": [FIXED] * 2,
         "overlap": {"file": 0}},
        EXIT_CONFIG,
        "string",
    ),
    "records-file-number": ({"mode": "ingest", "records_file": 0}, EXIT_CONFIG, "string"),
    "delimiter-number": ({"mode": "ingest", "records_file": "a.txt", "delimiter": 1}, EXIT_CONFIG, "string"),
    "table-out-number": ({"mode": "bounds", "table_out": 1}, EXIT_CONFIG, "string"),
    "table-out-true": ({"mode": "bounds", "table_out": True}, EXIT_CONFIG, "string"),
}


@pytest.mark.parametrize("case", REFUSED_CONFIGS)
def test_each_refused_config_exits_with_its_code(tmp_path, capsys, case):
    payload, expected, message = REFUSED_CONFIGS[case]
    code, _, out_path = run_cli(tmp_path, payload)
    assert code == expected
    assert not out_path.exists()
    prefix = {EXIT_CONFIG: "config", EXIT_ENGINE: "engine"}[expected]
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix} error: ") and message in err


@pytest.mark.parametrize("mode", ["quantum", "oracle"])
def test_a_unitary_file_gives_the_results_of_its_builder(tmp_path, mode):
    save_matrix(ftm(3).matrix, tmp_path / "ftm3.txt")
    save_matrix(2 * ftm(3).matrix, tmp_path / "twice.txt")
    payload = {"mode": mode, "sources": [FOCK, {"kind": "fock", "n": 2}]}

    def run_on(spec, out):
        return run_cli(tmp_path, {**payload, "interferometer": spec}, out=out)

    _, built, _ = run_on({"ftm": 3}, "built.json")
    code, loaded, _ = run_on({"file": str(tmp_path / "ftm3.txt")}, "loaded.json")
    assert code == EXIT_OK
    assert loaded["results"] == built["results"]
    code, _, out_path = run_on({"file": str(tmp_path / "twice.txt")}, "twice.json")
    assert code == EXIT_DIMENSION and not out_path.exists()


def test_null_fields_with_no_default_mean_absent(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    np.savetxt("shots.txt", np.random.default_rng(2).uniform(0.5, 1, (300, 2)))
    witness = {"mode": "witness", "gbar": 0.45, "n_sources": 2, "n_detectors": 2}
    ingest = {"mode": "ingest", "records_file": "shots.txt"}
    for payload, key in [(witness, "stderr"), (witness, "batches"), (ingest, "delimiter")]:
        assert cli.run({**payload, key: None}) == cli.run(payload)
    assert "batches" not in cli.run(witness)[0]["config"]


@pytest.mark.parametrize("mode", ["classical-mc", "ingest"])
def test_null_batches_exits_config_error(tmp_path, mode):
    records = tmp_path / "shots.txt"
    np.savetxt(records, np.random.default_rng(0).uniform(0, 1, (200, 2)))
    base = HOM_CLASSICAL_MC if mode == "classical-mc" else {"mode": "ingest", "records_file": str(records)}
    code, _, out_path = run_cli(tmp_path, {**base, "batches": None})
    assert code == EXIT_CONFIG
    assert not out_path.exists()


COHERENT = {"kind": "coherent", "mean": 1}
PSEUDO_THERMAL = {"kind": "pseudo-thermal", "mean_intensity": 1}
HOM_CLASSICAL = {"mode": "classical-analytic", "interferometer": {"ftm": 2}, "sources": [FIXED, FIXED]}

# each integer field in a config that reads it: the config, the path to the
# field and a valid value
INTEGER_FIELDS = {
    "shots": (HOM_CLASSICAL_MC, ["shots"], 400),
    "batches": (HOM_CLASSICAL_MC, ["batches"], 20),
    "seed": (HOM_CLASSICAL_MC, ["seed"], 3),
    "ftm": (HOM_QUANTUM, ["interferometer", "ftm"], 2),
    "n": (HOM_QUANTUM, ["sources", 0, "n"], 1),
    "cutoff": ({**HOM_QUANTUM, "sources": [COHERENT, FOCK]}, ["sources", 0, "cutoff"], 30),
    "levels": ({**HOM_CLASSICAL, "sources": [PSEUDO_THERMAL, FIXED]}, ["sources", 0, "levels"], 8),
    "dim": ({**HOM_QUANTUM, "interferometer": {"random": {"dim": 2}}},
            ["interferometer", "random", "dim"], 2),
    "photon_limit": ({**HOM_QUANTUM, "mode": "oracle"}, ["photon_limit"], 10),
    "detectors": ({**HOM_QUANTUM, "interferometer": {"ftm": 3}, "sources": [FOCK] * 3,
                   "detectors": [0, 2]}, ["detectors", 1], 1),
}


def with_field(config, path, value):
    config = json.loads(json.dumps(config))
    *parents, last = path
    target = config
    for key in parents:
        target = target[key]
    target[last] = value
    return config


@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_integer_fields_refuse_fractions_and_booleans(tmp_path, capsys, field):
    config, path, value = INTEGER_FIELDS[field]
    for bad in (value + 0.5, True, str(value)):  # and numbers spelled as strings
        code, _, out_path = run_cli(tmp_path, with_field(config, path, bad))
        assert code == EXIT_CONFIG and not out_path.exists()
        assert capsys.readouterr().err.startswith("config error: expected an integer")
    # an integral float is the integer, in the run and in the echo
    code, report, _ = run_cli(tmp_path, with_field(config, path, float(value)))
    assert code == EXIT_OK
    assert report == run_cli(tmp_path, with_field(config, path, value))[1]


WITNESS = {"mode": "witness", "gbar": 0.45, "n_sources": 2, "n_detectors": 2}

# each real-valued field in a config that reads it, with the leaves of the
# number lists: the config, the path to the field and a valid integer value
REAL_FIELDS = {
    "amplitude": (HOM_CLASSICAL, ["sources", 0, "amplitude"], 1),
    "mean_intensity": ({**HOM_CLASSICAL, "sources": [PSEUDO_THERMAL, FIXED]},
                       ["sources", 0, "mean_intensity"], 2),
    "realizations": ({**HOM_CLASSICAL, "sources": [{"kind": "custom", "realizations": [[1, 1]]}, FIXED]},
                     ["sources", 0, "realizations", 0, 1], 2),
    "energy_scale (classical)": (HOM_CLASSICAL, ["energy_scale"], 2),
    "energy_scale (quantum)": (HOM_QUANTUM, ["energy_scale"], 2),
    "coherent mean": ({**HOM_QUANTUM, "sources": [COHERENT, FOCK]}, ["sources", 0, "mean"], 2),
    "thermal mean": ({**HOM_QUANTUM, "sources": [{"kind": "thermal", "mean": 1}, FOCK]},
                     ["sources", 0, "mean"], 2),
    "r": ({**HOM_QUANTUM, "sources": [{"kind": "squeezed", "r": 1, "cutoff": 200}, FOCK]},
          ["sources", 0, "r"], 1),
    "pmf": ({**HOM_QUANTUM, "sources": [{"kind": "custom", "pmf": [0, 1]}, FOCK]}, ["sources", 0, "pmf", 1], 1),
    "prune_tol": ({**HOM_QUANTUM, "mode": "oracle"}, ["prune_tol"], 0),
    "eta (bounds)": ({"mode": "bounds"}, ["eta"], 1),
    "eta (witness)": ({"mode": "witness", "witness_kind": "divisibility", "gbar": 0.5, "n_modes": 4},
                      ["eta"], 1),
    "gbar": (WITNESS, ["gbar"], 1),
    "stderr": (WITNESS, ["stderr"], 0),
}


@pytest.mark.parametrize("field", REAL_FIELDS)
def test_real_fields_refuse_booleans_and_strings(tmp_path, capsys, field):
    config, path, value = REAL_FIELDS[field]
    for bad in (True, False, str(value)):
        code, _, out_path = run_cli(tmp_path, with_field(config, path, bad))
        assert code == EXIT_CONFIG and not out_path.exists()
        assert capsys.readouterr().err.startswith("config error: expected a number")
    # a JSON integer is the number, in the run, and echoed as a float
    code, report, _ = run_cli(tmp_path, with_field(config, path, value))
    assert code == EXIT_OK
    echoed = report["config"]
    for key in path:
        echoed = echoed[key]
    assert type(echoed) is float and echoed == value
    assert report == run_cli(tmp_path, with_field(config, path, float(value)))[1]


def test_a_real_field_past_the_float_range_is_a_config_error(tmp_path, capsys):
    code, _, out_path = run_cli(tmp_path, with_field(HOM_CLASSICAL, ["sources", 0, "amplitude"], 10**400))
    assert code == EXIT_CONFIG and not out_path.exists()
    assert capsys.readouterr().err.startswith("config error:")
