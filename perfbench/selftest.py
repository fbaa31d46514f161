"""Tests of the benchmark's own checkers: each must accept a right value and
reject a deliberately perturbed one.

    python3 perfbench/selftest.py

Exits 1 if any checker accepts a perturbed value.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import multiport as mp  # noqa: E402

import checks  # noqa: E402
import cli_workload  # noqa: E402
import closed_form as cf  # noqa: E402
import cross_check  # noqa: E402
import reference as ref  # noqa: E402
import shot_statistics as ss  # noqa: E402
from harness import end_to_end  # noqa: E402
from layers import CLI_MODES, per_layer  # noqa: E402
from tracing import OFF  # noqa: E402

FAILURES = []


def rejects(what, fn, *args, error=checks.CheckFailed):
    try:
        fn(*args)
    except error:
        return
    FAILURES.append(f"{what}: perturbed value accepted")


def accepts(what, fn, *args):
    try:
        fn(*args)
    except (checks.CheckFailed, checks.KnownFault) as exc:
        FAILURES.append(f"{what}: right value rejected: {exc}")


def perturbed(report, delta=1e-6):
    """A report whose first pair ratio (and so gbar) is moved by ``delta``."""
    (i, j, r), *rest = report.pair_ratios
    ratios = ((i, j, r + delta), *rest)
    gbar = sum(x for _, _, x in ratios) / len(ratios)
    return dataclasses.replace(report, pair_ratios=ratios, gbar=gbar)


def test_reference_against_brute_force():
    """The vectorized reference equals the explicit four-index phase average."""
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m2, m4 = rng.uniform(0.5, 2, 3), rng.uniform(2, 5, 3)
    v = cf.random_overlap(rng, 3, rank=2)
    _, products = ref.means_and_products(t, m2, m4, v)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        total = 0.0
        for a, b, c, d in itertools.product(range(3), repeat=4):
            amp = t[i, a] * t[i, b].conj() * t[j, c] * t[j, d].conj()
            if a == b == c == d:
                total += (amp * m4[a]).real
            elif a == b and c == d:
                total += (amp * m2[a] * m2[c]).real
            elif a == d and b == c:
                total += (amp * m2[a] * m2[b] * abs(v[a, b]) ** 2).real
        if abs(total - products[i, j]) > 1e-12:
            FAILURES.append(f"reference <I_{i} I_{j}> {products[i, j]!r} != brute force {total!r}")


def test_generic_checks():
    accepts("close", checks.close, 1.0, 1.0 + 1e-12, 1e-9, "x")
    rejects("close", checks.close, 1.0 + 1e-6, 1.0, 1e-9, "x")
    rejects("close NaN", checks.close, float("nan"), 1.0, 1e-9, "x")
    rejects("not_below", checks.not_below, 0.5 - 1e-9, 0.5, "x")
    rejects("equal", checks.equal, 11, 12, "rejected rows")
    accepts("minimum_at_bound", checks.minimum_at_bound, 0.75 + 1e-8, 0.75)
    rejects("minimum_at_bound low", checks.minimum_at_bound, 0.75 - 2e-9, 0.75)
    rejects("minimum_at_bound high", checks.minimum_at_bound, 0.75 + 2e-6, 0.75)
    accepts("strict_json", checks.strict_json, b'{"a": 1.5}')
    rejects("strict_json NaN", checks.strict_json, b'{"a": NaN}')
    rejects("strict_json Infinity", checks.strict_json, b'{"a": -Infinity}')
    rejects("strict_json truncated", checks.strict_json, b'{"a": 1')


def test_mc_checks():
    setup = mp.ClassicalSetup(mp.ftm(3).matrix, (mp.fixed_source(1.0),) * 3)
    rep = mp.mc_estimate_gbar(setup, 4000, 1)
    exact = ref.gbar(cf.expected_ratios(setup))
    accepts("mc_agrees", checks.mc_agrees, rep, exact)
    rejects("mc_agrees far", checks.mc_agrees, rep, rep.gbar + 6.5 * rep.stderr)
    rejects("mc_agrees NaN stderr", checks.mc_agrees, dataclasses.replace(rep, stderr=float("nan")), exact)
    rejects("mc_agrees zero stderr", checks.mc_agrees, dataclasses.replace(rep, stderr=0.0), exact)
    accepts("same_report", checks.same_report, rep, mp.mc_estimate_gbar(setup, 4000, 1))
    rejects("same_report", checks.same_report, rep, perturbed(rep, 1e-15))


def test_closed_form_checks():
    ops = {op.name: op for op in cf.setup(5, None)}
    done = {}
    for name in ("q16-two-block-fock1", "q16-haar-coherent", "c16-haar-fixed", "c16-haar-overlap",
                 "q16-haar-mixed-subset"):
        done[name] = ops[name].run(OFF)
        accepts(name, ops[name].check, done[name], done)
        bad = dataclasses.replace(done[name], report=perturbed(done[name].report))
        rejects(f"{name} perturbed", ops[name].check, bad, done)
    c = done["c16-haar-fixed"]
    below = dataclasses.replace(c, report=perturbed(c.report, -20.0))
    rejects("classical floor", cf.classical_floor, below, done)
    flipped = [dataclasses.replace(c.verdicts[0], classification=mp.bounds.NONCLASSICAL)]
    rejects("never certified", cf.classical_floor, dataclasses.replace(c, verdicts=flipped), done)
    two = done["q16-two-block-fock1"]
    certified = [two.verdicts[0], dataclasses.replace(two.verdicts[1], classification=mp.bounds.INDIVISIBLE)]
    rejects("blocks not certified", cf.two_block, dataclasses.replace(two, verdicts=certified), done)
    rejects("indivisible", cf.indivisible, two, done)
    ftm = cf.certificate(OFF, 8, [("fock", 1)] * 8, lambda: mp.ftm(8), divisibility=True)
    accepts("symmetric minimum", cf.symmetric_minimum, ftm, done)
    accepts("indivisible", cf.indivisible, ftm, done)
    off = dataclasses.replace(ftm, report=perturbed(ftm.report))
    rejects("symmetric minimum", cf.symmetric_minimum, off, done)
    fixed = cf.certificate(OFF, 8, [("fixed", 0.7)] * 8, lambda: mp.ftm(8))
    accepts("saturation", cf.saturates_classical_bound, fixed, done)
    off = dataclasses.replace(fixed, report=perturbed(fixed.report))
    rejects("saturation", cf.saturates_classical_bound, off, done)


def test_shot_statistics_checks():
    rng = np.random.default_rng(1)
    data = ss.simulated_intensities(rng, 2000, 4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.txt"
        planted = ss.write_records(path, data, rng)
        read, estimate, report = ss.ingestion_ops(path, data, planted)
        records, rejected = read.run(OFF)
    accepts("ingest read", read.check, (records, rejected), {})
    rejects("ingest rejected count", read.check, (records, rejected - 1), {})
    rejects("ingest accepted rows", read.check, (records[1:], rejected), {})
    est = estimate.run(OFF)
    accepts("ingest estimate", estimate.check, est, {})
    rejects("ingest gbar", estimate.check, dataclasses.replace(est, gbar=est.gbar + 1e-6), {})
    rejects("ingest stderr", estimate.check, dataclasses.replace(est, stderr=est.stderr * 1.001), {})
    rep = report.run(OFF)
    accepts("ingest report", report.check, rep, {})
    rejects("ingest report", report.check, perturbed(rep), {})


def test_cross_check_checks():
    op = cross_check.minimize_op(2, 3)
    value, argmin = op.run(OFF)
    accepts("minimize", op.check, (value, argmin), {})
    rejects("minimize value", op.check, (value + 1e-5, argmin), {})
    oracle = cross_check.oracle_op("o", lambda: [mp.fock(1), mp.fock(1)], lambda: mp.ftm(2))
    setup, rep = oracle.run(OFF)
    accepts("oracle", oracle.check, (setup, rep), {})
    rejects("oracle", oracle.check, (setup, perturbed(rep, 1e-6)), {})


def test_cli_checks():
    with tempfile.TemporaryDirectory() as tmp:
        op = cli_workload.mode_op(Path(tmp), "bounds", "bounds", {})
        good = json.dumps({"mode": "bounds", "results": {}}).encode()
        accepts("cli first", op.check, (0, good, b""), {})
        accepts("cli rerun", op.check, (0, good, b""), {})
        rejects("cli rerun bytes", op.check, (0, good + b" ", b""), {})
        rejects("cli exit code", op.check, (3, good, b"dimension error"), {})
        rejects("cli strict JSON", op.check, (0, b'{"mode": "bounds", "x": NaN}', b""), {})

    def witness(kind):
        return json.dumps({"results": {"witness": {"classification": kind}}}).encode()

    rejects("oracle fault", cli_workload.oracle_fault, (0, witness("nonclassical"), b""), {},
            error=checks.KnownFault)
    accepts("oracle mended", cli_workload.oracle_fault, (0, witness("inconclusive"), b""), {})
    accepts("oracle refused", cli_workload.oracle_fault, (4, b"", b""), {})
    rejects("oracle other exit", cli_workload.oracle_fault, (3, b"", b""), {})
    rejects("NaN fault", cli_workload.nan_fault, (0, b'{"stderr": NaN}', b""), {}, error=checks.KnownFault)
    accepts("NaN mended", cli_workload.nan_fault, (0, b'{"stderr": null}', b""), {})
    accepts("NaN refused", cli_workload.nan_fault, (2, b"", b""), {})


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    outcome = SimpleNamespace(times={"op": [1.0]}, shots={"op": 1})
    names = set(end_to_end(outcome, [1.0], False))
    if names != {m["name"] for m in spec["end_to_end"]}:
        FAILURES.append(f"end-to-end metrics {sorted(names)} differ from BENCHMARK.json")
    span = {"start": 0.0, "end": 1.0}
    fake = []
    for workload, name, attrs in (
        ("closed-form", "sources.build", {}),
        ("closed-form", "interferometer.build", {}),
        ("closed-form", "report.to_dict", {}),
        ("closed-form", "bounds.witness", {}),
        ("shot-statistics", "classical_engine.mc", {"shots": 1, "overlap": False}),
        ("shot-statistics", "classical_engine.mc", {"shots": 1, "overlap": True}),
        ("shot-statistics", "ingestion.read", {"records": 1}),
        ("shot-statistics", "ingestion.estimate", {}),
        ("shot-statistics", "ingestion.report", {}),
        ("cross-check", "quantum_engine.oracle", {}),
        ("cross-check", "optimizer.minimize", {"n": 6, "m": 6, "restarts": 1}),
        ("cli", "cli.import", {}),
    ):
        fake.append({**span, "workload": workload, "name": name, "attrs": attrs})
    for m in (16, 32, 64):
        fake.append({**span, "workload": "closed-form", "name": "classical_engine.closed_form",
                     "attrs": {"m": m, "pairs": 1}})
        fake.append({**span, "workload": "closed-form", "name": "quantum_engine.closed_form",
                     "attrs": {"m": m}})
    for mode in CLI_MODES:
        fake.append({**span, "workload": "cli", "name": "cli.run", "attrs": {"mode": mode}})
    got = {name: unit for name, (_, unit) in per_layer(fake).items()}
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if got != want:
        FAILURES.append(f"per-layer metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")


def main() -> int:
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    for failure in FAILURES:
        print("FAIL", failure)
    print(f"{len(tests)} checker tests, {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
