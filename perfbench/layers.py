"""Per-layer metrics computed from the spans of a traced run.

Each metric reads the spans of one workload, the one on which it is expected
to move an end-to-end metric (see README.md).
"""

from __future__ import annotations

import statistics

CLI_MODES = (
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


def per_layer(spans: list[dict]) -> dict:
    def select(workload, name, **attrs):
        return [
            s
            for s in spans
            if s["workload"] == workload
            and s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def median_ms(workload, name, **attrs):
        return statistics.median(s["end"] - s["start"] for s in select(workload, name, **attrs)) * 1e3

    def rate(workload, name, key, **attrs):
        chosen = select(workload, name, **attrs)
        return sum(s["attrs"][key] for s in chosen) / sum(s["end"] - s["start"] for s in chosen)

    cf, ss, xc = "closed-form", "shot-statistics", "cross-check"
    out = {
        "sources.build_ms": (median_ms(cf, "sources.build"), "ms"),
        "interferometer.build_ms": (median_ms(cf, "interferometer.build"), "ms"),
    }
    for engine in ("classical_engine", "quantum_engine"):
        for m in (16, 32, 64):
            out[f"{engine}.closed_form_m{m}_ms"] = (median_ms(cf, f"{engine}.closed_form", m=m), "ms")
    out["classical_engine.pairs"] = (
        sum(s["attrs"]["pairs"] for s in select(cf, "classical_engine.closed_form")),
        "count",
    )
    out["report.to_dict_ms"] = (median_ms(cf, "report.to_dict"), "ms")
    out["bounds.witness_us"] = (median_ms(cf, "bounds.witness") * 1e3, "us")
    out["classical_engine.mc_shots_per_s"] = (rate(ss, "classical_engine.mc", "shots", overlap=False), "1/s")
    out["classical_engine.mc_overlap_shots_per_s"] = (
        rate(ss, "classical_engine.mc", "shots", overlap=True),
        "1/s",
    )
    out["ingestion.read_records_per_s"] = (rate(ss, "ingestion.read", "records"), "1/s")
    out["ingestion.estimate_ms"] = (median_ms(ss, "ingestion.estimate"), "ms")
    out["ingestion.report_ms"] = (median_ms(ss, "ingestion.report"), "ms")
    out["quantum_engine.oracle_ms"] = (median_ms(xc, "quantum_engine.oracle"), "ms")
    out["optimizer.minimize_6x6_ms"] = (median_ms(xc, "optimizer.minimize", n=6, m=6), "ms")
    out["optimizer.restarts_per_s"] = (rate(xc, "optimizer.minimize", "restarts"), "1/s")
    out["cli.import_ms"] = (median_ms("cli", "cli.import"), "ms")
    for mode in CLI_MODES:
        out[f"cli.{mode}_ms"] = (median_ms("cli", "cli.run", mode=mode), "ms")
    return out
