"""Timed loop shared by the workloads, and the metrics computed from it."""

from __future__ import annotations

import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from checks import CheckFailed, KnownFault


@dataclass
class Op:
    """One operation of a workload's round.

    ``run`` is timed; ``check`` is not. ``check(result, done)`` sees the
    results of the operations already completed in the same round, by name.
    ``shots`` counts Monte Carlo shots drawn plus records ingested, and
    ``sampling`` marks operations whose time counts toward ``shots_per_s``.
    """

    name: str
    run: Callable
    check: Callable
    shots: int = 0
    sampling: bool = False


@dataclass
class Outcome:
    rounds: int = 0
    attempted: int = 0
    times: dict = field(default_factory=dict)  # op name -> wall times of its completed runs
    shots: dict = field(default_factory=dict)  # op name -> shots of one run, sampling ops only
    failures: Counter = field(default_factory=Counter)
    wrong: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_round(ops, tracer, out: Outcome) -> None:
    done = {}
    for op in ops:
        out.attempted += 1
        with tracer.span("op", op=op.name):
            start = time.perf_counter()
            try:
                result = op.run(tracer)
                error = None
            except Exception as exc:  # an operation that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if error is not None:
            out.failures[(op.name, error)] += 1
            continue
        try:
            op.check(result, done)
        except KnownFault as fault:
            out.failures[(op.name, str(fault))] += 1
            continue
        except CheckFailed as bad:
            out.wrong.append(f"{op.name}: {bad}")
        except KeyError as missing:  # a check compares with an operation that failed
            out.wrong.append(f"{op.name}: no result of {missing} to compare with")
        done[op.name] = result
        out.times.setdefault(op.name, []).append(elapsed)
        if op.sampling:
            out.shots[op.name] = op.shots
    out.rounds += 1


def measure(ops, seconds: float, tracer) -> Outcome:
    """Run whole rounds for about ``seconds`` of wall time.

    A new round starts only while its expected end, at the mean round time so
    far, lies less than half a round past ``seconds``, so a run measures
    ``seconds`` on average, whatever the length of its rounds.
    """
    out = Outcome()
    start = time.perf_counter()
    while True:
        run_round(ops, tracer, out)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / out.rounds >= seconds:
            return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def ops_per_s(out: Outcome) -> float:
    """Completed operations over the time spent in them."""
    return sum(map(len, out.times.values())) / sum(map(sum, out.times.values()))


def end_to_end(out: Outcome, setup_times, children: bool) -> dict:
    all_times = [t for times in out.times.values() for t in times]
    shots = sum(out.shots[name] * len(out.times[name]) for name in out.shots)
    shot_time = sum(sum(out.times[name]) for name in out.shots)
    return {
        "ops_per_s": (ops_per_s(out), "1/s"),
        "op_p50_ms": (statistics.median(all_times) * 1e3, "ms"),
        "shots_per_s": (shots / shot_time, "1/s"),
        "peak_rss_mb": (peak_rss_mb(children), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
