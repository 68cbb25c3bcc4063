"""Self-tests of the end-to-end benchmark, kept fast: SMALL_SCALE, short steps.

The workloads run through the same functions ``run.py`` calls, so these
tests check the reporting contract (every metric of ``BENCHMARK.json``
printed with its unit, names well formed), the output gates, and the
statistics the numbers rest on.
"""

from __future__ import annotations

import asyncio
import json
import re
import statistics
import sys
import threading
import time
from pathlib import Path

import pytest

import compare
import run as bench
import workloads
from loadgen import (
    StepSummary,
    max_rate,
    open_loop,
    percentile,
    supported_percentile,
)
from repro.analysis.scenarios import SMALL_SCALE
from repro.core.predictions import PredictedService
from spans import Span, SpanRecorder, descendants, self_times

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SHORT = {"scale": SMALL_SCALE, "setups": 1, "warmup_s": 0.2,
         "ladder": ((250, 1), (500, 2), (1000, 1), (2000, 1), (4000, 1))}


def _run(name, trace, seconds=0.4):
    return workloads.run_workload(name, seed=3, seconds=seconds, trace=trace, **SHORT)


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def both_modes(request):
    return request.param, _run(request.param, False), _run(request.param, True)


def _printed(capsys, measurement, units):
    code = bench.report(measurement, units)
    lines = capsys.readouterr().out.splitlines()
    return code, lines


def test_every_metric_is_printed_with_its_unit(both_modes, capsys):
    name, untraced, traced = both_modes
    for measurement, section, units in (
            (untraced, "end_to_end", workloads.END_TO_END),
            (traced, "per_layer", workloads.PER_LAYER)):
        code, lines = _printed(capsys, measurement, units)
        assert code == 0, measurement.detail
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        for metric in SPEC[section]:
            pattern = re.compile(rf"^{re.escape(name)}: {re.escape(metric['name'])} = "
                                 rf"\S+ {re.escape(metric['unit'])}\b")
            assert any(pattern.match(line) for line in lines), metric["name"]
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC["end_to_end"]:
        assert untraced.metrics[metric["name"]] > 0, metric["name"]
    assert traced.detail["accounting_ok"]


def test_latency_is_the_reference_step_or_the_median_run_at_reference_speed(both_modes):
    name, untraced, _ = both_modes
    detail = untraced.detail
    if name.startswith("gps-"):
        runs, probes = detail["run_seconds"], detail["probe_seconds"]
        assert len(probes) == len(runs) + 1 == detail["runs"] + 1
        # Each run over the mean of the probes just before and just after it.
        at_reference = [run * workloads.PROBE_REFERENCE_S * 2 / (probes[i] + probes[i + 1])
                        for i, run in enumerate(runs)]
        expected = 1e3 * statistics.median(at_reference)
    else:
        expected = next(step["p50_ms"] for step in detail["steps"]
                        if step["rate"] == detail["reference_rate"])
    assert untraced.metrics["latency_p50_ms"] == pytest.approx(expected)


def test_benchmark_names_and_units_are_well_formed():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [w["name"] for w in SPEC["workloads"]]
    for section, units in (("end_to_end", workloads.END_TO_END),
                           ("per_layer", workloads.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[section]} == units
        names += [m["name"] for m in SPEC[section]]
        for metric in SPEC[section]:
            assert UNIT.fullmatch(metric["unit"]), metric
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 <= bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_oracle_gate_fails_on_a_corrupted_reply(monkeypatch):
    real = workloads.oracle_replies

    def corrupted(world, evidence):
        # Every served reply now lacks a prediction the gate expects.
        return {ip: reply + (PredictedService(ip, 65535, 1.0, ()),)
                for ip, reply in real(world, evidence).items()}

    monkeypatch.setattr(workloads, "oracle_replies", corrupted)
    measurement = _run("serve-lookup-open", False, seconds=0.5)
    assert not measurement.correct
    assert measurement.failed >= measurement.detail["mismatches"] > 0


def test_gps_gate_fails_when_the_reference_differs(monkeypatch):
    real = workloads._GPSWorld.config

    def skewed(self, engine=True):
        config = real(self, engine)
        return config if engine else type(config)(**{**self.base, "step_size": 20})

    monkeypatch.setattr(workloads._GPSWorld, "config", skewed)
    measurement = _run("gps-lzr-split", False, seconds=0.3)
    assert not measurement.correct
    assert measurement.failed == measurement.attempted


def _step(rate, tail_ms=5.0, shed=0, failed=0, achieved=None, tail_q=99.0):
    return StepSummary(rate=rate, sent=1000, ok=1000 - shed - failed, shed=shed,
                       failed=failed, p50_ms=3.0, tail_q=tail_q,
                       tail_ms=tail_ms if tail_q is not None else None,
                       achieved_rps=rate if achieved is None else achieved,
                       offered_rps=rate)


def test_max_rate_picks_the_highest_step_meeting_every_condition():
    assert max_rate([_step(250), _step(500), _step(1000)]) == 1000
    assert max_rate([_step(250), _step(500), _step(1000, tail_ms=10.5)]) == 500
    assert max_rate([_step(250), _step(500, shed=1), _step(1000, tail_ms=11)]) == 250
    assert max_rate([_step(250), _step(500, failed=1)]) == 250
    assert max_rate([_step(250), _step(500, achieved=470)]) == 250
    assert max_rate([_step(250, tail_q=None), _step(500, tail_ms=20)]) == 0.0


def test_latency_is_timed_from_when_each_request_was_due():
    def call(index):
        async def body():
            if index == 0:
                time.sleep(0.05)  # a stall on the loop delays later sends
            return index
        return body()

    outcomes = asyncio.run(open_loop([0.0, 0.01, 0.02], call))
    assert [o.reply for o in outcomes] == [0, 1, 2]
    for outcome in outcomes[1:]:
        assert outcome.late >= 0.02
        assert outcome.latency >= outcome.late
        assert outcome.latency == pytest.approx(outcome.done - outcome.due)
    assert outcomes[0].latency >= 0.05


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert supported_percentile(1000) == 99.0
    assert supported_percentile(999) == 95.0
    assert supported_percentile(100_000) == 99.0
    assert supported_percentile(100) == 90.0
    assert supported_percentile(99) is None
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([5.0], 50) == 5.0


def test_self_time_subtracts_children_and_joins_trees():
    spans = [Span(1, "root", 0.0, 10.0), Span(2, "a", 1.0, 4.0, parent=1),
             Span(3, "b", 4.0, 6.0, parent=1), Span(4, "c", 2.0, 3.0, parent=2),
             Span(5, "other", 0.0, 1.0)]
    selfs = self_times(spans)
    assert selfs == {1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 1.0}
    assert {s.span_id for s in descendants(spans, {1})} == {1, 2, 3, 4}
    assert sum(selfs[s.span_id] for s in descendants(spans, {1})) == 10.0
    # Overlapping children (from different threads) are subtracted once.
    overlapping = [Span(1, "root", 0.0, 10.0), Span(2, "a", 1.0, 4.0, parent=1),
                   Span(3, "b", 3.0, 6.0, parent=1)]
    assert self_times(overlapping)[1] == 5.0


def test_span_recorder_keeps_every_span_and_parent_under_thread_contention():
    recorder = SpanRecorder()
    threads, per_thread = 8, 300

    def work(tag):
        for _ in range(per_thread):
            with recorder.span(f"outer-{tag}") as outer:
                with recorder.span(f"inner-{tag}") as inner:
                    assert inner != outer

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(interval)
    assert len(recorder.spans) == 2 * threads * per_thread
    assert len({s.span_id for s in recorder.spans}) == len(recorder.spans)
    names = {s.span_id: s.name for s in recorder.spans}
    for span in recorder.spans:
        if span.name.startswith("inner-"):
            assert names[span.parent] == "outer-" + span.name[len("inner-"):]
        else:
            assert span.parent is None


def test_compare_reports_wide_spread_as_unresolved():
    assert compare.verdict([1.0, 1.0], [1.05, 1.05], 0.1, False)["verdict"] == "unchanged"
    assert compare.verdict([1.0, 1.0], [1.2, 1.2], 0.1, False)["verdict"] == "regressed"
    assert compare.verdict([1.0, 1.0], [1.2, 1.2], 0.1, True)["verdict"] == "improved"
    noisy = compare.verdict([0.8, 1.0, 1.2], [1.0, 1.1, 1.3], 0.1, False)
    assert noisy["verdict"] == "unresolved"
    clear = compare.verdict([1.6, 2.0, 2.4], [1.0, 1.1, 1.2], 0.1, False)
    assert clear["verdict"] == "improved"
