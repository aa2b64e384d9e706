"""The traced-run ledger, the wrappers, the output check and the host record."""

import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
import repro

import env
import ledger as ledger_module
import report
import runners
from ledger import Instrumentation, Ledger, pristine, require_pristine


def _spans(led):
    return {span.name: span for span in led.spans}


def test_self_time_is_duration_minus_children():
    led = Ledger()
    # Recorded in closing order, as wrappers do; parents come from containment.
    led.record("parse", "query.parser", 10, 30, query=1)
    led.record("plan", "core.planspace", 60, 70, query=1)
    led.record("search", "core.sdp", 50, 80, query=1)
    led.record("service", "service.service", 40, 90, query=1)
    led.record("request", "service.frontdoor", 0, 100, query=1)
    led.record("later", "service.frontdoor", 120, 130, query=2)
    led.finish()
    spans = _spans(led)
    assert {name: span.self_ns for name, span in spans.items()} == {
        "request": 30, "parse": 20, "service": 20, "search": 20, "plan": 10, "later": 10,
    }
    index = {span.name: i for i, span in enumerate(led.spans)}
    assert spans["plan"].parent == index["search"]
    assert spans["search"].parent == index["service"]
    assert spans["request"].parent is None
    assert sum(span.self_ns for span in led.spans) == led.roots_ns() == 110


def test_overlapping_children_are_covered_once():
    # Children from two threads may overlap each other; the parent's self
    # time subtracts the union of their intervals, not the sum.
    led = Ledger()
    led.record("root", "service.frontdoor", 0, 100)
    led.record("a", "query.parser", 10, 40)
    led.record("c", "service.cache", 35, 60)
    led.finish()
    spans = _spans(led)
    assert spans["a"].parent == spans["c"].parent == 0
    assert spans["root"].self_ns == 50


def test_obs_spans_map_to_layers_and_requests():
    led = Ledger()
    with led.request(7, "ladder.optimize", "robust.ladder"):
        pass
    start, end, _ = led._requests[0]
    fake = [
        SimpleNamespace(name="robust.rung", start_ns=start, end_ns=end, attributes={"technique": "DP"}),
        SimpleNamespace(name="dp.enumerate", start_ns=start, end_ns=end, attributes={}),
        SimpleNamespace(name="sdp.level", start_ns=start, end_ns=end, attributes={}),
        SimpleNamespace(name="sdp.prune", start_ns=end + 10, end_ns=end + 20, attributes={}),
    ]
    led.import_obs(fake)
    imported = {(s.name, s.layer, s.query) for s in led.spans[1:]}
    assert imported == {
        ("rung.DP", "core.dp", 7),
        ("dpccp.enumerate", "core.dpccp", 7),
        ("skyline.prune", "skyline", 0),
    }


def test_counters_are_attributed_to_their_search_layer():
    led = Ledger()
    led.record("rung.DP", "core.dp", 0, 100, query=1)
    led.record("rung.SDP", "core.sdp", 100, 200, query=1)
    counters = SimpleNamespace(
        enumerated_pairs=5, plans_costed=50, retained_slots=10, jcrs_created=4, jcrs_pruned=1
    )
    led.counters = [(10, 1, counters), (150, 1, counters), (160, 1, counters)]
    totals = led.counters_by_layer()
    assert totals["core.dp"]["pairs"] == 5
    assert totals["core.sdp"]["runs"] == 2
    assert totals["core.sdp"]["plans_costed"] == 100


def test_wrappers_are_installed_and_all_removed():
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in ledger_module.SEAMS}
    service = repro.OptimizationService("SDP")
    assert pristine(service)
    with Instrumentation(Ledger(), service):
        assert not pristine(service)
        with pytest.raises(RuntimeError):
            require_pristine(service)
    assert pristine(service)
    with pytest.raises(ValueError):
        with Instrumentation(Ledger(), service):
            raise ValueError("the run failed")
    assert pristine(service)
    assert all(vars(owner)[attr] is original for (owner, attr), original in originals.items())


@pytest.fixture(scope="module")
def small_ladder():
    workload = runners.LadderDP()
    workload.setup(repeats=1)
    full = workload.make_universe
    workload.make_universe = lambda: tuple(i for i in full() if i.query.graph.n <= 9)
    workload.universe = workload.make_universe()
    return workload


def test_output_check_is_left_out_of_the_wall_time(small_ladder, monkeypatch):
    check = small_ladder.checker.check

    def slow_check(*args):
        time.sleep(0.05)
        return check(*args)

    monkeypatch.setattr(small_ladder.checker, "check", slow_check)
    # Without the collection before each query, only loop bookkeeping
    # lies between the requests.
    monkeypatch.setattr(runners.gc, "collect", lambda: 0)
    phase = small_ladder.run(0, 0.0, passes=1)
    served = sum(phase.seconds)
    assert not phase.failures
    assert served <= phase.wall_s < served + 0.01 * len(phase.seconds)


def test_untraced_run_refuses_installed_wrappers(small_ladder):
    with Instrumentation(Ledger()):
        with pytest.raises(RuntimeError):
            small_ladder.run(0, 0.0, passes=1)


def test_traced_ledger_sums_to_the_traced_wall_time(small_ladder):
    untraced = small_ladder.run(0, 0.0, passes=1)
    assert pristine()
    traced = small_ladder.run(0, 0.0, ledger=Ledger(), passes=1)
    assert pristine()
    led = traced.ledger
    assert all(span.self_ns >= 0 for span in led.spans)
    # Self times of a tree add up to the time its roots cover.
    assert sum(span.self_ns for span in led.spans) == led.roots_ns()
    assert led.roots_ns() <= traced.wall_s * 1e9
    metrics = report.per_layer(untraced, traced)
    layers = sum(metrics[f"self_s.{layer}"].value for layer in ledger_module.LAYERS)
    assert layers + metrics["unattributed_s"].value == pytest.approx(
        metrics["traced_wall_s"].value, rel=1e-9
    )
    assert metrics["unattributed_s"].value >= 0
    assert metrics["dpccp.pairs"].value > 0
    assert metrics["planspace.plans_costed"].value > 0
    assert not traced.failures


def test_serve_sql_traced_run_counts_two_parses_per_request():
    workload = runners.ServeSQL()
    try:
        workload.setup(repeats=1)
        untraced = workload.run(0, 0.0, count=40)
        traced = workload.run(0, 0.0, ledger=Ledger(), count=40)
        assert pristine(workload.service)
        metrics = report.per_layer(untraced, traced)
    finally:
        workload.close()
    assert metrics["parser.calls_per_query"].value == 2.0
    assert metrics["frontdoor.shed"].value == 0
    assert not traced.failures and not untraced.failures


def test_checker_flags_wrong_answers(small_ladder):
    item = small_ladder.universe[0]
    result = repro.optimize(item.query, technique="dp", stats=small_ladder.stats)
    exact = runners.Checker({item.key: {"cost": result.cost}}, optimum=True)
    assert exact.check(item.key, result, item.query.graph) == (True, 1.0, "")
    too_low = runners.Checker({item.key: {"cost": result.cost * 2}}, optimum=True)
    ok, _, reason = too_low.check(item.key, result, item.query.graph)
    assert not ok and "below the DP optimum" in reason
    ok, _, reason = exact.check("missing", result, item.query.graph)
    assert not ok and "no reference" in reason
    other = small_ladder.universe[1].query.graph
    ok, _, reason = exact.check(item.key, result, other)
    assert not ok and "invalid plan" in reason


def test_host_record_has_the_comparison_fields():
    host = env.host_record()
    assert host["cpu_count"] >= 1
    assert host["python"].count(".") == 2
    assert host["platform"]
    assert math.isfinite(host["calibration_ms"]) and host["calibration_ms"] > 0


def test_quantile_is_the_harrell_davis_estimate():
    # I_x(a, b) in closed form: arcsine law for a = b = 1/2, and
    # 1 - (1 - x)^3 (1 + 3x) for a = 2, b = 3.
    assert report._beta_cdf(0.3, 0.5, 0.5) == pytest.approx(2 / math.pi * math.asin(math.sqrt(0.3)))
    assert report._beta_cdf(0.8, 2, 3) == pytest.approx(1 - 0.2**3 * 3.4)
    # n = 2: Beta(1.5, 1.5) puts equal mass on each half.
    assert report._quantile([1.0, 3.0], 0.5) == pytest.approx(2.0)
    assert report._quantile([5.0] * 7, 0.9) == pytest.approx(5.0)
    # Many samples: it agrees with the order statistic.
    values = [float(i) for i in range(20_001)]
    assert report._quantile(values, 0.99) == pytest.approx(19_800, rel=1e-3)


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else True,
    reason="needs two CPUs for the two threads to contend for the interpreter",
)
def test_probe_does_not_count_another_thread_of_the_process():
    # A busy thread (as the front-door worker would be, polling harder)
    # slows the requests, and must not slow the probe that normalises them.
    # Idle and loaded probes alternate, so a drift of the host's speed
    # cancels out.
    run, stop = threading.Event(), threading.Event()

    def spin():
        while not stop.is_set():
            run.wait()
            sum(range(1000))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(2e-4)
    busy = threading.Thread(target=spin)
    busy.start()
    idle, loaded, wall = [], [], []
    try:
        for _ in range(15):
            run.clear()
            time.sleep(0.002)
            idle.append(env.probe())
            run.set()
            time.sleep(0.002)
            started = time.perf_counter()
            loaded.append(env.probe())
            wall.append(time.perf_counter() - started)
    finally:
        stop.set()
        run.set()
        busy.join()
        sys.setswitchinterval(interval)
    idle_s = statistics.median(idle)
    assert statistics.median(wall) > 1.5 * idle_s  # the busy thread did interfere
    assert statistics.median(loaded) < 1.35 * idle_s


def test_benchmark_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(env.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-sql",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 2
    assert completed.stdout == ""
    assert not Path(tmp_path / "perfbench" / "results").exists()
