"""BENCHMARK.json agrees with what the benchmark prints."""

import json
import re

import env
import report
import run

SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _listed(key):
    return {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}


def test_metrics_match_the_report():
    assert _listed("end_to_end") == report.END_TO_END
    assert _listed("per_layer") == report.PER_LAYER


def test_workloads_match_the_runner():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES


def test_names_units_and_bounds_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
