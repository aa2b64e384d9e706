"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search-sdp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice — untraced, then traced with the
ledger's wrappers installed — and prints the per-layer metrics. The last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``). The exit code is 0 only when every plan passed
the output check; it is 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import env

WORKLOAD_NAMES = ("search-sdp", "ladder-dp", "serve-sql")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [
                sys.executable, str(env.HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            cwd=env.ROOT,
            timeout=900,
        )
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if lines:
            results[name] = json.loads(lines[-1])
        status = status or completed.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _arguments(argv)
    try:
        env.load_program()
    except (env.MissingProgram, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    cleared = env.clear_kernel_overrides()

    import ledger as ledger_module
    import report
    import runners

    pinned = env.pin_to_one_cpu()
    host = {**env.host_record(), "pinned_cpu": pinned}
    workload = runners.WORKLOADS[args.workload]()
    try:
        setup_samples = workload.setup()
        if args.trace:
            untraced, traced = _traced_run(workload, args, ledger_module.Ledger())
            phases = (untraced, traced)
            metrics = report.per_layer(untraced, traced)
        else:
            if hasattr(workload, "warm_up"):
                workload.warm_up()
            phase = workload.run(args.seed, args.seconds)
            phases = (phase,)
            metrics = report.end_to_end(phase, setup_samples, env.peak_rss_mb())
            raw = report.raw_timing(phase)
    finally:
        workload.close()

    measured = phases[-1]
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    print(
        f"host: cpu_count={host['cpu_count']} pinned_cpu={pinned} python={host['python']} "
        f"({host['implementation']}) platform={host['platform']} "
        f"calibration_ms={host['calibration_ms']:.3f}"
    )
    if cleared:
        print(f"note: ignored kernel overrides {cleared}; measuring the default kernel")
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(measured.seconds)} queries in {measured.wall_s:.3f} s"
        + (f" ({measured.passes} passes)" if measured.passes else "")
    )
    if args.trace:
        print(report.render_table("per-layer ledger (traced phase, raw times)", metrics))
    else:
        speed = measured.speed
        print(
            f"host speed: {len(speed.seconds)} probes, median "
            f"{statistics.median(speed.seconds) * 1e3:.4f} ms (reference "
            f"{env.REFERENCE_PROBE_S * 1e3:.4f} ms); times below are rescaled to the reference"
        )
        print(report.render_table("end-to-end (tracing off, host-normalised)", metrics))
        print(report.render_table("raw timing (as measured)", raw))
    print(
        f"  failed_share {len(failures) / attempted if attempted else 0.0:.6g} "
        f"({len(failures)} of {attempted} attempted)"
    )
    if not args.trace:
        print(report.paper_claim(measured, args.workload, workload.optimum_reference))
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    _write_results(args, host, metrics, attempted, failures, phases, None if args.trace else raw)
    correct = not failures
    print(report.result_line(correct, attempted, len(failures), metrics))
    return 0 if correct else 1


def _traced_run(workload, args, ledger):
    """Untraced half, then the same amount of work traced."""
    half = args.seconds / 2
    if hasattr(workload, "warm_up"):
        workload.warm_up()
        untraced = workload.run(args.seed, half)
        traced = workload.run(args.seed, half, ledger=ledger, passes=untraced.passes)
    else:
        untraced = workload.run(args.seed, half)
        traced = workload.run(args.seed, half, ledger=ledger, count=len(untraced.seconds))
    return untraced, traced


def _as_json(metrics) -> dict:
    return {
        name: {"value": m.value, "unit": m.unit, "better": m.better, "samples": m.samples}
        for name, m in metrics.items()
    }


def _write_results(args, host, metrics, attempted, failures, phases, raw) -> None:
    env.RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "attempted": attempted,
        "failures": failures,
        "metrics": _as_json(metrics),
    }
    if raw is not None:
        phase = phases[-1]
        record["raw_timing"] = _as_json(raw)
        record["probes"] = list(zip(phase.speed.times, phase.speed.seconds))
        record["requests"] = list(zip(phase.keys, phase.started, phase.seconds))
    with open(env.RESULTS / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    ledger = phases[-1].ledger
    if ledger is not None:
        ledger.write(env.RESULTS / f"{stem}.spans.jsonl")


if __name__ == "__main__":
    sys.exit(main())
