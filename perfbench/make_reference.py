"""Regenerate ``reference_costs.json``, the costs the benchmark checks against.

Run from the root of a checkout, on the eager reference kernel so that
the fast kernel under test is never its own oracle::

    REPRO_KERNEL=reference python3 perfbench/make_reference.py

* ``ladder-dp`` and ``serve-sql``: the exhaustive-DP optimum of every
  universe query, computed without a budget;
* ``search-sdp``: SDP's cost (DP is infeasible at 18-25 relations), as the
  paper does for its scaled configurations.

The universes are fixed (``workloads.UNIVERSE_SEED``), so the file only
changes when a universe or the cost model changes.
"""

from __future__ import annotations

import json
import os
import sys
import time

import env


def main() -> int:
    if os.environ.get("REPRO_KERNEL") != "reference":
        print("run with REPRO_KERNEL=reference (the eager oracle kernel)", file=sys.stderr)
        return 2
    repro = env.load_program()
    import runners
    import workloads

    unlimited = repro.SearchBudget.unlimited()
    plan = (
        ("search-sdp", workloads.wide_schema, workloads.search_sdp_universe, "sdp"),
        ("ladder-dp", workloads.ladder_schema, workloads.ladder_dp_universe, "dp"),
        ("serve-sql", workloads.serve_schema, workloads.serve_sql_universe, "dp"),
    )
    document = {
        "generated_by": "REPRO_KERNEL=reference python3 perfbench/make_reference.py",
        "reference": {
            "search-sdp": "SDP cost (DP infeasible)",
            "ladder-dp": "unbudgeted DP optimum",
            "serve-sql": "unbudgeted DP optimum",
        },
    }
    for name, make_schema, make_universe, technique in plan:
        schema = make_schema()
        stats = repro.analyze(schema)
        costs = {}
        started = time.perf_counter()
        for item in make_universe(schema):
            query = item.query if item.query is not None else repro.parse_sql(schema, item.sql)
            result = repro.optimize(query, technique=technique, stats=stats, budget=unlimited)
            costs[item.key] = {"label": item.label, "cost": result.cost}
        document[name] = costs
        print(f"{name}: {len(costs)} queries in {time.perf_counter() - started:.1f} s")
    with open(runners.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
