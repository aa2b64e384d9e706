#!/usr/bin/env bash
# Full pre-merge verification: static analysis (plus its wall-time
# guard), the tier-1 test suite (which includes the TPC-H-lite SQL
# front-door sweep), the perfbench tests, the hot-path regression guard,
# and the front-door overload smoke, in fail-fast order (cheapest first).
#
#   scripts/verify.sh            # from the repo root
#
# Each stage's own output explains any failure; the script stops at the
# first one and reports per-stage wall time on the way through. Uses
# PYTHONPATH so it works without `pip install -e .`.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

STAGE_T0=$SECONDS
stage_done() {
  echo "   stage time: $((SECONDS - STAGE_T0))s"
  STAGE_T0=$SECONDS
}

echo "== 1/5 static analysis (python -m repro.lint, lint wall-time guard) =="
python -m repro.lint src/
python -m pytest -m perf tests/test_lint_clean.py

stage_done

echo "== 2/5 tier-1 tests (pytest) =="
python -m pytest

stage_done

echo "== 3/5 perfbench tests (python -m pytest perfbench/tests) =="
python -m pytest perfbench/tests

stage_done

echo "== 4/5 hot-path regression guard (sdp-bench --check) =="
python -m repro.bench --check BENCH_optimize.json

stage_done

echo "== 5/5 overload smoke (pytest -m stress) =="
python -m pytest -m stress

stage_done

echo "verify: all stages passed (total ${SECONDS}s)"
