"""Put the benchmark's modules and the checkout's program on the import path."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import env  # noqa: E402

env.load_program()
