"""The performance ledger: the repo's one committed, repeatable benchmark.

Five named workloads, speed-calibrated end-to-end metrics and a per-layer
budget measured from outside the program (see README.md in this directory
and BENCHMARK.json at the repository root).  Entry points:

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload, one JSON result line (the BENCHMARK.json contract);
``python -m benchmarks.ledger run | compare``
    all five workloads in one report, and report-to-report comparison.
"""

import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parent.parent

# The ledger runs from a bare checkout: put the program under test on the
# path the same way benchmarks/conftest.py does for the legacy harnesses.
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
