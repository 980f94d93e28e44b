"""Self-tests of the benchmark harness (``pytest benchmarks/e2e/tests``).

Not collected by tier-1 (``testpaths = ["tests"]``).
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[3]
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)
