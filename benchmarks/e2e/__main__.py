"""``python -m benchmarks.e2e`` — see :mod:`benchmarks.e2e.run`."""

import sys

from benchmarks.e2e.run import main

# guarded: the mp transport's spawned workers re-import this module
if __name__ == "__main__":
    sys.exit(main())
