"""python -m d2dcache: the d2dcache command, run from a source tree."""

import sys

from .experiments import main

if __name__ == "__main__":
    sys.exit(main())
