"""`python -m blocksieve`: the same command line as the `blocksieve` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
