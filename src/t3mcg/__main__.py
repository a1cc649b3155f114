"""``python -m t3mcg``: the command-line interface of ``t3mcg.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
