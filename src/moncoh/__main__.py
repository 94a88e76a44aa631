"""``python -m moncoh``: the same command line as the ``moncoh`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
