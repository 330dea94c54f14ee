"""``python -m confrelay``: the command line of :mod:`confrelay.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
