"""``python3 -m d2ptas``: the same entry point as the ``d2ptas`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
