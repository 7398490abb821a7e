"""``python -m conormal``: the command line front end of conormal.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
