"""``python -m circlebops``: the command-line front end of ``cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
