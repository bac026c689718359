"""`python -m fvbound`: the fvbound command line, exiting with its status."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
