"""`python -m cubicmoduli ...`: the command line without an installed
script, e.g. `PYTHONPATH=src python -m cubicmoduli selftest` from a
checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
