"""`python -m mcfans ...` runs the mcfans command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
