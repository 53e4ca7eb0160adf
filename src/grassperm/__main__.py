"""Run the grassperm command line tool: python -m grassperm ARGS."""

import sys

from grassperm.cli import main

if __name__ == "__main__":
    sys.exit(main())
