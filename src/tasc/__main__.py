"""Run the command-line interface as `python -m tasc`."""
import sys

from tasc.cli import main

if __name__ == "__main__":
    sys.exit(main())
