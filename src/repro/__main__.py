"""``python -m repro <verb>``: the one command line (see :mod:`repro.cli`)."""

import os
import sys

from repro.cli import main

if __name__ == "__main__":
    try:
        code = main()
    except BrokenPipeError:  # e.g. `python -m repro list tracepoints | head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)
