"""``python -m wedgeqft``: the same command line as ``wedgeqft``."""

import sys

from .cli import main

sys.exit(main())
