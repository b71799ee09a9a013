"""``python -m hklattice``: the ``hklattice`` command line."""

import sys

from .cli import main

sys.exit(main())
