"""``python -m oscresp``: the ``oscresp`` command line."""

import sys

from .cli import main

sys.exit(main())
