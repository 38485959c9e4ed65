"""``python -m switchlab``: the ``switchlab`` command."""

import sys

from .cli import main

sys.exit(main())
