"""`python -m rmflab <command> ...`: the rmflab CLI without an install."""

import sys

from .harness import main

sys.exit(main())
