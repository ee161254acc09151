"""``python -m finring``: the ``finring`` command line."""
from .cli import main

raise SystemExit(main())
