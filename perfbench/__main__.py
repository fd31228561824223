"""``python -m perfbench``: every workload, both modes, one JSON result."""

import sys

from perfbench.bench import main

sys.exit(main())
