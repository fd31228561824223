"""Entry point named by ``BENCHMARK.json``: ``python3 perfbench/run.py
--workload W --seed N --seconds S --trace T`` from the repository root
(no ``PYTHONPATH`` needed)."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
