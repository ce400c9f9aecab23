"""``PYTHONPATH=src python -m benchmarks.iqbench``: see ``run.py``."""

from benchmarks.iqbench.run import main

raise SystemExit(main())
