"""Harness tests for the end-to-end benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests``; every
test uses the ``--quick`` sizes; the whole suite takes under a minute.
"""

import pathlib
import sys

E2E = pathlib.Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]

for entry in (str(ROOT / "src"), str(E2E)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
