"""Make the harness importable the way ``run.py`` does as a script."""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
for entry in (str(PERF), str(PERF.parents[1] / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
