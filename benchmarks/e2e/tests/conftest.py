"""Make the harness modules and the ``repro`` sources importable."""

import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1]
SRC = HARNESS.parents[1] / "src"
for path in (HARNESS, SRC):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
