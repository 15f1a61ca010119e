"""Make the benchmark's modules and the ``repro`` sources importable.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent

os.environ.setdefault("REPRO_KERNELS", "numpy")
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
