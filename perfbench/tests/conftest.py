import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

# the benchmark's modules import each other by plain name, as run.py does
os.environ["HKLATTICE_PURE_PYTHON"] = "1"
for p in (BENCH, os.path.join(ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)
