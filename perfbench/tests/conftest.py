import sys
from pathlib import Path

# The tests import the benchmark as the ``perfbench`` package.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
