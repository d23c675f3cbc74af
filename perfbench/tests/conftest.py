import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# perfbench modules import each other by bare name, as run.py does; the
# brute-force oracles live in the repository's tests directory.
for path in (ROOT / "perfbench", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
