"""Put the checkout's own ``src/`` first on the import path.

The benchmark measures the library in the checkout it sits in, never an
installed copy, so it refuses to run when ``src/fusionalg`` is missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree() -> Path:
    if not (SRC / "fusionalg" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'fusionalg'} is missing; run from a checkout")
    sys.path.insert(0, str(SRC))
    import fusionalg

    if Path(fusionalg.__file__).resolve().parent != SRC / "fusionalg":
        sys.exit(f"error: fusionalg was imported from {fusionalg.__file__}")
    return ROOT
