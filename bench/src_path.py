"""Make `import foqsim` load this checkout's sources, never an installed copy.

Imported for its effect by every benchmark module that uses foqsim. Exits
with an error when the checkout holds no `src/foqsim`, so the benchmark
cannot report figures for some other build of the program.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "foqsim" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no foqsim sources under {SRC}")
if sys.path[0] != str(SRC):
    sys.path.insert(0, str(SRC))

import foqsim  # noqa: E402

if Path(foqsim.__file__).resolve().parent != (SRC / "foqsim").resolve():
    raise SystemExit(f"benchmark: foqsim was imported from {foqsim.__file__}, "
                     f"not from {SRC}")
