"""Let the CLI subprocesses the tests start import this checkout's package.

pytest's ``pythonpath`` setting reaches only the test process, so the
repo's ``src`` is also put first on ``PYTHONPATH``, which children inherit.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
