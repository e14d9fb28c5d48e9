"""Serving benchmark for ``repro serve``: four traffic mixes driven as a
closed loop over keep-alive HTTP, plus a traced in-process replay that
times each layer from outside.  Run ``python3 -m bench --help``; see
``bench/README.md`` for the workloads and metrics.

The benchmark measures the sources of the checkout it lives in: the
daemon is started with ``PYTHONPATH=<checkout>/src`` and the traced
replay imports ``repro`` from the same directory (:func:`use_source`),
never an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout the benchmark lives in (the parent of ``bench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The package sources the benchmark measures.
SOURCE = ROOT / "src"


def use_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; raises
    :class:`FileNotFoundError` when the checkout holds no ``repro``
    package (the benchmark must never measure some other copy)."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro package under {SOURCE}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
