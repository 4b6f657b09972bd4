"""Process set-up shared by the benchmark's modules.

Importing this module pins BLAS to one thread (unless the caller already
chose), removes the seed override the program honours, and puts the
checkout's ``src`` directory first on the import path, so ``pathscan``
is always the copy that sits next to this benchmark.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")
# pathscan.io.resolve_seed lets PATHSCAN_SEED override every config seed
os.environ.pop("PATHSCAN_SEED", None)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    """Versions and thread settings that a run's figures depend on."""
    import platform

    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
    }
