"""The ``cogclust`` command: ``python -m cogclust`` and the console script.

cogclust calls no BLAS routine, so the threads OpenBLAS starts when numpy is
imported would only take CPU. The command asks for one before anything
imports numpy; a value already set in the environment wins. A library import
of cogclust leaves the environment alone.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
