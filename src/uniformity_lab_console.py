"""The `uniformity-lab` console entry: BLAS on one thread, then the CLI.

OpenBLAS sizes its thread pool when numpy first loads, from the variables
below; unset, it takes every core, and on a small machine most commands
then run slower (fast U^3 at p = 7, n = 3 took 25 times as long on two
threads as on one).  `uniformity_lab.cli` loads numpy through `reports`
and `systems`, which every command imports, so this entry lives outside
the package and sets the variables before anything of it loads.  A value
already in the environment is kept.  Importing `uniformity_lab` or
`uniformity_lab.cli` sets nothing.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from uniformity_lab.cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
