"""Run every spectrum, correct, degenerate and validate row of
tests/commands.txt under each OpenBLAS kernel, and print each run whose
stdout, stderr or exit status differs from the run with OPENBLAS_CORETYPE
unset. None of these commands calls LAPACK: their spectra, oracle
eigenvalues and the stored block's eigenpairs are pure Python.

    PYTHONPATH=src python tests/kernels.py

Each run is a fresh interpreter, as tests/corpus.py runs it, in text and in
json (`diff_parent.variants`); OPENBLAS_CORETYPE is set in that child's
environment only. The script exits 1 if any run differs.
"""
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import corpus
import diff_parent

KERNELS = ("Prescott", "SandyBridge", "Haswell")
COMMANDS = ("spectrum", "correct", "degenerate", "validate")


def main() -> int:
    rows = [row for row in corpus.rows() if row.argv[:1] and row.argv[0] in COMMANDS]
    argvs = [argv for row in rows for argv in diff_parent.variants(row.argv)]
    unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    differing = 0
    with ThreadPoolExecutor(2) as pool:
        for argv in argvs:
            envs = [unset, *(dict(unset, OPENBLAS_CORETYPE=kernel) for kernel in KERNELS)]
            base, *others = pool.map(lambda env: corpus.run(argv, env=env), envs)
            for kernel, other in zip(KERNELS, others):
                if other != base:
                    differing += 1
                    print(" ".join(argv), f"  under {kernel}:",
                          *(f"  {line}" for line in diff_parent.first_difference(base, other)),
                          sep="\n")
    print(f"{differing} of {len(argvs) * len(KERNELS)} kernel runs of {len(rows)} rows "
          "differ from the default kernel")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
