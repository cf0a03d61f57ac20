"""Entry point of the halpha-sim benchmark; see bench.py for what it measures.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload presets|population|dynamic \
        --seed N --seconds S --trace 0|1
"""

import os
import sys

if __name__ == "__main__":
    # Before numpy loads, here and in every child: no load may use more
    # threads than there are cores.
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    from bench import main

    sys.exit(main())
