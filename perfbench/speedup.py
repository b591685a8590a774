"""In-process thread speedup of ``frequency_run``.

Usage:  python speedup.py N SEED REPEATS

Times ``frequency_run`` on the lasso model at threads = 1 and threads = 2 with
the same n and seed, alternating, and prints one JSON object with the median
times, their ratio and whether both thread counts drew identical p-values.
"""

from __future__ import annotations

import json
import statistics
import sys
import time


def main(argv: list[str]) -> int:
    n, seed, repeats = (int(a) for a in argv)
    import numpy as np
    from subuniform import RngStream, frequency_run, lasso_model

    model = lasso_model(0.1)
    times = {1: [], 2: []}
    values = {}
    for _ in range(repeats):
        for threads in (1, 2):
            t0 = time.perf_counter()
            run = frequency_run(model, n, RngStream(seed=seed), threads=threads)
            times[threads].append(time.perf_counter() - t0)
            values[threads] = run.pvalues.values
    t1, t2 = statistics.median(times[1]), statistics.median(times[2])
    print(json.dumps({"threads1_s": t1, "threads2_s": t2, "speedup": t1 / t2,
                      "identical": bool(np.array_equal(values[1], values[2]))}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
