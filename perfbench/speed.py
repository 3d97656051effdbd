"""Machine-speed calibration, so that times are steady on a shared host.

On a host shared with other tenants the speed of one core drifts by 20 %
or more within seconds.  A fixed pure-Python calibration loop is timed
between requests; each request's wall time is divided by the speed
factor (calibration time / REFERENCE_S) measured around it.  The
reported times are therefore seconds at reference speed, where
REFERENCE_S is roughly the loop's time on the 2-core 2.1 GHz Xeon
machine the baseline was measured on.  Raw wall times are printed beside
them.

The loop has an integer/dict part that stays in the first-level cache
and a part that builds and walks about 2 MB of tuples, so that it slows
with cache contention as the bgg workloads do.
"""

import gc
import statistics
import time

DICT_ITERATIONS = 20_000
TUPLE_ROWS = 15_000
REFERENCE_S = 0.010
# calibrations on each side of an interval that set its speed factor
WINDOW = 3


def calibrate() -> float:
    """Wall time of the calibration loop, with the cyclic garbage
    collector held off so that it times the machine and not the heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = {}
        for i in range(DICT_ITERATIONS):
            k = i * 7919 % 1021
            acc[k] = acc.get(k, 0) + (i ^ k)
        rows = [(i, i * 3, i & 7) for i in range(TUPLE_ROWS)]
        for _, b, c in rows:
            acc[b % 4099] = acc.get(b % 4099, 0) + c
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factors(cals: list) -> list:
    """Speed factor of each interval between consecutive calibrations: the
    median of the WINDOW calibrations on each side of it, over REFERENCE_S;
    above 1 when the machine ran slower than reference.  The median keeps
    one disturbed calibration from skewing the requests next to it."""
    return [
        statistics.median(cals[max(0, i + 1 - WINDOW) : i + 1 + WINDOW]) / REFERENCE_S
        for i in range(len(cals) - 1)
    ]
