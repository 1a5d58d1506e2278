"""Check that the host probe does not see the cache footprint of the record.

    python3 perfbench/probe_footprint.py --seconds 20 [--no-warm-up]

Under ``calibrate.HostProbe``, one loop alternates an 835x835 dense solve
(the footprint of a large841 step) with about 20 ms of small-array numpy
calls (that of a 49-node step), and tags each timed kernel call by the phase
it interrupted.  Both phases share the host's drift, so the ratio of the two
medians shows only what the phase itself does to the probe.  A ratio near 1
means the slow-down that divides a record does not depend on what the record
keeps in the cache.  ``--no-warm-up`` drops the warm-up call, for contrast.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--no-warm-up", action="store_true")
    args = p.parse_args()

    phase = "small"
    ticks = {"dense": [], "small": []}

    def tagged_call() -> float:
        if not args.no_warm_up:
            calibrate.kernel()
        c0 = time.thread_time()
        calibrate.kernel()
        ticks[phase].append(time.thread_time() - c0)
        return ticks[phase][-1]

    calibrate.timed_call = tagged_call
    rng = np.random.default_rng(0)
    big = rng.random((835, 835)) + 835.0 * np.eye(835)
    big_rhs = rng.random(835)
    small = rng.random((49, 49)) + 49.0 * np.eye(49)
    edges = rng.random(300)
    end = time.thread_time() + args.seconds
    with calibrate.HostProbe():
        while time.thread_time() < end:
            phase = "dense"
            np.linalg.solve(big, big_rhs)
            phase = "small"
            for _ in range(150):
                np.linalg.solve(small, edges[:49])
                np.where(edges > 0.5, np.sinh(edges), np.expm1(-edges)).sum()
    med = {k: statistics.median(v) for k, v in ticks.items()}
    print(f"warm-up={'no' if args.no_warm_up else 'yes'} "
          f"dense: {len(ticks['dense'])} calls, median {med['dense'] * 1e3:.4f} ms; "
          f"small: {len(ticks['small'])} calls, median {med['small'] * 1e3:.4f} ms; "
          f"dense/small {med['dense'] / med['small']:.3f}")


if __name__ == "__main__":
    main()
