"""Cost of ``simulate`` per step, and peak memory, above the 841-node lattice.

    python3 studies/scale_probe.py

Runs one fresh process per size, ``Grid(8, 3)`` (841 nodes),
``Grid(16, 3)`` (3,721 nodes) and ``Grid(32, 3)`` (15,625 nodes), each on
one network (alpha 1, beta 1, xi 4, seed 0) driven by a 4 V sine for 50
steps of 1 ms, with BLAS and OpenMP pinned to one thread.  Each prints
``simulate``'s CPU milliseconds per step, raw and scaled by the host
slow-down that perfbench's calibration kernel (``perfbench/calibrate.py``)
measures right after the steps (the median of ``CALIBRATION_CALLS`` timed
calls), and the process's peak RSS (``ru_maxrss``), which includes the
interpreter, numpy and network generation.  The package is imported from
the ``src`` directory next to this script, so running the script from two
checkouts compares them; on a shared host the per-step CPU drifts by 20%
and more, scaled or not, so a comparison needs the two checkouts' runs
alternated, several each.  It is not part of the tests or of the
benchmark; CI runs it to check that each size still sets up and steps.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SIZES = ((8, 3), (16, 3), (32, 3))  # (interface_dim, subdivision)
STEPS, AMPLITUDE, SEED = 50, 4.0, 0
CALIBRATION_CALLS = 100


def probe(interface_dim: int, subdivision: int) -> str:
    """One size's line, measured in this process."""
    sys.path.insert(0, str(SRC))
    from rsnsim import (BetaShape, Grid, default_ranges, generate_network,
                        simulate, sine_waveform)

    grid = Grid(interface_dim, subdivision)
    t = generate_network(grid, BetaShape(1.0, 1.0), 4, default_ranges(), SEED)
    start = time.process_time()
    simulate(t, sine_waveform(AMPLITUDE), dt=1e-3, duration=STEPS * 1e-3)
    ms = (time.process_time() - start) * 1e3 / STEPS
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    # imported after the peak is read: importing them first added about 1 MB
    import statistics
    sys.path.insert(1, str(ROOT / "perfbench"))
    import calibrate
    slow = statistics.median(calibrate.timed_call() for _ in range(CALIBRATION_CALLS))
    scaled = ms / (slow / calibrate.NOMINAL_S)
    return (f"Grid({interface_dim}, {subdivision}) {grid.n_nodes} nodes: "
            f"{ms:.2f} ms per step ({scaled:.2f} scaled), peak RSS {rss_mb:.1f} MB")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", type=int, nargs=2, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.size:
        print(probe(*args.size), flush=True)
        return
    for size in SIZES:  # a process each, so each peak RSS is its own
        subprocess.run([sys.executable, __file__, "--size", *map(str, size)],
                       check=True)


if __name__ == "__main__":
    main()
