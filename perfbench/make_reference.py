"""Write the reference record values that run.py checks outputs against.

    python3 perfbench/make_reference.py --workload sweep49 --seeds 0 10

Runs one untimed round of the workload per seed with the checkout's rsnsim
and merges the values into perfbench/reference.json.  Rerun it only when a
change to rsnsim is meant to move results, and say why in CHANGES.md.
"""

import argparse
import json
import shutil
import sys
import tempfile

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    p.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"),
                   default=(0, 0))
    args = p.parse_args(argv)
    run.WORK_ROOT.mkdir(exist_ok=True)
    values = {}
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        workdir = tempfile.mkdtemp(dir=run.WORK_ROOT, prefix="reference-")
        try:
            wl = run.load_workload(args.workload, seed, workdir)
            values[str(seed)] = [wl.outcome(item, wl.call(item)).as_list()
                                 for item in wl.items]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{args.workload} seed {seed}: {len(values[str(seed)])} records")
    with open(run.REFERENCE) as f:
        doc = json.load(f)
    doc.setdefault(args.workload, {}).update(values)
    doc[args.workload] = dict(sorted(doc[args.workload].items(), key=lambda kv: int(kv[0])))
    with open(run.REFERENCE, "w") as f:
        json.dump(dict(sorted(doc.items())), f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
