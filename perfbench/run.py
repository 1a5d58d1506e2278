"""rsnsim benchmark: one workload per process, CPU-time metrics, checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep49 --seed 0 --seconds 10 --trace 0

Workloads (see workloads.py): sweep49, hier49_k16, large841, cli49.  A round
is the workload's fixed list of records; the timed phase runs whole rounds
until it has spent ``--seconds`` CPU seconds in records.  Throughput and
per-record times are CPU seconds scaled for host drift (calibrate.py); raw
CPU and wall figures are printed beside them for context only.  BLAS and
OpenMP are pinned to one thread before numpy is imported, and no timed run
uses more than one process.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
rounds untraced, then again with span wrappers installed (tracer.py), and
prints the per-layer split per round plus the tracing overhead.  Every
record is checked: against perfbench/reference.json when it holds the seed,
else against invariants.  The last line of stdout is one JSON object.
"""

import os

# Must precede the first numpy import, here and in every child process.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("sweep49", "hier49_k16", "large841", "cli49")
SETUP_PROBES = 9
SETUP_CALIBRATION_CALLS = 100
# Reference comparison: floats to this relative tolerance, counts exactly.
REF_RTOL = 1e-7
REF_ATOL = 1e-12
TAIL_ABOVE = 10

# Per-layer metrics that every workload exercises; they form the JSON line
# of a traced run.  The rest are printed for the workloads that reach them.
LAYER_JSON = (
    "topology.generate_s", "topology.distance_map_s", "topology.connect_s",
    "topology.edges", "topology.augmented_edges",
    "device.conductance_s", "device.advance_s", "device.hysteresis_s",
    "device.calls", "device.edge_evals", "device.switching_events",
    "solver.simulate_s", "solver.solve_s", "solver.step_self_s",
    "solver.solves", "solver.dim", "solver.solve_gflop_computed",
    "solver.solve_gflops", "solver.matrix_mb_computed",
    "analysis.entropy_s", "analysis.energy_s",
    "harness.record_s", "harness.self_s", "trace.overhead_frac",
)
# Counts that must repeat exactly across rounds and between the untraced
# and traced phases.
EXACT_COUNTS = ("topology.edges", "device.edge_evals", "device.switching_events",
                "solver.solves", "solver.dim_sum")


def load_workload(name: str, seed: int, workdir: str):
    """The timed set-up: import rsnsim from the checkout and build inputs."""
    if not (SRC / "rsnsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rsnsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rsnsim
    if Path(rsnsim.__file__).resolve().parent != SRC / "rsnsim":
        raise SystemExit(f"perfbench: imported rsnsim from {rsnsim.__file__}, "
                         f"not from {SRC}")
    import workloads
    return workloads.WORKLOADS[name](seed, workdir)


def setup_probe(args) -> None:
    """Child-process mode: time one fresh set-up and print its CPU seconds,
    scaled by the host slow-down measured right after it."""
    workdir = tempfile.mkdtemp(dir=WORK_ROOT, prefix="probe-")
    try:
        t0 = time.process_time()
        load_workload(args.workload, args.seed, workdir)
        setup = time.process_time() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    from calibrate import NOMINAL_S, timed_call
    slow = statistics.median(timed_call() for _ in range(SETUP_CALIBRATION_CALLS))
    print(repr(setup / (slow / NOMINAL_S)))


def setup_seconds(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


@dataclass
class Sample:
    round: int
    index: int
    cpu: float
    wall: float
    outcome: object = None
    raw: object = None
    error: str = ""
    scaled: float = 0.0
    calib_cpu: float = 0.0


def run_rounds(wl, seconds: float, n_rounds=None, tracer=None,
               probe=None) -> tuple:
    """Run whole rounds until ``seconds`` of record CPU time (or ``n_rounds``).

    With an active ``calibrate.HostProbe``, its CPU time inside each record
    is moved from ``cpu`` to ``calib_cpu``, and ``scaled`` is the record's
    CPU time scaled for host drift.  Returns the samples and, when
    traced, the tracer's counts per round.
    """
    probe = probe or SimpleNamespace(spent=0.0, scaled=0.0, mark=lambda: None)
    samples, counts = [], []
    record_nid = tracer.intern("harness.record") if tracer else None
    cpu = 0.0
    rnd = 0
    while (cpu < seconds) if n_rounds is None else (rnd < n_rounds):
        for i, item in enumerate(wl.items):
            if tracer:
                tracer.record_id = len(samples)
                span = tracer.open(record_nid)
            error, raw = "", None
            probe.mark()
            k0, s0 = probe.spent, probe.scaled
            c0, w0 = time.thread_time(), time.perf_counter()
            try:
                raw = wl.call(item)
            except Exception as exc:  # a failed record is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            probe.mark()
            c1, w1 = time.thread_time(), time.perf_counter()
            if tracer:
                tracer.close(span)
            calib = probe.spent - k0
            s = Sample(rnd, i, c1 - c0 - calib, w1 - w0, error=error,
                       scaled=probe.scaled - s0, calib_cpu=calib)
            if not error:
                try:
                    s.outcome = wl.outcome(item, raw)
                    s.raw = raw if rnd == 0 else None
                except Exception as exc:
                    s.error = f"{type(exc).__name__}: {exc}"
            samples.append(s)
            cpu += s.cpu
        if tracer:
            counts.append(tracer.take_counts())
        rnd += 1
    return samples, counts


def check_samples(wl, samples, reference) -> None:
    """Mark every record that fails an invariant or its reference values."""
    from workloads import invariant_errors
    for s in samples:
        if s.error:
            continue
        errors = invariant_errors(wl, s.outcome)
        if reference is not None:
            want = reference[s.index]
            got = s.outcome.as_list()
            for key, g, w in zip(("entropy_bits", "energy_joules"), got, want):
                if not math.isclose(g, w, rel_tol=REF_RTOL, abs_tol=REF_ATOL):
                    errors.append(f"{key} {g!r} != reference {w!r}")
            for key, g, w in zip(("switching_events", "edge_count"), got[2:], want[2:]):
                if g != w:
                    errors.append(f"{key} {g} != reference {w}")
        if errors:
            s.error = "; ".join(errors)


def round_counts(wl, samples) -> list:
    """Exact counts of each round as implied by its records' outcomes."""
    rounds = {}
    for s in samples:
        rounds.setdefault(s.round, []).append(s)
    out = []
    for rnd in sorted(rounds):
        outs = [s.outcome for s in rounds[rnd]]
        if any(o is None for o in outs):
            out.append(None)
            continue
        edges = sum(o.edge_count for o in outs)
        out.append({"topology.edges": edges,
                    "device.edge_evals": 3 * wl.steps * edges,
                    "device.switching_events": sum(o.switching_events for o in outs),
                    "solver.solves": wl.steps * wl.networks_per_record * len(outs)})
    return out


def check_workers(wl, first_round) -> str:
    """records.csv from run_sweep must not depend on the worker count."""
    from rsnsim.cli import records_csv
    from rsnsim.harness import run_sweep
    one = records_csv(run_sweep(wl.cfg, workers=1))
    two = records_csv(run_sweep(wl.cfg, workers=2))
    if one != two:
        return "records.csv differs between workers=1 and workers=2"
    # A failed record has no SweepRecord of its own; it is already counted.
    if all(s.raw is not None for s in first_round):
        if one != records_csv([s.raw for s in first_round]):
            return "run_sweep records differ from the benchmark's own records"
    return ""


def tail(values) -> tuple:
    """Highest nearest-rank percentile with >= TAIL_ABOVE values above it."""
    n = len(values)
    if n <= TAIL_ABOVE:
        return None, None
    return sorted(values)[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def environment(seed: int) -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "rsnsim").glob("*.py")))
    pins = ",".join(f"{v}={os.environ[v]}" for v in THREAD_PINS)
    return (f"env python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"blas={blas!r} nproc={len(os.sched_getaffinity(0))} pins={pins} "
            f"seed={seed} src_lines={src_lines}")


def line(name: str, value, unit: str, note: str = "") -> None:
    text = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<28} {text:>12} {unit:<6} {note}".rstrip())


def layer_metrics(wl, tracer, counts, n_rounds: int) -> dict:
    total, own = tracer.layer_times()
    c = counts[0]

    def t(name):
        return total.get(name, 0.0) / n_rounds

    cli_self = sum(own.get(f"cli.{cmd}", 0.0)
                   for cmd in ("generate", "simulate", "analyze")) / n_rounds
    solve_s = t("solver.solve")
    gflop = c["solver.flop"] / 1e9
    return {
        "topology.generate_s": (t("topology.generate"), "s"),
        "topology.distance_map_s": (t("topology.distance_map"), "s"),
        "topology.connect_s": (t("topology.connect"), "s"),
        "topology.edges": (c["topology.edges"], "count"),
        "topology.augmented_edges": (c["topology.augmented_edges"], "count"),
        "topology.json_write_s": (t("topology.json_write"), "s"),
        "topology.json_read_s": (t("topology.json_read"), "s"),
        "device.conductance_s": (t("device.conductance"), "s"),
        "device.advance_s": (t("device.advance"), "s"),
        "device.hysteresis_s": (t("device.hysteresis"), "s"),
        "device.calls": (c["device.calls"], "count"),
        "device.edge_evals": (c["device.edge_evals"], "count"),
        "device.switching_events": (c["device.switching_events"], "count"),
        "solver.simulate_s": (t("solver.simulate"), "s"),
        "solver.solve_s": (solve_s, "s"),
        "solver.step_self_s": (own.get("solver.simulate", 0.0) / n_rounds, "s"),
        "solver.solves": (c["solver.solves"], "count"),
        "solver.dim": (c["solver.dim_sum"] / max(1, c["solver.solves"]), "rows"),
        "solver.solve_gflop_computed": (gflop, "GFLOP"),
        "solver.solve_gflops": (gflop / solve_s, "GFLOP/s"),
        "solver.matrix_mb_computed": (c["solver.matrix_bytes"] / 1e6, "MB"),
        "solver.csv_write_s": (t("solver.csv_write"), "s"),
        "solver.csv_read_s": (t("solver.csv_read"), "s"),
        "solver.trace_bytes": (c["solver.trace_bytes"], "bytes"),
        "analysis.entropy_s": (t("analysis.entropy"), "s"),
        "analysis.energy_s": (t("analysis.energy"), "s"),
        "analysis.readout_s": (t("analysis.readout"), "s"),
        "harness.record_s": (t("harness.record"), "s"),
        "harness.self_s": (own.get("harness.record", 0.0) / n_rounds, "s"),
        "cli.generate_s": (t("cli.generate"), "s"),
        "cli.simulate_s": (t("cli.simulate"), "s"),
        "cli.analyze_s": (t("cli.analyze"), "s"),
        "cli.self_s": (cli_self, "s"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    WORK_ROOT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0

    workdir = tempfile.mkdtemp(dir=WORK_ROOT, prefix=f"{args.workload}-")
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    t0 = time.process_time()
    wl = load_workload(args.workload, args.seed, workdir)
    first_setup = time.process_time() - t0
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} round={len(wl.items)} records")
    print(environment(args.seed), flush=True)
    with open(REFERENCE) as f:
        reference = json.load(f).get(wl.name, {}).get(str(args.seed))
    print("  check: " + (f"reference values for seed {args.seed}" if reference
                         else "invariants only (no reference for this seed)"))

    problems = []
    if args.trace:
        samples, _ = run_rounds(wl, args.seconds)
    else:
        from calibrate import HostProbe
        with HostProbe() as probe:
            samples, _ = run_rounds(wl, args.seconds, probe=probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_rounds = samples[-1].round + 1
    check_samples(wl, samples, reference)
    derived = round_counts(wl, samples)
    if any(d != derived[0] for d in derived):
        problems.append(f"record-derived counts differ between rounds: {derived}")

    if args.trace:
        metrics, traced = traced_phase(args, wl, samples, n_rounds, reference,
                                       derived[0], problems)
        all_samples = samples + traced
    else:
        all_samples = samples
        if wl.name == "sweep49":
            msg = check_workers(wl, samples[:len(wl.items)])
            if msg:
                problems.append(msg)
            else:
                print("  check: records.csv identical for workers=1, workers=2 "
                      "and the timed records")
        metrics = end_to_end(args, samples, n_rounds, wl, peak_rss_mb,
                             first_setup)

    failed = [s for s in all_samples if s.error]
    for s in failed[:5]:
        print(f"  FAILED round {s.round} record {s.index}: {s.error}")
    for msg in problems:
        print(f"  CHECK FAILED: {msg}")
    print(f"  {'failed_frac':<28} {len(failed) / len(all_samples):>12.6g} "
          f"{'ratio':<6} ({len(failed)}/{len(all_samples)} records)")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(all_samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def per_record_mean(samples, values) -> list:
    """Mean over the rounds of each record of the round, in round order."""
    by_index = {}
    for s, v in zip(samples, values):
        by_index.setdefault(s.index, []).append(v)
    return [statistics.fmean(v) for _, v in sorted(by_index.items())]


def end_to_end(args, samples, n_rounds, wl, peak_rss_mb, first_setup) -> dict:
    probes = setup_seconds(args)
    setup_s = statistics.median(probes)
    cpu = [s.scaled for s in samples]
    raw = [s.cpu for s in samples]
    wall = [s.wall for s in samples]
    networks = wl.networks_per_record * sum(1 for s in samples if not s.error)
    rate = networks / sum(cpu)
    p50 = statistics.median(per_record_mean(samples, cpu))
    tail_s, tail_pct = tail(cpu)
    n = len(samples)
    line("setup_s", setup_s, "s", f"(median of {len(probes)} fresh processes; "
         f"in-process first set-up {first_setup:.4g} s)")
    line("networks_per_cpu_s", rate, "1/s",
         f"({networks} networks in {sum(cpu):.4g} scaled CPU-s, {n_rounds} "
         f"rounds; raw CPU {networks / sum(raw):.4g}, wall "
         f"{networks / sum(wall):.4g} 1/s)")
    line("record_p50_s", p50, "s",
         f"(median of {len(wl.items)} records, each the mean of its {n_rounds}"
         f" repeats; raw CPU {statistics.median(per_record_mean(samples, raw)):.4g},"
         f" wall {statistics.median(per_record_mean(samples, wall)):.4g} s)")
    if tail_s is None:
        line("record_tail_s", None, "s", f"(needs > {TAIL_ABOVE} records, had {n})")
    else:
        line("record_tail_s", tail_s, "s",
             f"(p{tail_pct:.1f}, n={n}, {TAIL_ABOVE} above; raw CPU "
             f"{tail(raw)[0]:.4g}, wall {tail(wall)[0]:.4g} s)")
    line("peak_rss_mb", peak_rss_mb, "MB", "(ru_maxrss after the timed rounds)")
    calib = sum(s.calib_cpu for s in samples)
    line("host_slowdown", sum(raw) / sum(cpu), "ratio",
         f"(raw over scaled CPU; the probe took {calib / (calib + sum(raw)):.1%}"
         " of record CPU)")
    return {"networks_per_cpu_s": (rate, "1/s"), "record_p50_s": (p50, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"), "setup_s": (setup_s, "s")}


def traced_phase(args, wl, samples, n_rounds, reference, derived, problems) -> tuple:
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        traced, counts = run_rounds(wl, 0.0, n_rounds=n_rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    check_samples(wl, traced, reference)

    for rnd, c in enumerate(counts):
        for key in EXACT_COUNTS:
            if c[key] != counts[0][key]:
                problems.append(f"{key} differs between traced rounds 0 and {rnd}")
        for key, value in (derived or {}).items():
            if c[key] != value:
                problems.append(f"traced {key}={c[key]} in round {rnd}, "
                                f"records imply {value}")

    untraced_cpu = sum(s.cpu for s in samples)
    traced_cpu = sum(s.cpu for s in traced)
    metrics = layer_metrics(wl, tracer, counts, n_rounds)
    metrics["trace.overhead_frac"] = ((traced_cpu - untraced_cpu) / untraced_cpu,
                                      "ratio")
    print(f"  per-layer split, per round of {len(wl.items)} records "
          f"(CPU seconds; {n_rounds} traced rounds):")
    for name, (value, unit) in metrics.items():
        line(name, value, unit)
    parts = (metrics["device.conductance_s"][0] + metrics["device.advance_s"][0]
             + metrics["device.hysteresis_s"][0] + metrics["solver.solve_s"][0]
             + metrics["solver.step_self_s"][0])
    print(f"  device + solve + step_self = {parts:.6g} s; "
          f"solver.simulate_s = {metrics['solver.simulate_s'][0]:.6g} s")
    spans = WORK_ROOT / f"trace-{wl.name}-seed{args.seed}.npz"
    tracer.save(str(spans))
    print(f"  spans: {len(tracer.start)} written to {spans.relative_to(ROOT)}")
    return {k: metrics[k] for k in LAYER_JSON}, traced


if __name__ == "__main__":
    sys.exit(main())
