import concurrent.futures
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rsnsim import harness, solver
from rsnsim.analysis import check_readout, differential_readout, energy, entropy
from rsnsim.device import _PARAM_KEYS, ParamRanges, default_ranges
from rsnsim.errors import (ConfigError, NumericalError, ParameterError,
                           RsnError)
from rsnsim.harness import (HierarchyConfig, SweepConfig, aggregate,
                            derive_seed, run_hierarchy,
                            run_single, run_sweep)
from rsnsim.solver import (TraceBatch, assemble, check_settings, simulate,
                           sine_waveform)
from rsnsim.topology import Grid, edge_total


def small_config(**over):
    base = dict(alphas=(1.0, 10.0), betas=(2.0,), xis=(2,), amplitudes=(2.0,),
                trials=2, base_seed=99, duration=0.05)
    base.update(over)
    return SweepConfig(**base)


def frozen_ranges():
    bounds = default_ranges().bounds.copy()
    bounds[:, _PARAM_KEYS.index("lambda")] = 0.0
    return ParamRanges(bounds)


class TestSeeds:
    def test_derivation_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)

    def test_rejects_negative_base_seed(self):
        with pytest.raises(ConfigError):
            small_config(base_seed=-1)


class TestRunSingle:
    def test_zero_amplitude_degenerate(self):
        rec = run_single(small_config(), 2.0, 2.0, 2, 0.0, seed=11)
        assert rec.entropy_bits == 0.0
        assert rec.energy_joules == 0.0
        assert rec.switching_events == 0

    def test_frozen_devices_low_entropy(self):
        cfg = small_config(ranges=frozen_ranges(), duration=0.2)
        rec = run_single(cfg, 2.0, 2.0, 4, 2.0, seed=12)
        assert rec.switching_events == 0
        assert rec.entropy_bits < 0.5

    def test_same_seed_identical_record(self):
        cfg = small_config()
        a = run_single(cfg, 1.0, 2.0, 2, 2.0, seed=13)
        b = run_single(cfg, 1.0, 2.0, 2, 2.0, seed=13)
        assert a == b

    def test_topology_carries_the_record_seed(self):
        cfg = small_config(alphas=(1.0,), trials=1)
        (rec,) = run_sweep(cfg)
        topo = harness._make_topology(cfg, rec.alpha, rec.beta, rec.xi, rec.seed)
        assert topo.seed == rec.seed
        assert topo.edge_count == rec.edge_count

    def test_edge_count_recorded(self):
        cfg = small_config(interface_dim=4, subdivision=1)
        rec = run_single(cfg, 1.0, 2.0, 3, 2.0, seed=14)
        assert rec.edge_count >= 49 * 3

    def test_large_record_at_8v_succeeds(self):
        # an 840-row system, so CG solves every step: at step 50 (8 V) its
        # residual is 1.91e-07 against the gate's bound of 4.76e-06, and
        # at most 4.9% of the bound on any step, so the record must succeed
        cfg = SweepConfig(alphas=(1,), betas=(1,), xis=(4,), amplitudes=(8,),
                          interface_dim=8, subdivision=3, duration=0.1)
        rec = run_single(cfg, 1.0, 1.0, 4, 8.0, seed=3746326865)
        assert (rec.switching_events, rec.edge_count) == (1734, 3364)
        assert rec.entropy_bits == pytest.approx(0.29947596092870693, rel=1e-9)
        assert rec.energy_joules == pytest.approx(0.33476120637068885, rel=1e-9)


class TestRunHierarchy:
    def test_k1_equals_manual_pipeline(self):
        cfg = small_config()
        hier = HierarchyConfig(k=1, readout_a=2, readout_b=9)
        rec = run_hierarchy(cfg, hier, 1.0, 2.0, 2, 2.0, seed=20)

        topo = harness._make_topology(cfg, 1.0, 2.0, 2, derive_seed(20, 0))
        trace = simulate(topo, sine_waveform(2.0, cfg.frequency), cfg.dt,
                         cfg.duration)
        sig = differential_readout(trace, 2, 9)
        ent = entropy(sig[:, None], center=cfg.center)
        assert rec.entropy_bits == ent.entropy_bits
        assert rec.energy_joules == energy(trace).energy_joules
        assert rec.switching_events == trace.switching_events

    def test_energy_additivity_exact(self):
        cfg = small_config()
        hier = HierarchyConfig(k=4)
        rec = run_hierarchy(cfg, hier, 1.0, 2.0, 2, 2.0, seed=21)
        total = 0.0
        for k in range(4):
            topo = harness._make_topology(cfg, 1.0, 2.0, 2, derive_seed(21, k))
            trace = simulate(topo, sine_waveform(2.0, cfg.frequency), cfg.dt,
                             cfg.duration)
            total += energy(trace).energy_joules
        assert rec.energy_joules == total

    def test_cell_keeps_two_columns_per_member(self):
        # A K=16 cell on 49 nodes over 1,000 steps peaks at 1.90 MB of
        # traced allocations; recording all 16 posts per member it peaked
        # at 3.69 MB (tracemalloc, after a short cell has loaded what the
        # first run imports).
        cfg = SweepConfig(alphas=(1.0,), betas=(5.0,), xis=(4,),
                          amplitudes=(2.0,), trials=1)
        run_hierarchy(dataclasses.replace(cfg, duration=0.01),
                      HierarchyConfig(k=2), 1.0, 5.0, 4, 2.0, seed=0)
        tracemalloc.start()
        try:
            run_hierarchy(cfg, HierarchyConfig(k=16), 1.0, 5.0, 4, 2.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_600_000

    def test_member_failure_names_seed(self, monkeypatch):
        # the members step in lockstep, so the third solve is member 2's
        cfg = small_config()
        real = solver.solve_step
        calls = {"n": 0}

        def flaky(*a, **kw):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("member blew up")
            return real(*a, **kw)

        monkeypatch.setattr(solver, "solve_step", flaky)
        with pytest.raises(Exception) as exc:
            run_hierarchy(cfg, HierarchyConfig(k=4), 1.0, 2.0, 2, 2.0, seed=30)
        assert f"seed {derive_seed(30, 2)}" in str(exc.value)
        assert "member 2 " in str(exc.value) and "member blew up" in str(exc.value)

    def test_lowest_failing_member_is_named(self, monkeypatch):
        # Member 3 fails at step 2, before member 1 fails at step 5: the
        # cell names member 1, with its own message and step, from one
        # lockstep call.
        real_solve, real_simulate = solver.solve_step, harness.simulate
        members, fail_at, entered = {}, {1: 5, 3: 2}, []

        def flaky(sys, step=None):
            m = members.setdefault(id(sys), len(members))  # step 0 is in order
            if fail_at.get(m) == step:
                raise NumericalError(f"member {m} failed", step=step)
            return real_solve(sys, step=step)

        def once(topos, *a, **kw):
            entered.append(len(topos))
            return real_simulate(topos, *a, **kw)

        monkeypatch.setattr(solver, "solve_step", flaky)
        monkeypatch.setattr(harness, "simulate", once)
        with pytest.raises(RsnError) as exc:
            run_hierarchy(small_config(), HierarchyConfig(k=5), 1.0, 2.0, 2,
                          2.0, seed=31)
        assert str(exc.value) == (f"hierarchy member 1 (seed {derive_seed(31, 1)}) "
                                  f"failed: member 1 failed (step 5)")
        assert entered == [5]

    def test_generation_failure_after_good_members(self, monkeypatch):
        real = harness._make_topology
        bad_seed = derive_seed(32, 2)

        def make(cfg, alpha, beta, xi, seed):
            if seed == bad_seed:
                raise ParameterError("no network")
            return real(cfg, alpha, beta, xi, seed)

        monkeypatch.setattr(harness, "_make_topology", make)
        with pytest.raises(RsnError) as exc:
            run_hierarchy(small_config(), HierarchyConfig(k=4), 1.0, 2.0, 2,
                          2.0, seed=32)
        assert str(exc.value) == (f"hierarchy member 2 (seed {bad_seed}) "
                                  f"failed: no network")

    def test_failing_cell_record(self, monkeypatch):
        # Trial 1's member 12 at step 52 has residual 8.373e-09, above
        # 1e-9 * max(1, |v_in|), but its normwise backward error is
        # 0.033 * dim * eps, so both records succeed.  Every member is
        # stepped once: 16 members x 60 steps x 2 trials.
        real, solves = solver.solve_step, []

        def count(*a, **kw):
            solves.append(1)
            return real(*a, **kw)

        monkeypatch.setattr(solver, "solve_step", count)
        cfg = SweepConfig(alphas=(1.0,), betas=(1.0,), xis=(8,),
                          amplitudes=(8.0,), trials=2, base_seed=0,
                          duration=0.06)
        first, second = run_sweep(cfg, hierarchy=HierarchyConfig(k=16))
        assert len(solves) == 1920
        assert first.error == second.error == ""
        assert (first.seed, first.switching_events, first.edge_count) == \
            (4088532484, 3179, 6272)
        assert first.entropy_bits == pytest.approx(1.0621837566954513, rel=1e-9)
        assert first.energy_joules == pytest.approx(639684.4466302865, rel=1e-9)
        assert (second.seed, second.switching_events, second.edge_count) == \
            (3581274545, 2980, 6272)
        assert second.entropy_bits == pytest.approx(1.286454656712533, rel=1e-9)
        assert second.energy_joules == pytest.approx(977160.0920027313, rel=1e-9)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            HierarchyConfig(k=0)
        for bad in (dict(k=2.5), dict(readout_a=True), dict(readout_b=9.5)):
            with pytest.raises(ConfigError):
                HierarchyConfig(**bad)
        # the readout labels are checked against the grid by the runs
        same = HierarchyConfig(readout_a=3, readout_b=3)
        with pytest.raises(ConfigError, match="readout nodes must differ"):
            run_sweep(small_config(), hierarchy=same)
        with pytest.raises(ParameterError, match="readout nodes must differ"):
            run_hierarchy(small_config(), same, 1.0, 2.0, 2, 2.0, seed=1)

    def test_setting_error_names_no_member(self):
        # raised for every member at once, so recorded as a single record's;
        # 1e15 steps: 7.1 PiB of trace, beyond the 128 TiB a process can map
        cfg = small_config(alphas=(1.0,), trials=1, dt=1e-12, duration=1e3)
        [record] = run_sweep(cfg, hierarchy=HierarchyConfig(k=2))
        assert record.error == ("ParameterError: 1000000000000000 steps do "
                                "not fit in memory")
        assert record.error == run_sweep(cfg)[0].error

    def test_readout_labels_checked_before_any_member(self, monkeypatch):
        calls = []
        make = harness._make_topology
        monkeypatch.setattr(harness, "_make_topology",
                            lambda *args: calls.append(args) or make(*args))
        for hier in (HierarchyConfig(readout_b=99), HierarchyConfig(readout_a=0)):
            with pytest.raises(ParameterError, match="readout label"):
                run_hierarchy(small_config(), hier, 1.0, 2.0, 2, 2.0, seed=1)
        assert calls == []


class TestLockstep:
    def test_members_bit_identical_to_solo_runs(self):
        # xi=1 members differ in system size (floating islands) and in
        # the number of edges added for connectivity
        cfg = small_config()
        topos = [harness._make_topology(cfg, 1.0, 2.0, 1, derive_seed(40, k))
                 for k in range(6)]
        dims = {assemble(t, 0.0).matrix.shape[0] for t in topos}
        assert len(dims) > 1 and len({t.n_augmented for t in topos}) > 1
        kw = dict(dt=1e-3, duration=0.3, decimation=3, decay_mode="plain")
        wave = sine_waveform(8.0)
        solo = [simulate(t, wave, **kw) for t in topos]
        batch = simulate(topos, wave, **kw)
        reverse = simulate(topos[::-1], wave, **kw)[::-1]
        assert isinstance(batch, TraceBatch) and len(batch) == len(topos)
        for s, b, r in zip(solo, batch, reverse):
            for name in ("times", "interface_voltages", "source_current",
                         "applied_voltage"):
                assert np.array_equal(getattr(b, name), getattr(s, name)), name
                assert np.array_equal(getattr(r, name), getattr(s, name)), name
            assert b.dt == s.dt == r.dt
            assert b.switching_events == s.switching_events == r.switching_events
        assert batch.switching_events == sum(s.switching_events for s in solo) > 0


class TestRunSweep:
    def test_cartesian_record_count(self):
        cfg = SweepConfig(alphas=(1, 2, 3), betas=(1, 2, 3), xis=(2, 4),
                          amplitudes=(1, 2), trials=5, base_seed=1,
                          duration=0.002, dt=1e-3)
        records = run_sweep(cfg)
        assert len(records) == 3 * 3 * 2 * 2 * 5
        # canonical order and per-cell seeds
        assert records[0].alpha == 1 and records[0].trial == 0
        assert records[1].trial == 1
        seeds = [r.seed for r in records]
        assert len(set(seeds)) == len(seeds)

    def test_worker_count_does_not_change_results(self):
        cfg = small_config()
        a = run_sweep(cfg, workers=1)
        b = run_sweep(cfg, workers=2)
        assert a == b

    def test_one_worker_loads_no_process_pool(self):
        # multiprocessing is imported only when a sweep starts workers
        code = ("import sys, rsnsim.cli, rsnsim.harness as h; "
                "h.run_sweep(h.SweepConfig(alphas=(1,), betas=(1,), xis=(2,), "
                "amplitudes=(1,), trials=1, duration=0.002)); "
                "print('multiprocessing' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert out.stdout.strip() == "False"

    def test_failed_cells_recorded_not_raised(self, monkeypatch):
        cfg = small_config()

        real = harness.run_single

        def flaky(cfg, alpha, beta, xi, v, seed, trial=0):
            if alpha == 10.0 and trial == 1:
                raise RuntimeError("injected failure")
            return real(cfg, alpha, beta, xi, v, seed, trial)

        monkeypatch.setattr(harness, "run_single", flaky)
        records = run_sweep(cfg, workers=1)
        failed = [r for r in records if r.error]
        assert len(failed) == 1
        assert "injected failure" in failed[0].error
        assert np.isnan(failed[0].entropy_bits)
        assert len(records) == 4  # 2 alphas x 2 trials

    def test_error_text_is_csv_safe(self, monkeypatch):
        cfg = small_config()

        def boom(*a, **kw):
            raise RuntimeError("bad, value\nwith newline")

        monkeypatch.setattr(harness, "run_single", boom)
        records = run_sweep(cfg, workers=1)
        assert all("," not in r.error and "\n" not in r.error for r in records)

    def test_pool_has_no_more_workers_than_records(self, monkeypatch):
        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = small_config(alphas=(1.0,))
        assert run_sweep(cfg, workers=8) == run_sweep(cfg)
        assert pools == [2]

    def test_aggregate_matches_hand_average(self):
        cfg = small_config(trials=3)
        records = run_sweep(cfg)
        rows = aggregate(records)
        assert len(rows) == 2  # two alphas, one cell each
        for row in rows:
            cell = [r for r in records if (r.alpha, r.beta, r.xi, r.v) ==
                    (row["alpha"], row["beta"], row["xi"], row["v"])]
            hs = [r.entropy_bits for r in cell]
            assert row["mean_entropy"] == pytest.approx(np.mean(hs), rel=1e-12)
            assert row["std_entropy"] == pytest.approx(np.std(hs, ddof=1), rel=1e-12)
            assert row["n_trials"] == 3
            assert row["n_failed"] == 0

    def test_aggregate_skips_failures(self):
        recs = [harness.SweepRecord(1, 1, 2, 1.0, 0, 5, 0.5, 1.0, 3, 10),
                harness.SweepRecord(1, 1, 2, 1.0, 1, 6, float("nan"),
                                    float("nan"), 0, 0, error="boom")]
        row = aggregate(recs)[0]
        assert row["mean_entropy"] == 0.5
        assert row["n_failed"] == 1

    def test_mean_energy_strictly_increasing_in_amplitude(self):
        # fixed long-wire morphology, three seeds per amplitude
        cfg = SweepConfig(duration=0.4)
        means = []
        for v in (1.0, 2.0, 4.0, 8.0):
            es = [run_single(cfg, 10, 1, 4, v,
                             seed=derive_seed(555, int(v * 10), i)).energy_joules
                  for i in range(3)]
            means.append(np.mean(es))
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(alphas=())
        with pytest.raises(ConfigError):
            small_config(trials=0)
        with pytest.raises(ConfigError):
            small_config(decay_mode="bogus")
        nan, inf = float("nan"), float("inf")
        for bad in (dict(dt=nan), dict(duration=inf), dict(duration=nan),
                    dict(frequency=nan), dict(frequency=inf), dict(alphas=(1.0, nan)),
                    dict(betas=(inf,)), dict(amplitudes=(nan,)),
                    # values that would fail every record
                    dict(alphas=(0,)), dict(betas=(-1,)), dict(xis=(0,)),
                    dict(xis=(2.5,)), dict(interface_dim=1),
                    dict(subdivision=-1), dict(edge_count=0),
                    # step counts that overflow or cannot be allocated
                    dict(dt=1e-300, duration=1e300), dict(dt=1e-12, duration=1e6),
                    # one step, too few for the entropy of any record
                    dict(dt=1e-3, duration=1.4e-3)):
            with pytest.raises(ConfigError):
                small_config(**bad)
        with pytest.raises(ConfigError, match="readout label 99"):
            run_sweep(small_config(), hierarchy=HierarchyConfig(readout_b=99))
        for workers in (0, -3):
            with pytest.raises(ConfigError, match="workers must be >= 1"):
                run_sweep(small_config(), workers=workers)
        for workers in (True, 2.5):
            with pytest.raises(ConfigError, match="'workers' must be an integer"):
                run_sweep(small_config(), workers=workers)

    # (sweep key, the sweep's call, the call of the rule's owner)
    OWNED_RULES = [
        ("dt", lambda: small_config(dt=0.0),
         lambda: check_settings(0.0, 0.05, 1, "state_dependent")),
        ("dt", lambda: small_config(dt=math.nan),
         lambda: check_settings(math.nan, 0.05, 1, "state_dependent")),
        ("duration", lambda: small_config(duration=1e-4),
         lambda: check_settings(1e-3, 1e-4, 1, "state_dependent")),
        ("duration / dt", lambda: small_config(dt=1e-300, duration=1e300),
         lambda: check_settings(1e-300, 1e300, 1, "state_dependent")),
        ("decay_mode", lambda: small_config(decay_mode="bogus"),
         lambda: check_settings(1e-3, 0.05, 1, "bogus")),
        ("xis", lambda: small_config(xis=(2, 0)),
         lambda: edge_total(Grid(4, 1), 0, None)),
        ("edge_count", lambda: small_config(edge_count=0),
         lambda: edge_total(Grid(4, 1), 2, 0)),
        ("readout_b", lambda: run_sweep(small_config(),
                                        hierarchy=HierarchyConfig(readout_b=99)),
         lambda: check_readout(16, 2, 99)),
        ("readout_a", lambda: run_sweep(small_config(), hierarchy=HierarchyConfig(
            readout_a=9, readout_b=9)), lambda: check_readout(16, 9, 9)),
    ]

    @pytest.mark.parametrize("key,sweep,owner", OWNED_RULES,
                             ids=[row[0] for row in OWNED_RULES])
    def test_rule_text_is_its_owners(self, key, sweep, owner):
        with pytest.raises(ParameterError) as owned:
            owner()
        with pytest.raises(ConfigError) as swept:
            sweep()
        assert str(owned.value) in str(swept.value) and key in str(swept.value)

    def test_trace_too_large_for_memory_is_recorded(self):
        # 1e15 steps: 7.1 PiB of trace, beyond the 128 TiB a process can map
        records = run_sweep(small_config(alphas=(1.0,), trials=1, dt=1e-12,
                                         duration=1e3))
        assert len(records) == 1
        assert "steps do not fit in memory" in records[0].error
