import dataclasses
import math

import numpy as np
import pytest

from rsnsim.analysis import energy
from rsnsim.device import _PARAM_KEYS, default_ranges
from rsnsim.errors import DataError, NumericalError, ParameterError
from rsnsim import device, solver
from rsnsim.solver import (SimulationTrace, TraceBatch, assemble, simulate,
                           sine_waveform, solve_step)
from rsnsim.topology import BetaShape, Grid, _components, generate_network

from tests.conftest import linear_topology, stamped_edges
from tests.oracles import lagged_run, solve_resistive_network


class TestAssembleSolve:
    def test_ohms_law_single_edge(self):
        t = linear_topology([(0, 15, 0.5)], input_node=0, ground_node=15)
        sys = assemble(t, 2.0)
        v, i_src = solve_step(sys)
        assert v[0] == pytest.approx(2.0, abs=1e-12)
        assert v[15] == 0.0
        assert i_src == pytest.approx(0.5 * 2.0, rel=1e-12)

    def test_voltage_divider(self):
        t = linear_topology([(0, 5, 0.3), (5, 15, 0.3)], input_node=0,
                            ground_node=15)
        v, i_src = solve_step(assemble(t, 4.0))
        assert v[5] == pytest.approx(2.0, abs=1e-12)
        assert i_src == pytest.approx(0.15 * 4.0, rel=1e-12)

    def test_parallel_edges_sum(self):
        t = linear_topology([(0, 15, 0.2), (0, 15, 0.7)], input_node=0,
                            ground_node=15)
        v, i_src = solve_step(assemble(t, 3.0))
        assert i_src == pytest.approx(0.9 * 3.0, rel=1e-12)

    def test_zero_source_zero_solution(self):
        t = linear_topology([(0, 7, 1.0), (7, 15, 1.0)])
        v, i_src = solve_step(assemble(t, 0.0))
        assert np.all(v == 0.0)
        assert i_src == 0.0

    def test_conductance_block_symmetric(self):
        t = linear_topology([(0, 3, 1.0), (3, 9, 0.5), (9, 15, 2.0), (0, 9, 0.1)])
        sys = assemble(t, 1.0)
        g_block = sys.matrix[:-1, :-1]
        assert np.array_equal(g_block, g_block.T)

    def test_floating_island_pinned_at_zero(self):
        # nodes 3 and 7 form an island no current can reach
        t = linear_topology([(0, 15, 1.0), (3, 7, 1.0)])
        v, i_src = solve_step(assemble(t, 5.0))
        assert v[3] == 0.0 and v[7] == 0.0
        assert i_src == pytest.approx(5.0, rel=1e-12)

    def test_inaccurate_solve_rejected(self, monkeypatch):
        # a solution off by 1e-12 relative has a backward error far above
        # dim * eps; a NaN solution fails every bound
        t = linear_topology([(0, 5, 0.3), (5, 15, 0.3)], input_node=0,
                            ground_node=15)
        real = np.linalg.solve
        for scale in (1.0 + 1e-12, math.nan):
            monkeypatch.setattr(np.linalg, "solve", lambda a, b: real(a, b) * scale)
            with pytest.raises(NumericalError, match="exceeds bound") as exc:
                solve_step(assemble(t, 4.0), step=3)
            assert exc.value.step == 3

    def test_no_path_rejected(self):
        t = linear_topology([(1, 2, 1.0)])
        with pytest.raises(ParameterError):
            assemble(t, 1.0)

    def test_kcl_residual_within_contract(self, rng):
        t = _random_linear_topology(rng, n_edges=30)
        sys = assemble(t, 3.0)
        x = np.linalg.solve(sys.matrix, sys.rhs)
        res = np.abs(sys.matrix @ x - sys.rhs).max()
        assert res < 1e-9 * max(1.0, np.abs(sys.rhs).max())


def _random_linear_topology(rng, n_edges=30, interface_dim=3, subdivision=0):
    """Random fixed-conductance multigraph over a 9-node lattice."""
    grid = Grid(interface_dim, subdivision)
    n = grid.n_nodes
    edges = []
    for _ in range(n_edges):
        a = int(rng.integers(n))
        b = int(rng.integers(n - 1))
        b = b if b < a else b + 1
        edges.append((a, b, float(rng.uniform(0.1, 2.0))))
    # spanning chain so everything is one component
    edges.extend((k, k + 1, float(rng.uniform(0.1, 2.0))) for k in range(n - 1))
    return linear_topology(edges, input_node=0, ground_node=n - 1,
                           interface_dim=interface_dim, subdivision=subdivision)


class TestOracleEquivalence:
    @pytest.mark.parametrize("trial", range(5))
    def test_random_networks_match_dense_oracle(self, trial):
        rng = np.random.default_rng(500 + trial)
        t = _random_linear_topology(rng)
        oracle_edges = stamped_edges(t)
        v_in = float(rng.uniform(0.5, 8.0))

        sys = assemble(t, v_in)
        v, i_src = solve_step(sys)
        v_ref, i_ref = solve_resistive_network(t.grid.n_nodes, oracle_edges,
                                               t.input_node, t.ground_node, v_in)
        assert np.abs(v - v_ref).max() < 1e-9
        assert abs(i_src - i_ref) < 1e-9 * max(1.0, abs(i_ref))

    def test_simulation_steps_match_oracle(self):
        rng = np.random.default_rng(600)
        t = _random_linear_topology(rng, n_edges=20)
        oracle_edges = stamped_edges(t)
        wave = sine_waveform(2.0)
        trace = simulate(t, wave, dt=1e-3, duration=0.05)
        iface = t.grid.interface_indices
        for k in range(trace.n_steps):
            v_ref, i_ref = solve_resistive_network(
                t.grid.n_nodes, oracle_edges, t.input_node, t.ground_node,
                wave(k * 1e-3))
            assert np.abs(trace.interface_voltages[k] - v_ref[iface]).max() < 1e-9
            assert abs(trace.source_current[k] - i_ref) < 1e-9


def _with_island(t):
    """``t`` plus an ON device joining two nodes outside the ground
    component: its bias is exactly 0 V at every step, so the conductance
    kernel's V -> 0 guard runs at every step."""
    labels = _components(t.grid.n_nodes, t.a, t.b)
    u, v = np.flatnonzero(labels != labels[t.ground_node])[:2]
    return dataclasses.replace(
        t, a=np.append(t.a, u), b=np.append(t.b, v),
        params=np.vstack([t.params, t.params[-1:]]),
        w_prime=np.append(t.w_prime, 0.5), w=np.append(t.w, 1))


class TestLaggedReference:
    @pytest.mark.parametrize("decimation", [1, 3])
    @pytest.mark.parametrize("amplitude", [1.0, 8.0])
    @pytest.mark.parametrize("n_members", [1, 3])
    def test_bit_equal_to_reference_loop(self, n_members, amplitude, decimation):
        g = Grid(4, 1)
        # seeds whose networks leave at least two nodes off the ground component
        members = [_with_island(generate_network(g, BetaShape(1, 5), 2,
                                                 default_ranges(), seed))
                   for seed in (700, 706, 709)[:n_members]]
        dt, n_steps = 1e-3, 200
        wave = sine_waveform(amplitude)
        got = simulate(members if n_members > 1 else members[0], wave, dt=dt,
                       duration=n_steps * dt, decimation=decimation)
        traces = got if n_members > 1 else [got]
        rows = slice(None, None, decimation)
        for t, trace in zip(members, traces):
            v_in, i_src, voltages, flips = lagged_run(t, wave, dt, n_steps)
            want = {"times": np.arange(n_steps)[rows] * dt,
                    "applied_voltage": v_in[rows], "source_current": i_src[rows],
                    "interface_voltages": voltages[rows][:, g.interface_indices]}
            for name, value in want.items():
                assert getattr(trace, name).tobytes() == value.tobytes(), name
            assert trace.switching_events == flips
            if decimation == 1:
                assert trace.every_step is None
            else:
                step_dt, v_all, i_all = trace.every_step
                assert (step_dt, v_all.tobytes(), i_all.tobytes()) == \
                    (dt, v_in.tobytes(), i_src.tobytes())
        if amplitude == 8.0:
            assert got.switching_events > 0


class TestPowerBalance:
    @pytest.mark.parametrize("amplitude", [1.0, 8.0])
    def test_source_power_equals_dissipation(self, monkeypatch, amplitude):
        # Tellegen's theorem: at every step the source delivers the power
        # the devices dissipate, each stamped with g + g_floor
        t = generate_network(Grid(4, 1), BetaShape(5, 1), 4,
                             default_ranges(), 1200)
        floors = t.params[:, _PARAM_KEYS.index("g_floor")]
        steps = []
        real_g, real_solve = device.conductance_batch, solver.solve_step

        def conductance(*args, **kwargs):
            steps.append([real_g(*args, **kwargs)])
            return steps[-1][0]

        def solve(sys, step=None):
            v, i_src = real_solve(sys, step=step)
            steps[-1].extend((float(sys.rhs[-1]), v, i_src))
            return v, i_src

        monkeypatch.setattr(device, "conductance_batch", conductance)
        monkeypatch.setattr(solver, "solve_step", solve)
        simulate(t, sine_waveform(amplitude), dt=1e-3, duration=1.0)
        assert len(steps) == 1000
        for g_e, v_in, v, i_src in steps:
            delivered = v_in * i_src
            dissipated = np.sum((g_e + floors) * (v[t.a] - v[t.b]) ** 2)
            assert abs(delivered - dissipated) <= \
                1e-10 * max(abs(delivered), dissipated)


GOOD = linear_topology([(0, 5, 1.0), (5, 10, 1.0), (10, 15, 1.0)])


def _with_param(key, value):
    params = GOOD.params.copy()
    params[1, _PARAM_KEYS.index(key)] = value
    return params


# one edit per rule of NetworkTopology.check besides the node range, and
# the error it must raise
CHECK_CASES = {
    "params row short": ({"params": GOOD.params[:-1]}, "^params must have shape"),
    "one params row": ({"params": GOOD.params[:1]}, "^params must have shape"),
    "w_prime entry short": ({"w_prime": np.zeros(2)}, "^w_prime must have shape"),
    "w=2": ({"w": np.array([0, 2, 0])}, "^w must be 0 or 1"),
    "w_prime=1.5": ({"w_prime": np.array([0.0, 1.5, 0.0])}, "^w_prime must lie"),
    "w_prime=5": ({"w_prime": np.array([0.0, 5.0, 0.0])}, "^w_prime must lie"),
    "w_prime=nan": ({"w_prime": np.array([0.0, np.nan, 0.0])}, "^w_prime must lie"),
    "epsilon=-1": ({"params": _with_param("epsilon", -1.0)}, "^epsilon must be"),
    "tau=inf": ({"params": _with_param("tau", np.inf)}, "^tau must be"),
    "self-loop": ({"b": np.array([5, 5, 15])}, "self-loop"),
    "input=ground": ({"ground_node": 0}, "must differ"),
}


class TestSimulate:
    def test_null_drive(self):
        t = linear_topology([(0, 6, 1.0), (6, 15, 1.0)])
        trace = simulate(t, lambda t: 0.0, dt=1e-3, duration=0.02)
        assert np.all(trace.interface_voltages == 0.0)
        assert np.all(trace.source_current == 0.0)
        assert trace.switching_events == 0

    def test_frozen_network_gives_scaled_sines(self):
        t = linear_topology([(0, 5, 1.0), (5, 15, 1.0), (0, 15, 0.25)])
        trace = simulate(t, sine_waveform(2.0), dt=1e-3, duration=0.2)
        mid = trace.interface_voltages[:, 5]
        assert np.abs(mid - 0.5 * trace.applied_voltage).max() < 1e-12

    def test_ground_column_zero_input_column_waveform(self):
        t = generate_network(Grid(4, 1), BetaShape(2, 2), 4,
                             default_ranges(), 20240811)
        trace = simulate(t, sine_waveform(2.0), dt=1e-3, duration=0.1)
        assert np.all(trace.interface_voltages[:, -1] == 0.0)
        assert np.abs(trace.interface_voltages[:, 0] - trace.applied_voltage).max() < 1e-9

    def test_deterministic_reruns(self):
        t = generate_network(Grid(4, 1), BetaShape(5, 1), 4,
                             default_ranges(), 20240811)
        a = simulate(t, sine_waveform(4.0), dt=1e-3, duration=0.2)
        b = simulate(t, sine_waveform(4.0), dt=1e-3, duration=0.2)
        assert np.array_equal(a.interface_voltages, b.interface_voltages)
        assert np.array_equal(a.source_current, b.source_current)
        assert a.switching_events == b.switching_events
        # and the stored topology state was never mutated
        assert np.all(t.w_prime == 0.0) and np.all(t.w == 0)

    def test_passivity(self):
        t = generate_network(Grid(4, 1), BetaShape(3, 3), 4,
                             default_ranges(), 20240811)
        trace = simulate(t, sine_waveform(4.0), dt=1e-3, duration=0.3)
        power = trace.applied_voltage * trace.source_current
        assert power.min() >= -1e-12

    def test_switching_monotone_in_amplitude(self):
        t = generate_network(Grid(4, 1), BetaShape(10, 1), 4,
                             default_ranges(), 20240811)
        lo = simulate(t, sine_waveform(1.0), dt=1e-3, duration=0.5)
        hi = simulate(t, sine_waveform(8.0), dt=1e-3, duration=0.5)
        assert hi.switching_events >= lo.switching_events

    def test_decimation(self):
        t = linear_topology([(0, 15, 1.0)])
        trace = simulate(t, sine_waveform(1.0), dt=1e-3, duration=0.1,
                         decimation=5)
        assert trace.n_steps == 20
        assert trace.dt == pytest.approx(5e-3)

    def test_decimated_rows_and_energy(self):
        t = generate_network(Grid(4, 1), BetaShape(2, 2), 4,
                             default_ranges(), 20240811)
        full = simulate(t, sine_waveform(8.0), dt=1e-3, duration=0.1)
        assert full.every_step is None
        for d in (7, 5000):
            trace = simulate(t, sine_waveform(8.0), dt=1e-3, duration=0.1,
                             decimation=d)
            for name in ("times", "interface_voltages", "source_current",
                         "applied_voltage"):
                assert np.array_equal(getattr(trace, name),
                                      getattr(full, name)[::d]), name
            assert trace.switching_events == full.switching_events
            # the energy covers every step, not only the rows
            assert energy(trace) == energy(full)

    def test_argument_validation(self):
        t = linear_topology([(0, 15, 1.0)])
        with pytest.raises(ParameterError):
            simulate(t, lambda t: 1.0, dt=0.0, duration=1.0)
        with pytest.raises(ParameterError):
            simulate(t, lambda t: 1.0, dt=0.1, duration=0.01)
        with pytest.raises(ParameterError):
            simulate(t, lambda t: 1.0, dt=float("nan"), duration=1.0)
        with pytest.raises(ParameterError):
            simulate(t, lambda t: 1.0, dt=1e-3, duration=float("inf"))
        with pytest.raises(DataError):
            simulate(t, lambda s: float("inf"), dt=1e-3, duration=0.01)
        # decay_mode and decimation are checked before assembly, which
        # would reject this topology (no input->ground path)
        island = linear_topology([(1, 2, 1.0)])
        for mode in ("bogus", None, 3):
            with pytest.raises(ParameterError, match="decay_mode"):
                simulate(island, lambda t: 1.0, dt=1e-3, duration=0.01,
                         decay_mode=mode)
        for d in (2.5, "3", True, 0):
            with pytest.raises(ParameterError, match="decimation"):
                simulate(island, lambda t: 1.0, dt=1e-3, duration=0.01,
                         decimation=d)

    def test_sequence_gives_trace_batch(self):
        t = linear_topology([(0, 15, 1.0)])
        batch = simulate([t, t], sine_waveform(1.0), dt=1e-3, duration=0.01)
        assert isinstance(batch, TraceBatch) and len(batch) == 2
        assert isinstance(simulate(t, sine_waveform(1.0), dt=1e-3,
                                   duration=0.01), SimulationTrace)
        with pytest.raises(ParameterError):
            simulate([], sine_waveform(1.0), dt=1e-3, duration=0.01)

    def test_member_errors_carry_index(self, monkeypatch):
        good = linear_topology([(0, 15, 1.0)])
        with pytest.raises(ParameterError) as exc:
            simulate([good, linear_topology([(1, 2, 1.0)])], lambda t: 1.0,
                     dt=1e-3, duration=0.01)
        assert exc.value.member == 1
        with pytest.raises(ParameterError) as exc:
            simulate([good, good, linear_topology([(0, 3, 1.0)], ground_node=3,
                                                  interface_dim=3)],
                     lambda t: 1.0, dt=1e-3, duration=0.01)
        assert exc.value.member == 2 and "one grid" in str(exc.value)
        good = linear_topology([(0, 48, 1.0)], subdivision=1)
        for dim, s in ((3, 1), (3, 2)):  # 3x3/s2 has the 49 nodes of 4x4/s1
            n = Grid(dim, s).n_nodes
            other = linear_topology([(0, n - 1, 1.0)], interface_dim=dim,
                                    subdivision=s)
            with pytest.raises(ParameterError,
                               match="lockstep members must share one grid") as exc:
                simulate([good, other], lambda t: 1.0, dt=1e-3, duration=0.01)
            assert exc.value.member == 1

        real = solver.solve_step
        calls = {"n": 0}

        def flaky(sys, step=None):
            calls["n"] += 1
            if calls["n"] == 3 * 4 + 2:  # step 4, member 1
                raise NumericalError("boom", step=step)
            return real(sys, step=step)

        monkeypatch.setattr(solver, "solve_step", flaky)
        with pytest.raises(NumericalError) as exc:
            simulate([good] * 3, lambda t: 1.0, dt=1e-3, duration=0.01)
        assert (exc.value.member, exc.value.step) == (1, 4)

    def test_lowest_failing_member_raises(self, monkeypatch):
        # t3 fails at step 1 and drops out; t1 and t2 step on and would
        # both fail at step 3, where t1's failure ends the member loop;
        # t0 is solved at every one of the 10 steps
        good = linear_topology([(0, 15, 1.0)])
        real = solver.solve_step
        members, solved = {}, []
        fail_at = {1: 3, 2: 3, 3: 1}

        def flaky(sys, step=None):
            m = members.setdefault(id(sys), len(members))  # step 0 is in order
            if fail_at.get(m) == step:
                raise NumericalError(f"member {m} failed", step=step)
            solved.append((m, step))
            return real(sys, step=step)

        monkeypatch.setattr(solver, "solve_step", flaky)
        with pytest.raises(NumericalError) as exc:
            simulate([good] * 4, lambda t: 1.0, dt=1e-3, duration=0.01)
        assert (exc.value.member, exc.value.step) == (1, 3)
        assert str(exc.value) == "member 1 failed (step 3)"
        assert [k for m, k in solved if m == 0] == list(range(10))
        assert [k for m, k in solved if m in (1, 2)] == [0, 0, 1, 1, 2, 2]
        assert [k for m, k in solved if m == 3] == [0]

    def test_member_zero_failure_ends_the_run(self, monkeypatch):
        good = linear_topology([(0, 15, 1.0)])
        real = solver.solve_step
        steps, times = [], []

        def flaky(sys, step=None):
            steps.append(step)
            if step == 2:
                raise NumericalError("boom", step=step)
            return real(sys, step=step)

        monkeypatch.setattr(solver, "solve_step", flaky)
        with pytest.raises(NumericalError) as exc:
            simulate([good] * 2, lambda t: times.append(t) or 1.0, dt=1e-3,
                     duration=0.01)
        assert (exc.value.member, exc.value.step) == (0, 2)
        assert steps == [0, 0, 1, 1, 2] and len(times) == 3  # not 10 steps

    def check_rejected_before_step_0(self, fields, match):
        bad = dataclasses.replace(GOOD, **fields)
        calls = []

        def waveform(t):
            calls.append(t)
            return 1.0

        with pytest.raises(ParameterError, match=match):
            simulate(bad, waveform, dt=1e-3, duration=0.01)
        with pytest.raises(ParameterError, match=match) as exc:
            simulate([GOOD, bad], waveform, dt=1e-3, duration=0.01)
        assert exc.value.member == 1
        assert calls == []

    @pytest.mark.parametrize("field", ["a", "b", "input_node", "ground_node"])
    @pytest.mark.parametrize("node", [-1, 16, 5.0])
    def test_node_index_outside_grid_rejected(self, field, node):
        value = node if field.endswith("node") else \
            np.where(np.arange(3) == 1, node, getattr(GOOD, field))
        self.check_rejected_before_step_0({field: value}, f"^{field} holds")

    @pytest.mark.parametrize("fields,match", CHECK_CASES.values(),
                             ids=list(CHECK_CASES))
    def test_check_rules_rejected_before_step_0(self, fields, match):
        self.check_rejected_before_step_0(fields, match)

    def test_misaligned_pair_rejected(self):
        # the rows sum to the pair's edge count, so concatenated they align
        short = dataclasses.replace(GOOD, params=GOOD.params[:-1])
        long = dataclasses.replace(GOOD, params=np.vstack([GOOD.params,
                                                           GOOD.params[:1]]))
        with pytest.raises(ParameterError, match="^params must have shape") as exc:
            simulate([short, long], lambda t: 1.0, dt=1e-3, duration=0.01)
        assert exc.value.member == 0

    def test_numerical_error_carries_step_index(self):
        err = NumericalError("boom", step=17)
        assert "step 17" in str(err)
        assert err.step == 17


class TestTraceCsv:
    def test_roundtrip(self, tmp_path):
        t = linear_topology([(0, 5, 1.0), (5, 15, 0.5)])
        trace = simulate(t, sine_waveform(2.0), dt=1e-3, duration=0.05)
        path = tmp_path / "trace.csv"
        path.write_text(trace.to_csv())
        lines = path.read_text().splitlines()
        assert lines[0].startswith("t,v_in,i_src,node_1")
        assert len(lines) == trace.n_steps + 1
        back = SimulationTrace.read_csv(path)
        assert back.n_interface == 16
        assert np.abs(back.applied_voltage - trace.applied_voltage).max() < 1e-8
        assert np.abs(back.interface_voltages - trace.interface_voltages).max() < 1e-8


def genfromtxt_read(path):
    """Reference reader: the structured genfromtxt parse of a trace CSV."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.ndim == 0:
        data = data.reshape(1)
    nodes = [n for n in data.dtype.names if n.startswith("node_")]
    iface = np.column_stack([data[c] for c in nodes]) if nodes else \
        np.zeros((data.size, 0))
    return data["t"], data["v_in"], data["i_src"], iface


class TestReadCsv:
    def check_as_genfromtxt(self, path):
        back = SimulationTrace.read_csv(path)
        t, v_in, i_src, iface = genfromtxt_read(path)
        for got, want in ((back.times, t), (back.applied_voltage, v_in),
                          (back.source_current, i_src),
                          (back.interface_voltages, iface)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
        # entropy's sums depend on the memory layout as well as the values
        assert back.interface_voltages.flags.c_contiguous
        assert back.dt == (float(t[1] - t[0]) if t.size > 1 else 0.0)
        assert back.switching_events == 0
        return back

    def test_simulated_trace_bit_equal(self, tmp_path):
        t = generate_network(Grid(4, 1), BetaShape(2, 2), 4,
                             default_ranges(), 20240811)
        path = tmp_path / "trace.csv"
        path.write_text(simulate(t, sine_waveform(8.0), dt=1e-3,
                                 duration=0.3).to_csv())
        back = self.check_as_genfromtxt(path)
        assert back.n_steps == 300 and back.n_interface == 16

    def test_short_traces(self, tmp_path):
        path = tmp_path / "trace.csv"
        header = "t,v_in,i_src,node_1,node_2\n"
        path.write_text(header)
        back = self.check_as_genfromtxt(path)
        assert back.interface_voltages.shape == (0, 2)
        path.write_text(header + "0,0.5,-1e-3,0.25,0.125\n")
        back = self.check_as_genfromtxt(path)
        assert back.interface_voltages.tolist() == [[0.25, 0.125]]
        path.write_text("t,v_in,i_src\n0,1,2\n1e-3,3,4\n")
        assert self.check_as_genfromtxt(path).interface_voltages.shape == (2, 0)

    @pytest.mark.parametrize("body", [
        "0,1,2,3\n1,2,3\n",        # ragged
        "0,1,2,3\n1,2,3,4,5\n",    # ragged
        "0,1,2,3,4\n",             # more values than names
        "0,1,x,3\n",               # not a number
        "0,1,,3\n",                # missing value
    ])
    def test_malformed_raises_data_error(self, tmp_path, body):
        path = tmp_path / "trace.csv"
        path.write_text("t,v_in,i_src,node_1\n" + body)
        with pytest.raises(DataError):
            SimulationTrace.read_csv(path)

    def test_missing_columns_and_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,v,node_1\n0,1,2\n")
        with pytest.raises(DataError, match="lacks"):
            SimulationTrace.read_csv(path)
        with pytest.raises(OSError):
            SimulationTrace.read_csv(tmp_path / "nope.csv")


def loop_csv(trace):
    """Reference trace writer: one f-string per value."""
    cols = [f"node_{i + 1}" for i in range(trace.n_interface)]
    lines = [",".join(["t", "v_in", "i_src"] + cols)]
    for k in range(trace.n_steps):
        row = [trace.times[k], trace.applied_voltage[k], trace.source_current[k]]
        row.extend(trace.interface_voltages[k])
        lines.append(",".join(f"{v:.9g}" for v in row))
    return "\n".join(lines) + "\n"


class TestTraceCsvBytes:
    def test_simulated_traces(self):
        t = generate_network(Grid(4, 1), BetaShape(2, 2), 4,
                             default_ranges(), 20240811)
        for decimation in (1, 7):
            trace = simulate(t, sine_waveform(8.0), dt=1e-3, duration=0.2,
                             decimation=decimation)
            assert trace.to_csv() == loop_csv(trace)

    def test_edge_values(self):
        values = np.array([-0.0, 0.0, 1e-300, -1e300, 1e300, 5e-324,
                           0.1234567890123, -98765.43210987654, 1.0 / 3.0,
                           123456789012.0, 2.0 ** 0.5, np.pi * 1e-7])
        n = values.size
        trace = SimulationTrace(
            times=values, dt=1e-3,
            interface_voltages=np.column_stack([values[::-1], values * 3.0]),
            source_current=-values, applied_voltage=np.roll(values, 1),
            switching_events=0)
        text = trace.to_csv()
        assert text == loop_csv(trace)
        assert len(text.splitlines()) == n + 1
