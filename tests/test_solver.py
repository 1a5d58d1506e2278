import copy
import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rsnsim.analysis import energy, entropy
from rsnsim.device import _PARAM_KEYS, default_ranges
from rsnsim.errors import DataError, NumericalError, ParameterError
from rsnsim import device, solver, topology
from rsnsim.solver import (SimulationTrace, TraceBatch, assemble, simulate,
                           sine_waveform, solve_step)
from rsnsim.topology import BetaShape, Grid, _components, generate_network

from tests.conftest import linear_topology, stamped_edges
from tests.oracles import (exact_solve, lagged_run, newton_run,
                          solve_resistive_network)


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

    def test_generated_block_symmetric_to_rounding(self):
        # Entry (i, j) sums a pair's i->j devices before its j->i devices and
        # (j, i) the other way round, so they may differ in the last bit, as
        # they do in each of these four networks.
        eps = np.finfo(float).eps
        for seed in range(4):
            t = generate_network(Grid(4, 1), BetaShape(1, 5), 4,
                                 default_ranges(), seed)
            g_block = assemble(t, 1.0).matrix[:-1, :-1]
            assert np.all(np.abs(g_block - g_block.T)
                          <= 4 * eps * np.abs(g_block))

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
            # a stack of two reports the residual and bound of a solo run
            errors = []
            for members in (t, [t, t]):
                with pytest.raises(NumericalError) as exc:
                    simulate(members, lambda _: 4.0, dt=1e-3, duration=2e-3)
                errors.append(str(exc.value))
            assert errors[0] == errors[1] and "exceeds bound" in errors[0]
            assert exc.value.member == 0

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

    def test_forward_error_on_ill_conditioned_step(self):
        # A chain of 1e4 S links broken by one 1e-6 S link, with cross
        # links of 1e3, 1e2 and 1e-7 S.  Measured: kappa_inf(A) = 5.0e5, a
        # relative forward error of 1.8e-12 against a bound of 1.8e-9.
        edges = [(k, k + 1, 1e-6 if k == 11 else 1e4) for k in range(15)]
        edges += [(0, 5, 1e3), (2, 9, 1e2), (6, 14, 1e-7)]
        sys = assemble(linear_topology(edges), 1.0)
        a, b = sys.matrix.copy(), sys.rhs.copy()
        v, i_src = solve_step(sys)
        rows = sys.node_rows
        x = np.empty(b.size)
        x[rows[rows >= 0]], x[-1] = v[rows >= 0], -i_src
        exact = exact_solve(a, b)
        error = max(abs(Fraction(xi) - xe) for xi, xe in zip(x.tolist(), exact))
        kappa = np.linalg.cond(a, np.inf)
        assert kappa >= 1e5
        assert error <= kappa * b.size * np.finfo(float).eps * max(map(abs, exact))


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
    labels = t.check()
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

    @pytest.mark.parametrize("amplitude", [1.0, 8.0])
    def test_interleaved_sizes_bit_equal(self, amplitude):
        # members of 49, 47, 49, 47 and 49 unknowns: each size's matrices are
        # solved as one stack, whose members are not neighbours in member order
        members = _interleaved_members()
        wave = sine_waveform(amplitude)
        dt, n_steps = 1e-3, 200
        got = simulate(members, wave, dt=dt, duration=n_steps * dt)
        for t, trace in zip(members, got):
            v_in, i_src, voltages, flips = lagged_run(t, wave, dt, n_steps)
            iface = voltages[:, t.grid.interface_indices]
            assert trace.applied_voltage.tobytes() == v_in.tobytes()
            assert trace.source_current.tobytes() == i_src.tobytes()
            assert trace.interface_voltages.tobytes() == iface.tobytes()
            assert trace.switching_events == flips


def _interleaved_members():
    """Five 49-node networks whose systems have 49, 47, 49, 47 and 49 rows."""
    members = [generate_network(Grid(4, 1), BetaShape(1, 5), 2,
                                default_ranges(), seed)
               for seed in (701, 700, 702, 706, 707)]
    assert [assemble(t, 1.0).matrix.shape[0] for t in members] == \
        [49, 47, 49, 47, 49]
    return members


class TestPowerBalance:
    # The 256-node network is solved by CG.  At 8 V it misses 1e-10 under
    # LU as well (1.0e-10; CG 1.1e-9), so it runs at 1 V only.
    @pytest.mark.parametrize("grid, amplitude", [
        pytest.param(Grid(4, 1), 1.0, id="1.0"),
        pytest.param(Grid(4, 1), 8.0, id="8.0"),
        pytest.param(Grid(6, 2), 1.0, id="cg-1.0")])
    def test_source_power_equals_dissipation(self, monkeypatch, grid, amplitude):
        # Tellegen's theorem: at every step the source delivers the power
        # the devices dissipate, each stamped with g + g_floor
        t = generate_network(grid, BetaShape(5, 1), 4, default_ranges(), 1200)
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


def _cg_network(seed):
    """A network on the smallest lattice whose systems CG solves: 256 nodes
    (those of the 225-node lattice stay below ``_CG_MIN_DIM``)."""
    t = generate_network(Grid(6, 2), BetaShape(1, 5), 4, default_ranges(), seed)
    assert 15 ** 2 < solver._CG_MIN_DIM <= assemble(t, 1.0).rhs.size
    return t


def _recorded_solves(monkeypatch):
    """Wrap solve_step; the list gets each call's node voltages."""
    real, solved = solver.solve_step, []

    def solve(sys, step=None):
        v, i_src = real(sys, step=step)
        solved.append(v.copy())
        return v, i_src

    monkeypatch.setattr(solver, "solve_step", solve)
    return solved


class TestConjugateGradients:
    """Systems of dim ``_CG_MIN_DIM`` or more, solved by CG under the gate."""

    @pytest.mark.parametrize("amplitude", [4.0, 8.0])
    def test_matches_lu_reference(self, monkeypatch, amplitude):
        # every node voltage within 1e-10 |v_in| of the LU reference's
        # (measured at most 8.4e-12 over seeds 0-2), the same switching
        t, wave, n_steps = _cg_network(0), sine_waveform(amplitude), 30
        solved = _recorded_solves(monkeypatch)
        trace = simulate(t, wave, dt=1e-3, duration=n_steps * 1e-3)
        v_in, i_src, voltages, flips = lagged_run(t, wave, 1e-3, n_steps)
        got = np.array(solved)
        assert not np.array_equal(got, voltages)  # CG ran, not LU
        assert np.all(np.abs(got - voltages) <= 1e-10 * np.abs(v_in)[:, None])
        assert np.all(np.abs(trace.source_current - i_src) <= 1e-10 * np.abs(v_in))
        assert trace.switching_events == flips > 0

    def test_fallback_is_lu(self, monkeypatch):
        # with no iteration allowed every step falls back to the LU path
        t, wave, n_steps = _cg_network(1), sine_waveform(8.0), 30
        monkeypatch.setattr(solver, "_CG_BUDGET", 0)
        trace = simulate(t, wave, dt=1e-3, duration=n_steps * 1e-3)
        v_in, i_src, voltages, flips = lagged_run(t, wave, 1e-3, n_steps)
        assert trace.source_current.tobytes() == i_src.tobytes()
        assert trace.interface_voltages.tobytes() == \
            voltages[:, t.grid.interface_indices].tobytes()
        assert trace.switching_events == flips

    @pytest.mark.parametrize("missed", [{2}, {2, 3}])
    def test_missed_gates(self, monkeypatch, missed):
        # _bound's calls in one _cg_solve: 1 the stop, 2 the first gate, 3
        # the restart's gate.  A missed first gate restarts CG from the true
        # residual, which already meets the stop, so the restart returns the
        # first round's solution and the run keeps its bits.  Two missed
        # gates give up, and LU solves the step, bit-equal to the reference.
        t, wave, n_steps = _cg_network(1), sine_waveform(8.0), 30
        kw = dict(dt=1e-3, duration=n_steps * 1e-3)
        plain = simulate(t, wave, **kw)
        real_bound, real_cg, calls = solver._bound, solver._cg_solve, []

        def cg_solve(sys, v_in):
            calls.append(0)
            return real_cg(sys, v_in)

        def bound(sys, x, v_in):
            calls[-1] += 1
            return -math.inf if calls[-1] in missed else real_bound(sys, x, v_in)

        monkeypatch.setattr(solver, "_cg_solve", cg_solve)
        monkeypatch.setattr(solver, "_bound", bound)
        trace = simulate(t, wave, **kw)
        # solve_step's own gate is each step's last call; step 0, at 0 V,
        # is solved by zeros
        assert calls == [1] + [4] * (n_steps - 1)
        if missed == {2}:
            assert trace.source_current.tobytes() == plain.source_current.tobytes()
            assert trace.interface_voltages.tobytes() == \
                plain.interface_voltages.tobytes()
            assert trace.switching_events == plain.switching_events
            return
        v_in, i_src, voltages, flips = lagged_run(t, wave, 1e-3, n_steps)
        assert trace.source_current.tobytes() == i_src.tobytes()
        assert trace.interface_voltages.tobytes() == \
            voltages[:, t.grid.interface_indices].tobytes()
        assert trace.switching_events == flips

    def test_matrix_on_demand_is_exact(self):
        # A CG member's ``matrix`` is its stored ``_Cg``, of the dense
        # shape; only ``dense()`` builds a dense matrix.  At a mid-run step
        # (conductances at random branch voltages) that equals, bit for
        # bit, a matrix stamped by np.add.at in the assembler's stamp
        # order, and the sparse gate's residual agrees with the dense one
        # to a thousandth of the gate's bound (measured: within 6e-19, the
        # bound 4.6e-13, over seeds 0-5).
        t = _cg_network(3)
        bias = np.random.default_rng(3).uniform(-4.0, 4.0, t.edge_count)
        sys = solver._Assembler([t]).build(t.w, bias, 4.0)[0]
        d = sys.rhs.size
        assert isinstance(sys.matrix, solver._Cg) and "matrix" in vars(sys)
        assert sys.matrix is sys.matrix and sys.matrix.shape == (d, d)
        p = dict(zip(_PARAM_KEYS, t.params.T))
        g = device.conductance_batch(t.w, bias, p["epsilon"], p["theta"], p["gamma"],
                                     p["delta"], p["g_floor"]) + p["g_floor"]
        rows = sys.node_rows
        ra, rb = rows[t.a], rows[t.b]
        dense = np.zeros((d, d))
        for r, c, sign in ((ra, ra, 1.0), (rb, rb, 1.0), (ra, rb, -1.0), (rb, ra, -1.0)):
            keep = (r >= 0) & (c >= 0)
            np.add.at(dense, (r[keep], c[keep]), sign * g[keep])
        r_in = rows[t.input_node]
        dense[r_in, -1] = dense[-1, r_in] = 1.0
        assert sys.matrix.dense().tobytes() == dense.tobytes()
        x, residual = solver._cg_solve(sys, 4.0)
        assert abs(residual - np.abs(dense @ x - sys.rhs).max()) <= \
            1e-3 * solver._bound(sys, x, 4.0)

    def test_setup_and_steps_hold_no_dense_matrix(self):
        # The largest allocation a dense member needs is its d x d matrix;
        # a CG member's set-up and steps together peak below one (measured
        # 418 KB against 524 KB at d = 256; 958 KB with a stored matrix).
        t = _cg_network(0)
        d = assemble(t, 1.0).rhs.size
        tracemalloc.start()
        try:
            simulate(t, sine_waveform(4.0), dt=1e-3, duration=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8

    def test_lockstep_members_bit_equal_to_solo(self):
        members = [_cg_network(seed) for seed in (0, 2)]
        wave = sine_waveform(8.0)
        got = simulate(members, wave, dt=1e-3, duration=0.03)
        for t, trace in zip(members, got):
            solo = simulate(t, wave, dt=1e-3, duration=0.03)
            assert trace.source_current.tobytes() == solo.source_current.tobytes()
            assert trace.interface_voltages.tobytes() == \
                solo.interface_voltages.tobytes()
            assert trace.switching_events == solo.switching_events

    def test_failing_member_raises_numerical_error(self, monkeypatch):
        # member 1's conductances cancel its floor path at step 3: its block
        # is not positive definite, so LU takes it and finds it singular
        members = [_cg_network(seed) for seed in (0, 2)]
        edges = slice(members[0].edge_count, None)
        real_g, steps = device.conductance_batch, []

        def conductance(*args, **kwargs):
            g = real_g(*args, **kwargs)
            steps.append(len(steps))
            if steps[-1] == 3:
                g[edges] = -args[6][edges]
            return g

        monkeypatch.setattr(device, "conductance_batch", conductance)
        solved = _recorded_solves(monkeypatch)
        with pytest.raises(NumericalError) as exc:
            simulate(members, sine_waveform(4.0), dt=1e-3, duration=0.01)
        assert (exc.value.member, exc.value.step) == (1, 3)
        assert str(exc.value) == "linear solve failed: Singular matrix (step 3)"
        assert len(solved) == 3 * 2 + 7  # member 0 steps on to the end

    @pytest.mark.parametrize("network", [
        pytest.param(lambda: _cg_network(0), id="256"),
        pytest.param(lambda: generate_network(Grid(8, 3), BetaShape(1, 1), 4,
                                              default_ranges(), 0), id="841"),
    ])
    def test_entries_row_interleaved(self, network):
        # Entry k of any row comes before entry k + 1 of every row, rows
        # rising within each k, and within a row the columns rise.
        cg = solver._Assembler([network()])._systems[0].matrix
        rows, cols = cg.rows, cg.cols
        by_row = np.argsort(rows, kind="stable")
        counts = np.bincount(rows)
        k = np.empty_like(rows)
        k[by_row] = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        assert np.all((np.diff(k) > 0) | ((np.diff(k) == 0) & (np.diff(rows) > 0)))
        same_row = np.diff(rows[by_row]) == 0
        assert np.all(np.diff(cols[by_row])[same_row] > 0)
        assert np.array_equal(rows[cg.diag], np.arange(counts.size))
        assert np.array_equal(cols[cg.diag], np.arange(counts.size))

    @pytest.mark.parametrize("network, v_in", [
        pytest.param(lambda: _cg_network(0), 1.0, id="256-1V"),
        pytest.param(lambda: _cg_network(0), 8.0, id="256-8V"),
        pytest.param(lambda: generate_network(Grid(8, 3), BetaShape(10, 1), 8,
                                              default_ranges(), 0), 8.0,
                     id="841-stiff-8V"),
    ])
    def test_row_interleaved_keeps_bits(self, network, v_in):
        # A solve on the stored entries and one on the same entries sorted
        # by row give the same x, residual and next start, bit for bit: the
        # bincount adds each row's terms in the same order either way.
        t = network()
        bias = np.random.default_rng(5).uniform(-v_in, v_in, t.edge_count)
        sys = solver._Assembler([t]).build(t.w, bias, v_in)[0]
        cg = sys.matrix
        by_row = np.argsort(cg.take)  # the stamped, row-sorted order
        flat = dataclasses.replace(sys, matrix=copy.copy(cg))
        flat.matrix.rows, flat.matrix.cols = cg.rows[by_row], cg.cols[by_row]
        flat.matrix.vals, flat.matrix.u = cg.vals[by_row], cg.u.copy()
        flat.matrix.diag = np.argsort(by_row)[cg.diag]
        assert flat.matrix.dense().tobytes() == cg.dense().tobytes()
        x, residual = solver._cg_solve(sys, v_in)
        x_flat, residual_flat = solver._cg_solve(flat, v_in)
        assert x is not None
        assert x.tobytes() == x_flat.tobytes() and residual == residual_flat
        assert cg.u.tobytes() == flat.matrix.u.tobytes()


def _reference_network():
    """The 49-node network of the lagged/Newton reference cell: alpha 1,
    beta 5, xi 4."""
    return generate_network(Grid(4, 1), BetaShape(1, 5), 4, default_ranges(), 11)


@pytest.fixture(scope="module", params=[1.0, 8.0])
def converged(request):
    """The reference network and its Newton run at a KCL stop of 1e-12, 200
    steps (one period) at the given amplitude."""
    t = _reference_network()
    return t, newton_run(t, sine_waveform(request.param), 1e-3, 200, stop=1e-12)


def _device_currents(t, w, v):
    """Each device's bias and current, from the package's conductance kernel
    and the parallel g_floor path."""
    p = dict(zip(_PARAM_KEYS, t.params.T))
    bias = v[t.a] - v[t.b]
    g = device.conductance_batch(w, bias, p["epsilon"], p["theta"], p["gamma"],
                                 p["delta"], p["g_floor"]) + p["g_floor"]
    return bias, g * bias


class TestNewtonReference:
    """The damped-Newton reference step of ``tests/oracles.py``."""

    def test_kcl_holds_at_every_free_node(self, converged):
        t, (v_in, _, voltages, states, _, _) = converged
        n = t.grid.n_nodes
        labels = t.check()
        live = labels == labels[t.ground_node]
        free = live & ~np.isin(np.arange(n), [t.input_node, t.ground_node])
        assert np.all(voltages[:, ~live] == 0.0)  # ground and islands
        assert np.array_equal(voltages[:, t.input_node], v_in)
        for v, w in zip(voltages, states):
            _, i = _device_currents(t, w, v)
            kcl = np.bincount(t.a, i, n) - np.bincount(t.b, i, n)
            scale = np.bincount(t.a, np.abs(i), n) + np.bincount(t.b, np.abs(i), n)
            assert np.abs(kcl[free]).max() <= 1e-12 * scale[free].max()

    def test_source_power_equals_dissipation(self, converged):
        t, (v_ins, i_srcs, voltages, states, _, _) = converged
        for v_in, i_src, v, w in zip(v_ins, i_srcs, voltages, states):
            bias, i = _device_currents(t, w, v)
            delivered, dissipated = v_in * i_src, np.sum(i * bias)
            assert abs(delivered - dissipated) <= \
                1e-10 * max(abs(delivered), dissipated)

    def test_simulate_matches_at_1v(self):
        # Measured on this network at the default stop: simulate's E differs
        # from the reference's by 3.1e-4 relative and H by 6.5e-4 bits (8% of
        # 0.0079); over seeds 0-7 of the same cell, by at most 3.1e-3 and
        # 1.1e-3 bits.
        self.check_simulate_matches(1.0, 1e-3, 1.5e-3)

    def test_simulate_matches_at_2v(self):
        # Measured on this network: E differs by 2.2e-4 relative and H by
        # 1.75e-3 bits (0.0255 against 0.0272); over seeds 0-11 of the same
        # cell, by at most 1.8e-2 and 6.5e-3 bits.
        self.check_simulate_matches(2.0, 1e-3, 2.5e-3)

    @staticmethod
    def check_simulate_matches(amplitude, rel_energy, abs_entropy):
        t = _reference_network()
        wave = sine_waveform(amplitude)
        ref = _newton_trace(t, wave, 1e-3, 200)
        trace = simulate(t, wave, dt=1e-3, duration=0.2)
        assert energy(trace).energy_joules == \
            pytest.approx(energy(ref).energy_joules, rel=rel_energy)
        assert entropy(trace.interface_voltages).entropy_bits == \
            pytest.approx(entropy(ref.interface_voltages).entropy_bits,
                          abs=abs_entropy)
        assert trace.switching_events == ref.switching_events

    @pytest.mark.parametrize("amplitude,first_halving", [(2.0, 1e-2), (8.0, 2e-2)])
    def test_energy_converges_in_dt(self, amplitude, first_halving):
        # One period at dt 1e-3, 5e-4 and 2.5e-4.  Measured at 2 V: E
        # 1.57333e-4, 1.57262e-4 and 1.57392e-4 (halvings move it by 0.05%
        # and 0.08%).  At 8 V: 0.0266929, 0.0263069 and 0.0263193, so the
        # first halving moves E by 1.47%, above 1%, and the second by 0.05%.
        t = _reference_network()
        e = [energy(_newton_trace(t, sine_waveform(amplitude), dt,
                                  round(0.2 / dt))).energy_joules
             for dt in (1e-3, 5e-4, 2.5e-4)]
        assert e[0] == pytest.approx(e[1], rel=first_halving)
        assert e[1] == pytest.approx(e[2], rel=1e-2)


def _newton_trace(t, waveform, dt, n_steps):
    """The reference's run as a SimulationTrace, one row per step."""
    v_in, i_src, voltages, _, _, flips = newton_run(t, waveform, dt, n_steps)
    return SimulationTrace(times=np.arange(n_steps) * dt, dt=dt,
                           interface_voltages=voltages[:, t.grid.interface_indices],
                           source_current=i_src, applied_voltage=v_in,
                           switching_events=flips)


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
    "no path": ({"b": np.array([5, 10, 14])}, "^no input->ground path"),
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

    @pytest.mark.parametrize("amplitude", [1.0, 2.0])
    def test_energy_converges_in_dt(self, amplitude):
        # One period of the reference network at dt 1e-3, 5e-4 and 2.5e-4.
        # Measured: the halvings move E by 0.038% and 0.026% at 1 V, 0.042%
        # and 0.032% at 2 V.  At 8 V the lagged step moves E by 2.4% and
        # 1.3%, so that drive is left out.
        t = _reference_network()
        e = [energy(simulate(t, sine_waveform(amplitude), dt=dt,
                             duration=0.2)).energy_joules
             for dt in (1e-3, 5e-4, 2.5e-4)]
        assert e[0] == pytest.approx(e[1], rel=2e-3)
        assert e[1] == pytest.approx(e[2], rel=2e-3)

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
        # dt and duration are finite numbers, not booleans or strings
        for dt in (True, "x"):
            with pytest.raises(ParameterError, match="'dt'"):
                simulate(island, lambda t: 1.0, dt=dt, duration=2.0)
        with pytest.raises(ParameterError, match="'duration'"):
            simulate(island, lambda t: 1.0, dt=1e-3, duration=True)
        # a step count float64 cannot count exactly, checked before set-up
        with pytest.raises(ParameterError, match="duration / dt"):
            simulate(island, lambda t: 1.0, dt=1e-300, duration=1e300)
        # 1e15 steps: 7.1 PiB of trace, beyond the 128 TiB a process can map
        with pytest.raises(ParameterError, match="1000000000000000 steps do not fit"):
            simulate(t, lambda t: 1.0, dt=1e-12, duration=1e3)

    def test_sine_waveform_takes_finite_numbers(self):
        for args in ((True,), ("8",), (math.nan,), (2.0, math.inf)):
            with pytest.raises(ParameterError, match="must be a finite number"):
                sine_waveform(*args)

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

    def test_singular_member_raises_linear_solve_error(self, monkeypatch):
        # member 2's conductances cancel its parallel floor at step 3, so its
        # conductance block is zero and its matrix singular; members 0 and 1
        # step on to the end, with the bits of their solo runs
        members = [generate_network(Grid(4, 1), BetaShape(1, 5), 4,
                                    default_ranges(), seed) for seed in range(4)]
        assert len({assemble(t, 1.0).matrix.shape for t in members}) == 1
        wave = sine_waveform(1.0)
        solo = [simulate(t, wave, dt=1e-3, duration=0.01) for t in members[:2]]
        start = sum(t.edge_count for t in members[:2])
        edges = slice(start, start + members[2].edge_count)
        real_g, real_solve = device.conductance_batch, solver.solve_step
        ids, solved, steps = {}, [], []

        def conductance(*args, **kwargs):
            g = real_g(*args, **kwargs)
            steps.append(len(steps))
            if steps[-1] == 3:
                g[edges] = -args[6][edges]  # g + g_floor == 0 on every edge
            return g

        def solve(sys, step=None):
            m = ids.setdefault(id(sys), len(ids))  # step 0 is in order
            v, i_src = real_solve(sys, step=step)
            solved.append((m, step, v.copy(), i_src))
            return v, i_src

        monkeypatch.setattr(device, "conductance_batch", conductance)
        monkeypatch.setattr(solver, "solve_step", solve)
        with pytest.raises(NumericalError) as exc:
            simulate(members, wave, dt=1e-3, duration=0.01)
        assert (exc.value.member, exc.value.step) == (2, 3)
        assert str(exc.value) == "linear solve failed: Singular matrix (step 3)"
        iface = members[0].grid.interface_indices
        for m, trace in enumerate(solo):
            got = [(k, v, i_src) for i, k, v, i_src in solved if i == m]
            assert [k for k, _, _ in got] == list(range(10))
            assert np.array([v[iface] for _, v, _ in got]).tobytes() == \
                trace.interface_voltages.tobytes()
            assert np.array([i_src for _, _, i_src in got]).tobytes() == \
                trace.source_current.tobytes()
        for m in (2, 3):
            assert [k for i, k, _, _ in solved if i == m] == [0, 1, 2]

    def test_numerical_error_carries_step_index(self):
        err = NumericalError("boom", step=17)
        assert "step 17" in str(err)
        assert err.step == 17


def _assert_columns(full, picked, cols):
    """``picked`` is ``full`` recording only the 0-based columns ``cols``."""
    assert picked.interface_voltages.tobytes() == \
        full.interface_voltages[:, cols].tobytes()
    for name in ("times", "source_current", "applied_voltage"):
        assert getattr(picked, name).tobytes() == getattr(full, name).tobytes()
    assert picked.dt == full.dt
    assert picked.switching_events == full.switching_events
    if full.every_step is None:
        assert picked.every_step is None
    else:
        assert picked.every_step[0] == full.every_step[0]
        for a, b in zip(picked.every_step[1:], full.every_step[1:]):
            assert a.tobytes() == b.tobytes()


class TestInterfaceLabels:
    """``simulate(..., interface=labels)`` records only those posts."""

    def test_columns_equal_the_full_run(self):
        members = [generate_network(Grid(4, 1), BetaShape(1, 5), 4,
                                    default_ranges(), seed) for seed in (3, 4, 5)]
        wave, kw = sine_waveform(4.0), dict(dt=1e-3, duration=0.06)
        full = simulate(members, wave, **kw)
        picked = simulate(members, wave, interface=(2, 9), **kw)
        assert full.switching_events > 0
        for f, p in zip(full, picked):
            _assert_columns(f, p, [1, 8])
        full = simulate(members[0], wave, decimation=3, **kw)
        picked = simulate(members[0], wave, decimation=3, interface=(9, 2), **kw)
        assert picked.every_step is not None
        _assert_columns(full, picked, [8, 1])
        assert picked.to_csv().split("\n", 1)[0] == "t,v_in,i_src,node_1,node_2"

    @pytest.mark.parametrize("labels", [(2, 0), (2, 17), (2, 2.5), (2, True),
                                        (2, "2"), ()])
    def test_bad_labels_rejected_before_step_0(self, monkeypatch, labels):
        # 16 posts; the check is one for all members, so it names none
        calls = []
        monkeypatch.setattr(solver, "solve_step", lambda *a, **kw: calls.append(a))
        t = generate_network(Grid(4, 1), BetaShape(1, 5), 4, default_ranges(), 3)
        with pytest.raises(ParameterError, match="interface") as exc:
            simulate([t, t], sine_waveform(1.0), dt=1e-3, duration=0.01,
                     interface=labels)
        assert calls == [] and not hasattr(exc.value, "member")


def _stamp_layout(topologies):
    """What the assembler's set-up must give, built by ``np.unique`` over
    every stamp's flat index: the stamped entries, each stamp's bin (one
    past them if dropped), the LU members' entries, each member's first
    entry in buffer order, and each CG member's (span, rows, cols, diag)."""
    n = topologies[0].grid.n_nodes
    rows, dims = [], []
    for t in topologies:
        labels = t.check()
        keep = (labels == labels[t.ground_node]) & (np.arange(n) != t.ground_node)
        r = np.full(n, -1)
        r[keep] = np.arange(keep.sum())
        rows.append(r)
        dims.append(int(keep.sum()) + 1)
    offsets, size = {}, 0
    for m in sorted(range(len(dims)), key=dims.__getitem__):
        offsets[m], size = size, size + dims[m] ** 2
    flat = []
    for m, (t, r, d) in enumerate(zip(topologies, rows, dims)):
        ra, rb = r[t.a], r[t.b]
        flat.append([np.where((i >= 0) & (j >= 0), offsets[m] + i * d + j, size)
                     for i, j in ((ra, ra), (rb, rb), (ra, rb), (rb, ra))])
    stamped, bins = np.unique(np.concatenate(flat, axis=1), return_inverse=True)
    stamped = stamped[stamped < size]
    lu_size = sum(d * d for d in dims if d < solver._CG_MIN_DIM)
    firsts = [np.count_nonzero(stamped < o) for o in sorted(offsets.values())]
    cgs = {}
    for m, d in enumerate(dims):
        if d >= solver._CG_MIN_DIM:
            o = offsets[m]
            lo, hi = np.count_nonzero(stamped < o), np.count_nonzero(stamped < o + d * d)
            r, c = np.divmod(stamped[lo:hi] - o, d)
            cgs[m] = (slice(lo, hi), r, c, np.flatnonzero(r == c))
    return (stamped, bins.ravel(), stamped[stamped < lu_size], np.array(firsts),
            cgs)


def _same(got, want):
    return got.dtype == np.intp and np.array_equal(got, want)


class TestSetup:
    def test_one_stacked_solve_per_size_and_step(self, monkeypatch):
        # member 3 fails at step 2; from step 3 the stacks hold members 0-2
        members = _interleaved_members()
        real_lu, real_solve = np.linalg.solve, solver.solve_step
        ids, calls, at = {}, [], {"step": None}

        def lu(a, b):
            calls.append((at["step"], a.shape[-1], a.shape[0] if a.ndim == 3 else 1))
            return real_lu(a, b)

        def flaky(sys, step=None):
            at["step"] = step
            if ids.setdefault(id(sys), len(ids)) == 3 and step == 2:
                raise NumericalError("member 3 failed", step=step)
            return real_solve(sys, step=step)

        monkeypatch.setattr(np.linalg, "solve", lu)
        monkeypatch.setattr(solver, "solve_step", flaky)
        with pytest.raises(NumericalError) as exc:
            simulate(members, sine_waveform(1.0), dt=1e-3, duration=6e-3)
        assert (exc.value.member, exc.value.step) == (3, 2)
        stacks = {k: sorted((d, g) for s, d, g in calls if s == k)
                  for k in range(6)}
        assert stacks == {k: [(47, 2), (49, 3)] if k < 3 else [(47, 1), (49, 2)]
                          for k in range(6)}

    def test_one_union_find_per_member(self, monkeypatch):
        # each member's rows come from the labels its check computes
        members = [_with_island(generate_network(Grid(4, 1), BetaShape(1, 5), 2,
                                                 default_ranges(), seed))
                   for seed in (700, 706, 709)]
        labels = []

        def counted(n_nodes, a, b):
            labels.append(_components(n_nodes, a, b))
            return labels[-1]

        monkeypatch.setattr(topology, "_components", counted)
        monkeypatch.setattr(solver, "_components", counted, raising=False)
        simulate(members, sine_waveform(1.0), dt=1e-3, duration=2e-3)
        assert len(labels) == 3
        for t in members:
            got = t.check()
            assert got is labels[-1]
            assert np.array_equal(got, _components(t.grid.n_nodes, t.a, t.b))

    @pytest.mark.parametrize("members", [
        pytest.param(lambda: [_with_island(generate_network(
            Grid(4, 1), BetaShape(1, 5), 2, default_ranges(), 700))], id="49"),
        pytest.param(lambda: [generate_network(Grid(4, 1), BetaShape(1, 5), 2,
                                               default_ranges(), seed)
                              for seed in range(16)], id="49-k16"),
        pytest.param(lambda: [_cg_network(0)], id="256"),
        pytest.param(lambda: [_cg_network(0), generate_network(
            Grid(6, 2), BetaShape(1, 5), 1, default_ranges(), 0)], id="256-cg-lu"),
    ])
    def test_stamp_layout_matches_unique(self, members):
        # The bit table marks the entries np.unique finds, on LU-only and
        # CG-size batches alike, and so gives the same bins, spans and rows.
        # A _Cg stores its span's entries row-interleaved: mapped back
        # through its ``take``, they are np.unique's row-sorted ones.
        members = members()
        stamped, bins, lu_stamped, firsts, cgs = _stamp_layout(members)
        asm = solver._Assembler(members)
        assert _same(asm._stamped, stamped) and _same(asm._bins, bins)
        assert _same(asm._lu_stamped, lu_stamped) and _same(asm._firsts, firsts)
        assert asm._bins.max() == stamped.size  # some stamps are dropped
        assert {m for m, s in enumerate(asm._systems)
                if isinstance(s.matrix, solver._Cg)} == set(cgs)
        for m, (span, rows, cols, diag) in cgs.items():
            cg = asm._systems[m].matrix
            assert _same(np.sort(cg.take), np.arange(span.start, span.stop))
            at = cg.take - span.start
            assert _same(cg.rows, rows[at]) and _same(cg.cols, cols[at])
            assert _same(at[cg.diag], diag)  # the diagonal, in row order
        if len(members) == 16:
            assert len({s.rhs.size for s in asm._systems}) > 2
        elif len(members) == 2:  # one member of each kind
            assert len(cgs) == 1 and lu_stamped.size > 0

    def test_distinct_memory_follows_the_stamps(self):
        # 8,000 stamps, some repeated and some dropped, in an index space of
        # 2**28 entries: finding the distinct ones takes memory in the
        # stamps' count, not the space's (a bit table would take 33.5 MB).
        size = 2 ** 28
        rng = np.random.default_rng(0)
        flat = rng.integers(0, size, (4, 2000)).astype(np.intp)
        flat[1, :500] = flat[0, :500]
        flat[2, :300] = size
        tracemalloc.start()
        try:
            got = solver._distinct(flat, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert _same(got, np.unique(flat[flat < size]))

    def test_cg_setup_below_one_byte_per_entry(self):
        # A CG-size lattice's set-up holds its stamps, not its entries, so
        # it stays below one byte per entry (measured 4.0 MB against d * d
        # = 13.8 MB at 3,716 rows; 18.8 MB with a byte per entry).
        t = generate_network(Grid(16, 3), BetaShape(1, 1), 4, default_ranges(), 0)
        d = assemble(t, 1.0).rhs.size
        tracemalloc.start()
        try:
            solver._Assembler([t])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * d


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
