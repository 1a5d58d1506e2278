"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion NN] name: PASS/FAIL`` line (run
with ``pytest tests/test_acceptance.py -v -s``).  Expensive simulation
batches are shared through module-scoped fixtures.  Sample sizes are
fixed-seed and chosen so the statistical margins sit several standard
errors from each threshold.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.stats

from rsnsim.analysis import energy, entropy
from rsnsim.device import default_ranges
from rsnsim.harness import (HierarchyConfig, SweepConfig, aggregate,
                            derive_seed, run_hierarchy, run_single, run_sweep)
from rsnsim.solver import assemble, simulate, sine_waveform, solve_step
from rsnsim.topology import BetaShape, Grid, distance_map, generate_network

from tests.conftest import linear_topology, stamped_edges
from tests.oracles import solve_resistive_network
from tests.test_solver import _random_linear_topology

ACCEPT_SEED = 20240815


@contextmanager
def criterion(num, name):
    notes = []
    try:
        yield notes
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    detail = f"  ({'; '.join(notes)})" if notes else ""
    print(f"[criterion {num:02d}] {name}: PASS{detail}")


def _mean_entropies(cfg, alpha, beta, xi, v, n, tag):
    return np.array([
        run_single(cfg, alpha, beta, xi, v,
                   seed=derive_seed(ACCEPT_SEED, tag, i)).entropy_bits
        for i in range(n)])


@pytest.fixture(scope="module")
def base_cfg():
    return SweepConfig()


@pytest.fixture(scope="module")
def trend_runs(base_cfg):
    """12 seeds per trend cell: long wire at v=8 and v=1, short wire at v=8."""
    return {
        "long_v8": _mean_entropies(base_cfg, 10, 1, 4, 8.0, 12, tag=1),
        "long_v1": _mean_entropies(base_cfg, 10, 1, 4, 1.0, 12, tag=2),
        "short_v8": _mean_entropies(base_cfg, 1, 10, 4, 8.0, 12, tag=3),
    }


@pytest.fixture(scope="module")
def sweep_xi4(base_cfg):
    """The default (alpha, beta, v) grid at xi=4, 3 trials per cell."""
    cfg = SweepConfig(xis=(4,), trials=3, base_seed=ACCEPT_SEED,
                      ranges=base_cfg.ranges)
    return aggregate(run_sweep(cfg))


@pytest.fixture(scope="module")
def hierarchy_runs(base_cfg):
    """Matched single/hierarchy energies and entropies at (1, 5, xi, 2 V)."""
    hier = HierarchyConfig(k=16)
    out = {}
    for xi, n_h, n_s in ((4, 10, 120), (2, 8, 120)):
        hs, es = [], []
        for i in range(n_h):
            rec = run_hierarchy(base_cfg, hier, 1, 5, xi, 2.0,
                                seed=derive_seed(ACCEPT_SEED, 40, xi, i))
            hs.append(rec.entropy_bits)
            es.append(rec.energy_joules)
        singles = [run_single(base_cfg, 1, 5, xi, 2.0,
                              seed=derive_seed(ACCEPT_SEED, 41, xi, i))
                   for i in range(n_s)]
        out[xi] = {
            "hier_h": np.array(hs), "hier_e": np.array(es),
            "single_h": np.array([r.entropy_bits for r in singles]),
            "single_e": np.array([r.energy_joules for r in singles]),
        }
    return out


def test_criterion_01_entropy_extremes():
    with criterion(1, "entropy extremes H=0 and H=log2(N)"):
        col = np.sin(np.linspace(0.0, 9.0, 120))
        rank1 = np.column_stack([c * col for c in (1.0, -2.0, 0.5, 3.0)])
        for center in (True, False):
            assert abs(entropy(rank1, center=center).entropy_bits) <= 1e-9

        t = np.arange(240) / 240.0
        ortho = np.column_stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)])
        for center in (True, False):
            h = entropy(ortho, center=center).entropy_bits
            assert abs(h - 1.0) <= 1e-9
        h4 = entropy(np.eye(4) * 2.0, center=False).entropy_bits
        assert abs(h4 - 2.0) <= 1e-9


def test_criterion_02_entropy_gram_oracle():
    with criterion(2, "entropy of Gram [[2,1],[1,2]]"):
        X = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(X.T @ X, np.array([[2.0, 1.0], [1.0, 2.0]]))
        # hand eigendecomposition: {3, 1} -> lambda {0.75, 0.25}
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        h = entropy(X, center=False).entropy_bits
        assert abs(h - expected) <= 1e-6
        assert abs(h - 0.8113) <= 5e-5


def test_criterion_03_circuit_oracle_equivalence():
    with criterion(3, "MNA matches dense elimination, KCL residual bound"):
        # static solves on random <=12-node linear networks
        for trial in range(8):
            rng = np.random.default_rng(1000 + trial)
            t = _random_linear_topology(rng, n_edges=30)
            assert t.grid.n_nodes <= 12
            oracle_edges = stamped_edges(t)
            v_in = float(rng.uniform(0.5, 8.0))
            sys = assemble(t, v_in)
            v, i_src = solve_step(sys)
            res = np.abs(sys.matrix @ np.linalg.solve(sys.matrix, sys.rhs)
                         - sys.rhs).max()
            assert res < 1e-9 * max(1.0, np.abs(sys.rhs).max())
            v_ref, _ = solve_resistive_network(t.grid.n_nodes, oracle_edges,
                                               t.input_node, t.ground_node, v_in)
            assert np.abs(v - v_ref).max() < 1e-9

        # every step of a time-stepped linear simulation
        rng = np.random.default_rng(1100)
        t = _random_linear_topology(rng, n_edges=25)
        oracle_edges = stamped_edges(t)
        wave = sine_waveform(3.0)
        trace = simulate(t, wave, dt=1e-3, duration=0.2)
        iface = t.grid.interface_indices
        for k in range(trace.n_steps):
            v_ref, _ = solve_resistive_network(t.grid.n_nodes, oracle_edges,
                                               t.input_node, t.ground_node,
                                               wave(k * 1e-3))
            assert np.abs(trace.interface_voltages[k] - v_ref[iface]).max() < 1e-9

        # device networks: solve_step enforces the residual contract at
        # every step, so completion certifies it
        topo = generate_network(Grid(4, 1), BetaShape(5, 1), 4, default_ranges(), 1200)
        simulate(topo, sine_waveform(8.0), dt=1e-3, duration=1.0)


def test_criterion_04_energy_closed_forms():
    with criterion(4, "sine-drive energy E = G v^2 T / 2"):
        G, v, f = 0.4, 2.0, 5.0
        t = linear_topology([(0, 15, G)], input_node=0, ground_node=15)

        def run_energy(dt, duration):
            trace = simulate(t, sine_waveform(v, f), dt=dt, duration=duration)
            return energy(trace).energy_joules

        # whole periods at dt = 1 ms: within 1 %
        exact = G * v * v * 1.0 / 2.0
        e1 = run_energy(1e-3, 1.0)
        assert abs(e1 - exact) <= 0.01 * exact
        assert abs(run_energy(5e-4, 1.0) - exact) <= 0.01 * exact

        # halving dt at least halves the quadrature error (non-whole-period
        # window where the left-Riemann boundary error is O(dt))
        T = 0.55
        w = 2 * math.pi * f
        exact_t = G * v * v * (T / 2.0 - math.sin(2 * w * T) / (4 * w))
        err1 = abs(run_energy(1e-3, T) - exact_t)
        err2 = abs(run_energy(5e-4, T) - exact_t)
        assert err2 <= 0.5 * err1 + 1e-15


def test_criterion_05_amplitude_trend(trend_runs):
    with criterion(5, "mean H rises with amplitude (1 V -> 8 V)") as notes:
        hi, lo = trend_runs["long_v8"], trend_runs["long_v1"]
        notes.append(f"H(8V)={hi.mean():.3f}+-{hi.std(ddof=1):.3f}, "
                     f"H(1V)={lo.mean():.3f}+-{lo.std(ddof=1):.3f}")
        assert hi.mean() > lo.mean()
        # non-overlapping +-1 sigma intervals
        assert hi.mean() - hi.std(ddof=1) > lo.mean() + lo.std(ddof=1)


def test_criterion_06_morphology_trend(trend_runs):
    with criterion(6, "long-wire morphology beats short-wire") as notes:
        long_h = trend_runs["long_v8"].mean()
        short_h = trend_runs["short_v8"].mean()
        notes.append(f"H(long)={long_h:.3f}, H(short)={short_h:.3f}")
        assert long_h > short_h


def test_criterion_07_energy_entropy_relation(sweep_xi4):
    with criterion(7, "H vs log10(E): positive slope, R^2 > 0.5") as notes:
        h = np.array([r["mean_entropy"] for r in sweep_xi4])
        e = np.array([r["mean_energy"] for r in sweep_xi4])
        ok = np.isfinite(h) & np.isfinite(e) & (e > 0)
        assert ok.sum() >= 100
        x, y = np.log10(e[ok]), h[ok]
        A = np.column_stack([x, np.ones_like(x)])
        (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
        pred = A @ np.array([slope, intercept])
        r2 = 1.0 - ((y - pred) ** 2).sum() / ((y - y.mean()) ** 2).sum()
        notes.append(f"slope={slope:.4f}, R2={r2:.3f}, n={int(ok.sum())}")
        assert slope > 0.0
        assert r2 > 0.5


def test_criterion_08_hierarchy_entropy_gain(hierarchy_runs):
    with criterion(8, "16-network architecture beats single network H") as notes:
        d = hierarchy_runs[4]
        pairs = min(d["hier_h"].size, d["single_h"].size)
        assert pairs >= 10
        wins = np.count_nonzero(d["hier_h"][:pairs] > d["single_h"][:pairs])
        notes.append(f"wins={wins}/{pairs}, H16={d['hier_h'].mean():.3f}, "
                     f"H1={d['single_h'].mean():.3f}")
        assert wins >= math.ceil(0.9 * pairs)
        assert d["hier_h"].mean() > d["single_h"].mean()


def test_criterion_09_hierarchy_energy_scaling(hierarchy_runs):
    with criterion(9, "mean E(K=16) / mean E(K=1) = 16 +- 10%") as notes:
        # equal cell weights on both sides of the ratio
        hier = np.mean([hierarchy_runs[xi]["hier_e"].mean() for xi in (2, 4)])
        single = np.mean([hierarchy_runs[xi]["single_e"].mean() for xi in (2, 4)])
        ratio = hier / single
        per_cell = {xi: hierarchy_runs[xi]["hier_e"].mean()
                    / hierarchy_runs[xi]["single_e"].mean() for xi in (2, 4)}
        notes.append(f"ratio={ratio:.2f}, per-cell="
                     + ", ".join(f"xi{k}:{v:.2f}" for k, v in per_cell.items()))
        assert 16.0 * 0.9 <= ratio <= 16.0 * 1.1


def test_criterion_10_generation_statistics():
    with criterion(10, "beta sampling KS tests and edge-length ordering"):
        shapes = [(1, 1), (2, 5), (10, 1)]
        rng = np.random.default_rng(ACCEPT_SEED)
        for a, b in shapes:
            x = rng.beta(a, b, size=10_000)
            p = scipy.stats.kstest(x, scipy.stats.beta(a, b).cdf).pvalue
            assert p > 0.01

        grid = Grid(4, 2)
        dmap = distance_map(grid)
        means = {}
        for a, b in shapes:
            t = generate_network(grid, BetaShape(a, b), 4, default_ranges(),
                                 derive_seed(ACCEPT_SEED, a, b), edge_count=2000)
            n_gen = t.edge_count - t.n_augmented
            lens = dmap[t.a[:n_gen], t.b[:n_gen]]
            means[(a, b)] = np.mean(lens)
        # mu = 2/7 < 1/2 < 10/11
        assert means[(2, 5)] < means[(1, 1)] < means[(10, 1)]


def test_criterion_11_sweep_determinism(tmp_path):
    with criterion(11, "byte-identical sweep CSVs across worker counts"):
        import json
        from rsnsim.cli import main

        doc = {"alphas": [1.0, 5.0], "betas": [2.0], "xis": [2],
               "amplitudes": [2.0, 4.0], "trials": 2, "base_seed": 17,
               "duration": 0.1}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(doc))
        a, b = tmp_path / "w1", tmp_path / "w2"
        assert main(["sweep", "--config", str(cfg), "--out", str(a),
                     "--workers", "1"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(b),
                     "--workers", "2"]) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        assert (a / "aggregate.csv").read_bytes() == (b / "aggregate.csv").read_bytes()
