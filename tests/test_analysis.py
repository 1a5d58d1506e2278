import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rsnsim.analysis import differential_readout, energy, entropy
from rsnsim.errors import DataError, ParameterError
from rsnsim.solver import SimulationTrace, simulate, sine_waveform

from tests.conftest import linear_topology

# hand-derived: Gram [[2,1],[1,2]] has eigenvalues {3, 1}
GRAM_ENTROPY = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))


def make_trace(v, i, dt=1e-3):
    v = np.asarray(v, dtype=float)
    i = np.asarray(i, dtype=float)
    return SimulationTrace(times=np.arange(v.size) * dt, dt=dt,
                           interface_voltages=np.zeros((v.size, 0)),
                           source_current=i, applied_voltage=v,
                           switching_events=0)


class TestEntropy:
    def test_identical_columns_zero_entropy(self):
        col = np.sin(np.linspace(0, 7, 100))
        X = np.column_stack([col] * 6)
        res = entropy(X, center=True)
        assert res.entropy_bits == 0.0
        assert not res.degenerate
        assert res.spectrum[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_equal_norm_columns_max_entropy(self):
        # zero-mean orthogonal pair: whole periods of sin and cos
        t = np.arange(200) / 200.0
        X = np.column_stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)])
        for center in (True, False):
            res = entropy(X, center=center)
            assert res.entropy_bits == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_four_signals_uncentered(self):
        X = np.eye(4) * 3.0
        res = entropy(X, center=False)
        assert res.entropy_bits == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(res.spectrum, 0.25)

    def test_gram_matrix_hand_oracle(self):
        # X^T X = [[2, 1], [1, 2]]
        X = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(X.T @ X, [[2, 1], [1, 2]])
        res = entropy(X, center=False)
        assert res.entropy_bits == pytest.approx(GRAM_ENTROPY, abs=1e-9)
        assert res.entropy_bits == pytest.approx(0.8113, abs=1e-4)
        assert np.allclose(res.spectrum, [0.75, 0.25])

    def test_degenerate_all_zero(self):
        res = entropy(np.zeros((10, 4)))
        assert res.degenerate
        assert res.entropy_bits == 0.0

    def test_constant_columns_centered_degenerate(self):
        X = np.ones((10, 3))
        assert entropy(X, center=True).degenerate
        assert not entropy(X, center=False).degenerate

    def test_spectrum_descending_and_normalized(self, rng):
        X = rng.normal(size=(50, 8))
        res = entropy(X)
        assert np.all(np.diff(res.spectrum) <= 0)
        assert res.spectrum.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(res.spectrum >= 0)

    @given(arrays(np.float64, (12, 5), elements=st.floats(-100, 100)))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, X):
        res = entropy(X)
        assert -1e-12 <= res.entropy_bits <= math.log2(5) + 1e-9

    def test_permutation_invariance(self, rng):
        X = rng.normal(size=(40, 6))
        base = entropy(X).entropy_bits
        for _ in range(5):
            perm = rng.permutation(6)
            assert entropy(X[:, perm]).entropy_bits == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize("c", [2.0, -3.5, 1e-3, 1e3])
    def test_scale_invariance(self, c, rng):
        X = rng.normal(size=(30, 5))
        a, b = entropy(X), entropy(c * X)
        assert b.entropy_bits == pytest.approx(a.entropy_bits, abs=1e-9)
        assert np.allclose(a.spectrum, b.spectrum, atol=1e-9)

    def test_duplicated_column_keeps_rank(self, rng):
        X = rng.normal(size=(30, 4))
        base = entropy(X, center=False)
        dup = entropy(np.column_stack([X, X[:, 0]]), center=False)
        assert dup.entropy_bits <= math.log2(5) + 1e-9
        rank = np.count_nonzero(base.spectrum > 0)
        assert np.count_nonzero(dup.spectrum > 0) == rank

    def test_rejects_bad_input(self):
        with pytest.raises(DataError):
            entropy(np.array([[np.nan, 1.0], [0.0, 1.0]]))
        with pytest.raises(DataError):
            entropy(np.zeros((1, 3)))
        with pytest.raises(DataError):
            entropy(np.zeros(7))


class TestEnergy:
    def test_constant_drive_closed_form(self):
        # E = G V^2 T exactly with left-Riemann on a constant integrand
        G, V, dt, n = 0.5, 2.0, 1e-3, 400
        trace = make_trace(np.full(n, V), np.full(n, G * V), dt=dt)
        res = energy(trace)
        assert res.energy_joules == pytest.approx(G * V * V * n * dt, rel=1e-12)
        assert res.mean_power == pytest.approx(G * V * V, rel=1e-12)
        assert res.energy_joules == pytest.approx(res.mean_power * res.duration,
                                                  rel=1e-9)

    def test_sine_whole_periods_closed_form(self):
        G, v, f, dt = 0.3, 2.0, 5.0, 1e-3
        t = np.arange(1000) * dt  # 1 s = 5 whole periods
        vin = v * np.sin(2 * np.pi * f * t)
        res = energy(make_trace(vin, G * vin, dt=dt))
        assert res.energy_joules == pytest.approx(G * v * v * 1.0 / 2.0, rel=0.01)

    def test_quadrature_error_halves_with_dt(self):
        # non-whole-period window: genuine O(dt) boundary error
        G, v, f, T = 0.3, 2.0, 5.0, 0.55
        w = 2 * np.pi * f
        exact = G * v * v * (T / 2.0 - math.sin(2 * w * T) / (4 * w))

        def err(dt):
            t = np.arange(int(round(T / dt))) * dt
            vin = v * np.sin(w * t)
            return abs(energy(make_trace(vin, G * vin, dt=dt)).energy_joules - exact)

        assert err(5e-4) <= 0.5 * err(1e-3) + 1e-15

    def test_zero_trace(self):
        res = energy(make_trace(np.zeros(10), np.zeros(10)))
        assert res.energy_joules == 0.0

    def test_simulated_energy_nonnegative(self):
        from rsnsim.device import default_ranges
        from rsnsim.topology import BetaShape, Grid, generate_network
        t = generate_network(Grid(4, 1), BetaShape(3, 1), 4,
                             default_ranges(), 20240811)
        trace = simulate(t, sine_waveform(4.0), dt=1e-3, duration=0.2)
        assert energy(trace).energy_joules >= 0.0

    def test_mismatched_lengths_rejected(self):
        trace = make_trace(np.ones(10), np.ones(10))
        bad = SimulationTrace(times=trace.times, dt=trace.dt,
                              interface_voltages=trace.interface_voltages,
                              source_current=np.ones(9),
                              applied_voltage=trace.applied_voltage,
                              switching_events=0)
        with pytest.raises(DataError):
            energy(bad)


class TestDifferentialReadout:
    def _trace(self):
        t = linear_topology([(0, 5, 1.0), (5, 15, 1.0), (0, 10, 1.0),
                             (10, 15, 3.0)])
        return simulate(t, sine_waveform(2.0), dt=1e-3, duration=0.1)

    def test_antisymmetry(self):
        tr = self._trace()
        assert np.array_equal(differential_readout(tr, 2, 9),
                              -differential_readout(tr, 9, 2))

    def test_divider_closed_form(self):
        # grid node 5 is interface label 6 (divider at v/2); grid node 10 is
        # label 11 (divider at v/4: conductance 1 above, 3 below)
        tr = self._trace()
        expected = 0.5 * tr.applied_voltage - 0.25 * tr.applied_voltage
        assert np.abs(differential_readout(tr, 6, 11) - expected).max() < 1e-9

    def test_identical_columns_give_zero(self):
        X = np.tile(np.linspace(0, 1, 20)[:, None], (1, 16))
        tr = SimulationTrace(times=np.arange(20) * 1.0, dt=1.0,
                             interface_voltages=X,
                             source_current=np.zeros(20),
                             applied_voltage=np.zeros(20), switching_events=0)
        assert np.all(differential_readout(tr, 2, 9) == 0.0)

    def test_validation(self):
        tr = self._trace()
        with pytest.raises(ParameterError):
            differential_readout(tr, 3, 3)
        with pytest.raises(ParameterError):
            differential_readout(tr, 0, 3)
        with pytest.raises(ParameterError):
            differential_readout(tr, 1, 17)
