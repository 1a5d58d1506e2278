import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsnsim.device import (_PARAM_KEYS, DEFAULT_PARAMS, V_LIMIT_SWITCH,
                           ParamRanges, advance_state_batch, check_params,
                           conductance_batch, default_ranges,
                           hysteresis_batch, sample_device_params)
from rsnsim.errors import ParameterError
from rsnsim.topology import NetworkTopology

from tests.conftest import linear_topology
from tests.oracles import (clipped_advance, guarded_conductance,
                           nested_where_hysteresis)

TAU = _PARAM_KEYS.index("tau")


def params(**over):
    """One device's parameters by name, checked as a parameter row."""
    p = {"epsilon": 1e-4, "theta": 4.0, "gamma": 4e-4, "delta": 2.0,
         "lambda": 1.0, "eta": 4.0, "tau": 0.2, "th_low": 0.4, "th_high": 0.6,
         "g_floor": 1e-12, **over}
    check_params([p[k] for k in _PARAM_KEYS])
    return p


def ranges(**over):
    """ParamRanges with every parameter fixed at DEFAULT_PARAMS, except the
    (lo, hi) pairs in ``over``."""
    pairs = {k: (x, x) for k, x in DEFAULT_PARAMS.items()}
    pairs.update(over)
    return ParamRanges(np.array([pairs[k] for k in _PARAM_KEYS]).T)


def conductance(w, V, p):
    """Conductance of one device in binary state ``w`` at bias ``V``."""
    return float(conductance_batch(w, V, p["epsilon"], p["theta"], p["gamma"],
                                   p["delta"], p["g_floor"]))


def advance(w_prime, V, dt, p, decay_mode="state_dependent"):
    """One Euler step of one device's internal state."""
    return float(advance_state_batch(w_prime, V, dt, p["lambda"], p["eta"],
                                     p["tau"], decay_mode=decay_mode))


def threshold(w_prime, w, p):
    """One device's binary state after hysteresis."""
    return int(hysteresis_batch(w_prime, w, p["th_low"], p["th_high"]))


def one_device_doc(row):
    """A one-device topology document whose device has parameter row ``row``."""
    t = linear_topology([(0, 15, 1.0)])
    t.params = np.array([row], dtype=float)
    return t.to_dict()


def load_with_state(w_prime, w):
    """Load a one-device topology document whose device has this state."""
    doc = linear_topology([(0, 15, 1.0)]).to_dict()
    doc["edges"][0]["state"] = {"w_prime": w_prime, "w": w}
    return NetworkTopology.from_dict(doc)


class TestConductance:
    def test_on_branch_zero_bias_limit(self):
        p = params(gamma=1.0, delta=1.0)
        assert conductance(1, 0.0, p) == pytest.approx(1.0, abs=1e-15)

    def test_off_branch_zero_bias_limit(self):
        p = params(epsilon=1.0, theta=1.0)
        assert conductance(0, 0.0, p) == pytest.approx(1.0, abs=1e-15)

    def test_on_branch_at_one_volt(self):
        # direct numerical evaluation: sinh(1)/1
        p = params(gamma=1.0, delta=1.0)
        assert conductance(1, 1.0, p) == pytest.approx(math.sinh(1.0), rel=1e-12)

    def test_off_branch_at_one_volt(self):
        p = params(epsilon=1.0, theta=1.0)
        assert conductance(0, 1.0, p) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_limit_continuity_at_1e8_volts(self):
        p = params()
        for w, limit in ((0, p["epsilon"] * p["theta"]), (1, p["gamma"] * p["delta"])):
            for sign in (1.0, -1.0):
                g = conductance(w, sign * 1e-8, p)
                assert abs(g - limit) / limit < 1e-9

    def test_floor_applies(self):
        p = params(epsilon=1e-20, gamma=1e-20, g_floor=1e-9)
        assert conductance(0, 0.5, p) == 1e-9
        assert conductance(1, 0.5, p) == 1e-9

    def test_rejects_bad_w(self):
        # the binary state enters the program through the topology loader
        with pytest.raises(ParameterError):
            load_with_state(0.0, 2)
        with pytest.raises(ParameterError):
            load_with_state(0.0, -1)

    @given(v=st.floats(-10, 10, allow_nan=False),
           w=st.sampled_from([0, 1]))
    @settings(max_examples=60, deadline=None)
    def test_current_antisymmetric(self, v, w):
        p = params()
        # current is G(w, V) * V
        assert conductance(w, -v, p) * -v == -(conductance(w, v, p) * v)

    def test_batch_matches_scalar(self, rng):
        p = params()
        vs = rng.uniform(-8, 8, size=40)
        ws = rng.integers(0, 2, size=40)
        batch = conductance_batch(ws, vs, p["epsilon"], p["theta"], p["gamma"],
                                  p["delta"], p["g_floor"])
        for i in range(40):
            assert batch[i] == conductance(int(ws[i]), float(vs[i]), p)


class TestConductanceGuard:
    SPECIAL = [0.0, -0.0, V_LIMIT_SWITCH, -V_LIMIT_SWITCH,
               np.nextafter(V_LIMIT_SWITCH, np.inf),
               -np.nextafter(V_LIMIT_SWITCH, np.inf), 1.5e-8, 1.0, -3.0, 350.0,
               1e6, np.nan, np.inf, -np.inf]

    def check(self, w, V, p):
        args = [p[:, _PARAM_KEYS.index(k)]
                for k in ("epsilon", "theta", "gamma", "delta", "g_floor")]
        with np.errstate(invalid="ignore"):
            got = conductance_batch(w, V, *args)
            want = guarded_conductance(w, V, *args)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_bit_equal_to_guarded_formula(self, rng):
        r = default_ranges()
        n = 400
        p = sample_device_params(r, rng, n)
        w = rng.integers(0, 2, n)
        # every special bias alone (the unguarded path where |V| > limit),
        # then mixed with ordinary biases (the guarded path)
        for v in self.SPECIAL:
            self.check(w[:1], np.array([v]), p[:1])
            self.check(w[:3], np.array([v, 0.5, -2.0]), p[:3])
        self.check(w, rng.choice(self.SPECIAL, n), p)
        self.check(w, rng.uniform(-8.0, 8.0, n), p)
        self.check(w, rng.uniform(1e-8, 2e-8, n) * rng.choice([-1, 1], n), p)
        self.check(w[:0], np.zeros(0), p[:0])

    def test_scalar_bias(self):
        p = np.array([list(DEFAULT_PARAMS.values())])
        for v in self.SPECIAL:
            for w in (0, 1):
                self.check(w, v, p)


class TestInternalState:
    def test_zero_bias_fixed_point_at_zero(self):
        assert advance(0.0, 0.0, 0.01, params()) == 0.0

    def test_zero_bias_fixed_point_at_one(self):
        assert advance(1.0, 0.0, 0.01, params()) == 1.0

    def test_single_euler_step_hand_value(self):
        # 0.5 - 0.1 * (0.5/1.0) * (1 - 0.5) = 0.475
        assert advance(0.5, 0.0, 0.1, params(tau=1.0)) == pytest.approx(0.475, abs=1e-15)

    def test_plain_decay_mode(self):
        # 0.5 - 0.1 * 0.5/1.0 = 0.45
        out = advance(0.5, 0.0, 0.1, params(tau=1.0), decay_mode="plain")
        assert out == pytest.approx(0.45, abs=1e-15)

    def test_w_untouched(self):
        # the advance kernel moves only w_prime; w changes through hysteresis
        p = params()
        assert threshold(advance(0.9, 1.0, 0.01, p), 1, p) == 1

    def test_clamp_matches_nan_to_num_clip(self):
        # the kernel's fmin/fmax clamp must give the same bits as a
        # nan_to_num + clip clamp on every input
        rng = np.random.default_rng(3)
        n = 4000
        special = [0.0, -0.0, 1.0, 0.5, np.nan, np.inf, -np.inf, 1e308, -1e308]
        w_prime = np.concatenate([rng.uniform(-0.5, 1.5, n), special * 40])
        size = w_prime.size
        V = rng.choice([0.0, -0.0, 1e-9, 0.3, -2.0, 8.0, 300.0, 1e6], size)
        lam = rng.choice([0.0, 1.0, 1e300], size)
        eta = rng.uniform(0.5, 6.0, size)
        tau = rng.choice([1e-300, 0.2, 5.0], size)
        for dt in (1e-3, 1.0, 1e300):
            for mode in ("state_dependent", "plain"):
                with np.errstate(invalid="ignore"):
                    got = advance_state_batch(w_prime, V, dt, lam, eta, tau,
                                              decay_mode=mode)
                want = clipped_advance(w_prime, V, dt, lam, eta, tau, mode)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ParameterError):
            advance(0.0, 0.0, 0.0, params())

    def test_rejects_unknown_decay_mode(self):
        with pytest.raises(ParameterError):
            advance(0.0, 0.0, 0.01, params(), decay_mode="x")

    @given(wp=st.floats(0.01, 0.99), dt=st.floats(1e-3, 1.0),
           tau=st.floats(0.05, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_zero_bias_monotone_decay(self, wp, dt, tau):
        assert advance(wp, 0.0, dt, params(tau=tau)) < wp

    @given(wp=st.floats(0, 1), v=st.floats(-50, 50, allow_nan=False),
           dt=st.floats(1e-4, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_state_stays_clamped(self, wp, v, dt):
        assert 0.0 <= advance(wp, v, dt, params()) <= 1.0

    def test_growth_uses_bias_magnitude(self):
        # no device polarity: both half-cycles pump the state
        up = advance(0.2, 1.0, 0.01, params())
        dn = advance(0.2, -1.0, 0.01, params())
        assert up == dn > 0.2

    def test_extreme_bias_saturates(self):
        assert advance(0.0, 300.0, 1.0, params()) == 1.0

    def test_frozen_device_stays_frozen_under_extreme_bias(self):
        # lam = 0 must win against any sinh magnitude
        assert advance(0.3, 500.0, 1.0, params(**{"lambda": 0.0})) < 0.3


class TestHysteresis:
    def test_above_high_switches_on(self):
        assert threshold(0.7, 0, params(th_high=0.6)) == 1

    def test_below_low_switches_off(self):
        assert threshold(0.3, 1, params(th_low=0.4)) == 0

    def test_dead_band_retains(self):
        p = params(th_low=0.4, th_high=0.6)
        assert threshold(0.5, 1, p) == 1
        assert threshold(0.5, 0, p) == 0

    def test_full_loop_has_exactly_two_transitions(self):
        p = params()
        ramp = np.concatenate([np.linspace(0, 1, 201), np.linspace(1, 0, 201)])
        w, ups, downs = 0, [], []
        for wp in ramp:
            new_w = threshold(float(wp), w, p)
            if new_w != w:
                (ups if new_w == 1 else downs).append(float(wp))
            w = new_w
        assert len(ups) == 1 and len(downs) == 1
        assert ups[0] >= p["th_high"] and downs[0] <= p["th_low"]


class TestHysteresisReference:
    def test_equals_nested_where(self, rng):
        n = 500
        low = rng.uniform(0.1, 0.45, n)
        high = low + rng.uniform(0.01, 0.4, n)
        w_prime = np.concatenate([rng.uniform(0.0, 1.0, n - 100), low[:40],
                                  high[:40], [np.nan] * 20])
        for dtype in (np.int64, np.int8, np.uint8, bool, float):
            w = rng.integers(0, 2, n).astype(dtype)
            got = hysteresis_batch(w_prime, w, low, high)
            want = nested_where_hysteresis(w_prime, w, low, high)
            assert got.dtype == want.dtype == w.dtype
            assert np.array_equal(got, want)
            assert not np.shares_memory(got, w)

    def test_list_inputs(self):
        w_prime = [0.1, 0.5, 0.9, 0.4, 0.6, 0.5]
        w = [1, 1, 0, 1, 0, 0]
        low, high = np.full(6, 0.4), np.full(6, 0.6)
        got = hysteresis_batch(w_prime, w, low, high)
        want = nested_where_hysteresis(np.array(w_prime), w, low, high)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.tolist() == [0, 1, 1, 0, 1, 0]


class TestSamplingReference:
    @pytest.mark.parametrize("r", [
        default_ranges(),
        ranges(tau=(0.5, 1.5), epsilon=(1e-6, 1e-3), th_low=(0.1, 0.3),
               th_high=(0.7, 0.95)),
        ranges(),  # every range zero-width
    ], ids=["default", "custom", "zero-width"])
    def test_equals_rng_uniform(self, r):
        for seed in range(20):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for k in range(10):
                row = sample_device_params(r, ours)
                assert row.shape == (10,)
                assert np.array_equal(row, ref.uniform(*r.bounds))
                # other draws in between, as generation makes them
                assert ours.integers(49) == ref.integers(49)
                assert ours.beta(2.0, 5.0) == ref.beta(2.0, 5.0)
                rows = sample_device_params(r, ours, k)
                assert rows.shape == (k, 10)
                want = [ref.uniform(*r.bounds) for _ in range(k)]
                assert np.array_equal(rows, np.reshape(want, (k, 10)))
            assert ours.bit_generator.state == ref.bit_generator.state


class TestSampling:
    def test_degenerate_ranges_exact(self, rng):
        r = ParamRanges([[1e-4, 4.0, 4e-4, 2.0, 1.0, 4.0, 0.2, 0.4, 0.6, 1e-9]] * 2)
        row = sample_device_params(r, rng)
        assert row.tolist() == list(DEFAULT_PARAMS.values())

    def test_default_bounds_pinned(self):
        # the sampling bounds, bit for bit: moving one moves every draw
        b = default_ranges().bounds
        assert b.shape == (2, 10)
        assert b.tolist() == [
            [5e-05, 2.0, 0.0002, 1.0, 0.5, 2.0, 0.1, 0.4, 0.6, 1e-09],
            [0.00015000000000000001, 6.0, 0.0006000000000000001, 3.0, 1.5, 6.0,
             0.30000000000000004, 0.4, 0.6, 1e-09]]

    def test_uniform_mean(self):
        r = default_ranges()  # tau range is [0.1, 0.3]
        rng = np.random.default_rng(5)
        taus = [sample_device_params(r, rng)[TAU] for _ in range(10_000)]
        assert abs(np.mean(taus) - 0.2) < 0.004  # 0.02 scaled to the range width

    def test_uniform_mean_explicit_interval(self):
        bounds = default_ranges().bounds.copy()
        bounds[:, TAU] = (0.5, 1.5)
        r = ParamRanges(bounds)
        rng = np.random.default_rng(6)
        taus = [sample_device_params(r, rng)[TAU] for _ in range(10_000)]
        assert abs(np.mean(taus) - 1.0) < 0.02

    def test_same_seed_same_sequence(self):
        r = default_ranges()
        a = [sample_device_params(r, np.random.default_rng(9)) for _ in range(5)]
        b = [sample_device_params(r, np.random.default_rng(9)) for _ in range(5)]
        assert np.array_equal(a, b)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ParameterError):
            ranges(epsilon=(2.0, 1.0))

    def test_rejects_overlapping_threshold_ranges(self):
        with pytest.raises(ParameterError):
            ranges(th_low=(0.3, 0.55), th_high=(0.5, 0.7))


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("tau", 0.0), ("tau", -1.0), pytest.param("lambda", -0.1, id="lam--0.1"),
        ("eta", 0.0),
        ("epsilon", 0.0), ("gamma", -1e-4), ("theta", 0.0), ("delta", 0.0),
        ("g_floor", 0.0), ("th_low", 0.0), ("th_high", 1.0),
    ])
    def test_invalid_params_rejected(self, field, value):
        with pytest.raises(ParameterError):
            params(**{field: value})

    def test_threshold_order_enforced(self):
        with pytest.raises(ParameterError):
            params(th_low=0.6, th_high=0.4)

    def test_state_bounds(self):
        # device states enter the program through the topology loader
        assert load_with_state(0.5, 1).w_prime.tolist() == [0.5]
        with pytest.raises(ParameterError):
            load_with_state(1.5, 0)
        with pytest.raises(ParameterError):
            load_with_state(0.0, 2)

    def test_params_roundtrip(self):
        # parameter rows are written and read as {key: value} documents
        doc = one_device_doc(list(DEFAULT_PARAMS.values()))
        d = doc["edges"][0]["params"]
        assert d["lambda"] == 1.0
        back = NetworkTopology.from_dict(doc).params
        assert back.tolist() == [list(DEFAULT_PARAMS.values())]

    def test_params_dict_rejects_unknown_key(self):
        doc = one_device_doc(list(DEFAULT_PARAMS.values()))
        doc["edges"][0]["params"]["zeta"] = 1.0
        with pytest.raises(ParameterError):
            NetworkTopology.from_dict(doc)

    def test_ranges_roundtrip(self):
        r = default_ranges()
        assert ParamRanges.from_dict(r.to_dict()) == r
        # a SweepConfig field: workers unpickle it, and the frozen config hashes it
        assert pickle.loads(pickle.dumps(r)) == r
        assert hash(r) == hash(default_ranges())


def test_advance_state_batch_vectorizes(rng):
    p = params()
    wp = rng.uniform(0, 1, size=30)
    vs = rng.uniform(-4, 4, size=30)
    batch = advance_state_batch(wp, vs, 1e-3, p["lambda"], p["eta"], p["tau"])
    for i in range(30):
        assert batch[i] == advance(float(wp[i]), float(vs[i]), 1e-3, p)
