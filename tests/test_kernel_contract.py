"""The device kernels' calling contract, fuzzed against tests/oracles.py.

Every kernel is called on scalar, 0-d, list, (1,)-shaped, 2-D, empty,
float32 and int inputs, with NaN and +-inf among the values, and with the
arguments in mixed forms that numpy broadcasts.  For each call the result
must have the reference's bits, dtype, shape and type (a numpy scalar where
the reference returns one), must share no memory with any input, and must
raise no overflow warning.
"""

import warnings

import numpy as np
import pytest

from rsnsim.device import (advance_state_batch, conductance_batch,
                           hysteresis_batch)

from tests.oracles import (clipped_advance, guarded_conductance,
                           nested_where_hysteresis)

E = 5
ALL = ("array", "list", "one", "scalar", "0d", "npscalar", "f32", "2d")


def forms(x, kinds=ALL):
    """``x``, a float64 (E,) array, in each of the forms named in ``kinds``;
    the first is the form an argument takes when another one varies."""
    def f32():
        with np.errstate(over="ignore"):  # 1e300 becomes inf
            return x.astype(np.float32)
    make = {
        "array": lambda: x.copy(),
        "list": lambda: x.tolist(),
        "one": lambda: x[:1].copy(),
        "scalar": lambda: float(x[0]),
        "0d": lambda: np.array(x[0]),
        "npscalar": lambda: np.float64(x[0]),
        "f32": f32,
        "2d": lambda: np.stack([x, x[::-1]]),
    }
    return {k: make[k]() for k in kinds}


def with_specials(x, rng):
    """``x`` with two entries set to NaN or +-inf."""
    x = x.copy()
    x[rng.choice(E, 2, replace=False)] = rng.choice([np.nan, np.inf, -np.inf], 2)
    return x


def combos(rng, arg_forms, n_random=200):
    """Each argument alone in each of its forms (the others in their first
    form), every argument in its scalar form, then random mixes."""
    first = {n: next(iter(f.values())) for n, f in arg_forms.items()}
    for n, f in arg_forms.items():
        for x in f.values():
            yield {**first, n: x}
    yield {n: f.get("scalar", first[n]) for n, f in arg_forms.items()}
    for _ in range(n_random):
        yield {n: f[rng.choice(list(f))] for n, f in arg_forms.items()}


def check(kernel, oracle, args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the call
        with np.errstate(invalid="ignore", divide="ignore"):
            got = kernel(*args, **kwargs)
    # the reference is given a list as its array
    ref_args = [np.asarray(x) if isinstance(x, list) else x for x in args]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        want = oracle(*ref_args, *kwargs.values())
    where = f"{kernel.__name__}{tuple(type(a).__name__ for a in args)}"
    assert type(got) is type(want), where
    assert got.dtype == want.dtype and got.shape == want.shape, where
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), where
    for x in args:
        assert not np.shares_memory(got, x), where


def cases(rng, make_forms):
    """Ordinary draws, then draws with NaN and +-inf, each in every mix."""
    for specials in [False] * 6 + [True] * 6:
        yield from combos(rng, make_forms(rng, specials))


def bias(rng):
    return rng.choice([0.0, -0.0, 1e-9, -2e-8, 0.3, -1.5, 4.0, -8.0, 350.0], E)


def conductance_forms(rng, specials):
    vals = {"w": rng.integers(0, 2, E).astype(float), "V": bias(rng),
            "epsilon": rng.uniform(0.5e-4, 2e-4, E),
            "theta": rng.uniform(1.0, 6.0, E),
            "gamma": rng.uniform(1e-4, 8e-4, E),
            "delta": rng.uniform(0.5, 4.0, E),
            "g_floor": rng.choice([1e-12, 1e-9, 0.0], E)}
    out = {n: forms(with_specials(x, rng) if specials and n != "w" else x)
           for n, x in vals.items()}
    out["w"]["int"] = vals["w"].astype(int)
    out["V"]["int"] = np.rint(bias(rng)).astype(int)
    out["theta"]["int"] = rng.integers(1, 7, E)
    return out


def advance_forms(rng, specials):
    vals = {"w_prime": rng.choice([0.0, 0.2, 0.5, 0.95, 1.0, 1.3, -0.2], E),
            "V": bias(rng) * rng.choice([1.0, 1e300], E),
            "lam": rng.choice([0.0, 1.0, 3.0, 1e300], E),
            "eta": rng.uniform(0.5, 6.0, E),
            "tau": rng.choice([1e-300, 0.2, 5.0], E)}
    out = {n: forms(with_specials(x, rng) if specials else x)
           for n, x in vals.items()}
    # float32 has no 1e-300: its tau stays a positive normal number
    out["tau"]["f32"] = np.maximum(vals["tau"], 1e-30).astype(np.float32)
    # lists of w_prime and tau are checked by test_device's TestInternalState
    del out["w_prime"]["list"], out["tau"]["list"]
    out["w_prime"]["int"] = rng.integers(0, 2, E)
    out["V"]["int"] = rng.integers(-8, 9, E)
    out["tau"]["int"] = rng.integers(1, 4, E)
    dt = {"float": 1e-3, "big": 1e300, "0d": np.array(0.5),
          "one": np.array([0.01]), "f32": np.float32(1e-2), "int": 1}
    return {"w_prime": out["w_prime"], "V": out["V"], "dt": dt,
            **{n: out[n] for n in ("lam", "eta", "tau")}}


def hysteresis_forms(rng, specials):
    low = rng.uniform(0.1, 0.45, E)
    high = low + rng.uniform(0.01, 0.4, E)
    w_prime = np.concatenate([low[:2], high[2:4], rng.uniform(0, 1, E - 4)])
    w = rng.integers(0, 2, E).astype(float)
    out = {"w_prime": forms(with_specials(w_prime, rng) if specials else w_prime),
           "w": forms(w), "th_low": forms(low), "th_high": forms(high)}
    out["w"].update(int=w.astype(int), int8=w.astype(np.int8), bool=w.astype(bool))
    return out


def test_conductance_contract():
    rng = np.random.default_rng(20)
    calls = 0
    for args in cases(rng, conductance_forms):
        check(conductance_batch, guarded_conductance, list(args.values()))
        calls += 1
    # empty inputs, against scalar and (1,) parameters
    for p in (0.5, [0.5], np.ones(0), np.ones(1)):
        check(conductance_batch, guarded_conductance,
              [np.zeros(0, dtype=int), np.zeros(0), p, 4.0, p, 2.0, np.zeros(0)])
    assert calls > 2000


@pytest.mark.parametrize("mode", ["state_dependent", "plain"])
def test_advance_contract(mode):
    rng = np.random.default_rng(21)
    calls = 0
    for args in cases(rng, advance_forms):
        check(advance_state_batch, clipped_advance, list(args.values()),
              decay_mode=mode)
        calls += 1
    for p in (0.5, [0.5], np.ones(0), np.ones(1)):
        check(advance_state_batch, clipped_advance,
              [np.zeros(0), np.zeros(0), 1e-3, p, 4.0, p], decay_mode=mode)
    assert calls > 2000


def test_hysteresis_contract():
    rng = np.random.default_rng(22)
    calls = 0
    for args in cases(rng, hysteresis_forms):
        # the result is shaped like w, so w must be the widest input
        if np.broadcast_shapes(*map(np.shape, args.values())) != np.shape(args["w"]):
            continue
        check(hysteresis_batch, nested_where_hysteresis, list(args.values()))
        calls += 1
    check(hysteresis_batch, nested_where_hysteresis,
          [np.zeros(0), np.zeros(0, dtype=int), 0.4, [0.6]])
    assert calls > 1000
