"""One table of the input rules.

Each public entry that reads a real number, or an array of them, is called
with each value that the argument's kind rejects, and must raise a ValueError
with the exact message; pytest turns every warning into an error,
so the message comes before any warning.  The kinds are those of the README's
input table: a coupling, the collapse exponent nu, the elliptic modulus k,
the oracle step delta, a peak record's chi_m, and sample arrays.  A value that
a kind accepts (nu = -1.0, a 0-d array inside an array) has no row.  Below
it, a spec or a collection of the wrong type is named with its type.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import tfim_rfs.scaling
from tfim_rfs import (
    ChainSpec,
    CollapseCurve,
    PeakRecord,
    best_collapse_exponent,
    collapse_quality,
    correlators_finite,
    correlators_thermo,
    data_collapse,
    elliptic_e,
    elliptic_k,
    fit_finite_size,
    fit_sq_log_model,
    fit_thermo,
    rfs_oracle,
    susceptibility,
    susceptibility_slope,
    susceptibility_thermo,
)
from tfim_rfs.cli import RunConfig
from shared import field_bits

BAD = {
    "str": "0.5",
    "none": None,
    "complex": 1j,
    "array_0d": np.array(0.5),
    "array_1d": np.array([0.5]),
    "nan": math.nan,
    "inf": math.inf,
    "negative": -1.0,
    "tiny_negative": -1e-300,
}

COUPLING = {
    "str": "lam must be a real number, got '0.5'",
    "none": "lam must be a real number, got None",
    "complex": "lam must be a real number, got 1j",
    "array_0d": "lam must be a real number, got array(0.5)",
    "array_1d": "lam must be a real number, got array([0.5])",
    "nan": "lam must be finite and >= 0, got nan",
    "inf": "lam must be finite and >= 0, got inf",
    "negative": "lam must be finite and >= 0, got -1.0",
    "tiny_negative": "lam must be finite and >= 0, got -1e-300",
}

EXPONENT = {
    "str": "nu must be a real number, got '0.5'",
    "none": "nu must be a real number, got None",
    "complex": "nu must be a real number, got 1j",
    "array_0d": "nu must be a real number, got array(0.5)",
    "array_1d": "nu must be a real number, got array([0.5])",
    "nan": "nu must be finite, got nan",
    "inf": "nu must be finite, got inf",
}

MODULUS_K = {
    "str": "k must be a real number, got '0.5'",
    "none": "k must be a real number, got None",
    "complex": "k must be a real number, got 1j",
    "array_0d": "k must be a real number, got array(0.5)",
    "array_1d": "k must be a real number, got array([0.5])",
    "nan": "elliptic_k requires 0 <= k < 1, got k=nan",
    "inf": "elliptic_k requires 0 <= k < 1, got k=inf",
    "negative": "elliptic_k requires 0 <= k < 1, got k=-1.0",
    "tiny_negative": "elliptic_k requires 0 <= k < 1, got k=-1e-300",
}

MODULUS_E = {
    **MODULUS_K,
    "nan": "elliptic_e requires 0 <= k <= 1, got k=nan",
    "inf": "elliptic_e requires 0 <= k <= 1, got k=inf",
    "negative": "elliptic_e requires 0 <= k <= 1, got k=-1.0",
    "tiny_negative": "elliptic_e requires 0 <= k <= 1, got k=-1e-300",
}

STEP = {
    "str": "delta must be a real number, got '0.5'",
    "none": "delta must be a real number, got None",
    "complex": "delta must be a real number, got 1j",
    "array_0d": "delta must be a real number, got array(0.5)",
    "array_1d": "delta must be a real number, got array([0.5])",
    "nan": "delta must lie in [1e-06, 0.001], got nan",
    "inf": "delta must lie in [1e-06, 0.001], got inf",
    "negative": "delta must lie in [1e-06, 0.001], got -1.0",
    "tiny_negative": "delta must lie in [1e-06, 0.001], got -1e-300",
}

CHI_M = {
    "str": "chi_m must be a real number, got '0.5'",
    "none": "chi_m must be a real number, got None",
    "complex": "chi_m must be a real number, got 1j",
    "array_0d": "chi_m must be a real number, got array(0.5)",
    "array_1d": "chi_m must be a real number, got array([0.5])",
    "nan": "chi_m must be finite and >= 0, got nan at N=512",
    "inf": "chi_m must be finite and >= 0, got inf at N=512",
    "negative": "chi_m must be finite and >= 0, got -1.0 at N=512",
    "tiny_negative": "chi_m must be finite and >= 0, got -1e-300 at N=512",
}

# One element of an array.  A 0-d array there is read by numpy as its number,
# and a 1-d one makes the array ragged (numpy's own ValueError): no rows.
WINDOW_ELEMENT = {key: COUPLING[key] for key in BAD if not key.startswith("array")}


def _element(name, pair):
    return {
        "str": f"{name} must be a real number, got '0.5'",
        "none": f"{name} must be a real number, got None",
        "complex": f"{name} must be a real number, got 1j",
        "nan": f"{pair} and y must be finite",
        "inf": f"{pair} and y must be finite",
    }


# The whole array argument: anything but a 1-d array is named with its shape.
def _whole(shape_message, one_element):
    messages = {key: shape_message for key in BAD}
    messages["array_1d"] = one_element
    return messages


WINDOW = _whole("lam must be 1-d, got shape ()", "need at least 4 couplings")
FIT_X = _whole("x and y must be 1-d of one length, got shapes () and (4,)",
               "x and y must be 1-d of one length, got shapes (1,) and (4,)")
CURVE_W = _whole("w and y must be 1-d of one length, got shapes () and (3,)",
                 "w and y must be 1-d of one length, got shapes (1,) and (3,)")

GOOD_CURVE = ([0.0, 0.5, 1.0], [0.0, 1.0, 2.0])


def _config(**changes):
    fields = dict(command="collapse", sizes=(64, 128, 256), lambda_min=0.8, lambda_max=1.2,
                  steps=3, delta=1e-4, nu=1.0, verify=False, output_format="csv",
                  output_path=None)
    return RunConfig(**{**fields, **changes})


def _curve(w, y):
    return CollapseCurve(samples={64: (w, y), 128: GOOD_CURVE}, nu=1.0)


# entry: (call of the bad value, the messages of its kind)
ENTRIES = {
    "ChainSpec": (lambda v: ChainSpec(64, v), COUPLING),
    "correlators_thermo": (correlators_thermo, COUPLING),
    "susceptibility_thermo": (susceptibility_thermo, COUPLING),
    "susceptibility": (lambda v: susceptibility(64, v), COUPLING),
    "susceptibility_slope": (lambda v: susceptibility_slope(64, v), COUPLING),
    "PeakRecord.lambda_m": (lambda v: PeakRecord(512, v, 2.0), COUPLING),
    "fit_thermo.element": (lambda v: fit_thermo([0.9, 0.99, v, 0.9999]), WINDOW_ELEMENT),
    "fit_thermo.window": (fit_thermo, WINDOW),
    "CollapseCurve.nu": (lambda v: CollapseCurve(samples={64: GOOD_CURVE}, nu=v), EXPONENT),
    "data_collapse.nu": (lambda v: data_collapse([64, 128], nu=v), EXPONENT),
    "RunConfig.nu": (lambda v: _config(nu=v), EXPONENT),
    "elliptic_k": (elliptic_k, MODULUS_K),
    "elliptic_e": (elliptic_e, MODULUS_E),
    "rfs_oracle.delta": (lambda v: rfs_oracle(ChainSpec(64, 0.5), v), STEP),
    "RunConfig.delta": (lambda v: _config(delta=v), STEP),
    "PeakRecord.chi_m": (lambda v: PeakRecord(512, 0.99, v), CHI_M),
    "fit_sq_log_model.x_element": (
        lambda v: fit_sq_log_model([1.0, 2.0, v, 4.0, 5.0], [1.0, 4.0, 9.0, 16.0, 25.0]),
        _element("x", "x")),
    "fit_sq_log_model.y_element": (
        lambda v: fit_sq_log_model([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 4.0, v, 16.0, 25.0]),
        _element("y", "x")),
    "fit_sq_log_model.x": (lambda v: fit_sq_log_model(v, [1.0, 4.0, 9.0, 16.0]), FIT_X),
    "CollapseCurve.w_element": (lambda v: _curve([v, 0.5, 1.0], [0.0, 1.0, 2.0]), _element("w", "w")),
    "CollapseCurve.y_element": (lambda v: _curve([0.0, 0.5, 1.0], [v, 1.0, 2.0]), _element("y", "w")),
    "CollapseCurve.w": (lambda v: _curve(v, [0.0, 1.0, 2.0]), CURVE_W),
}

ROWS = [(entry, key) for entry, (_, kind) in ENTRIES.items() for key in kind]


@pytest.mark.parametrize("entry,key", ROWS, ids=[f"{entry}-{key}" for entry, key in ROWS])
def test_bad_value_raises_its_kinds_message(entry, key):
    call, messages = ENTRIES[entry]
    with pytest.raises(ValueError) as info:
        call(BAD[key])
    assert str(info.value) == messages[key]


@pytest.mark.parametrize("entry,message", [
    (fit_thermo, "lam must be 1-d, got shape (2, 2)"),
    (lambda v: fit_sq_log_model(v, [1.0, 2.0, 3.0, 4.0]),
     "x and y must be 1-d of one length, got shapes (2, 2) and (4,)"),
], ids=["fit_thermo", "fit_sq_log_model"])
def test_two_d_array_is_named_with_its_shape(entry, message):
    with pytest.raises(ValueError) as info:
        entry(np.linspace(0.9, 0.99, 4).reshape(2, 2))
    assert str(info.value) == message


# Real numbers of other types, each a valid value of its kind.
REALS = {
    "int": (2, 0, 2, 2),
    "float64": (np.float64(0.7), np.float64(0.7), np.float64(1.3), np.float64(2.5)),
    "float32": (np.float32(0.7), np.float32(0.7), np.float32(1.3), np.float32(2.5)),
    "fraction": (Fraction(7, 10), Fraction(7, 10), Fraction(13, 10), Fraction(5, 2)),
}


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("lam,k,nu,chi_m", REALS.values(), ids=REALS)
def test_real_number_gives_the_bits_of_its_float(lam, k, nu, chi_m):
    # Every reader converts by float() once, so no float32 arithmetic and no
    # numpy scalar is left downstream.
    assert ChainSpec(64, lam).lam.hex() == float(lam).hex()
    for entry in (lambda v: correlators_finite(ChainSpec(64, v)), correlators_thermo):
        assert field_bits(entry(lam)) == field_bits(entry(float(lam)))
    for entry in (susceptibility, susceptibility_slope):
        assert entry(64, lam).hex() == entry(64, float(lam)).hex()
    assert susceptibility_thermo(lam).hex() == susceptibility_thermo(float(lam)).hex()
    for entry in (elliptic_k, elliptic_e):
        elliptic_k(0.5)  # another modulus empties the one-entry cache
        value = entry(k)
        elliptic_k(0.5)
        assert type(value) is float and value.hex() == entry(float(k)).hex()
    samples = {64: ([-1.0, 0.0, 1.0], [0.0, 1.0, 4.0]), 128: ([-1.0, 0.0, 1.0], [0.0, 1.5, 4.0])}
    curve = CollapseCurve(samples=samples, nu=nu)
    assert type(curve.nu) is float and curve.nu.hex() == float(nu).hex()
    assert collapse_quality(curve).hex() == \
        collapse_quality(CollapseCurve(samples=samples, nu=float(nu))).hex()
    record = PeakRecord(np.int64(512), lam, chi_m)
    assert [type(v) for v in vars(record).values()] == [int, float, float]
    assert _hex(vars(record).values()) == _hex([512, lam, chi_m])


@pytest.mark.parametrize("delta", [np.float64(1e-4), np.float32(1e-4), Fraction(1, 10000)],
                         ids=["float64", "float32", "fraction"])
def test_step_gives_the_bits_of_its_float(delta):
    spec = ChainSpec(64, 0.5)
    assert rfs_oracle(spec, delta).chi.hex() == rfs_oracle(spec, float(delta)).chi.hex()


@pytest.mark.parametrize("convert", [
    lambda xs: np.array(xs, dtype=np.float32),
    lambda xs: [Fraction(x).limit_denominator(10 ** 12) for x in xs],
    lambda xs: np.array(xs, dtype=object),
    lambda xs: (x for x in xs),
], ids=["float32", "fractions", "object", "generator"])
def test_array_of_reals_gives_the_bits_of_its_floats(convert):
    window = [1.0 - 10.0 ** -e for e in (2.0, 2.5, 3.0, 3.5, 4.0)]
    given = convert(window)
    floats = [float(x) for x in convert(window)]
    got, expected = fit_thermo(given), fit_thermo(floats)
    assert _hex([got.slope, got.intercept]) == _hex([expected.slope, expected.intercept])
    x, y = [1, 2, 3, 4, 5], [1.0, 4.5, 9.0, 16.5, 25.0]
    assert _hex(fit_sq_log_model(x, y)) == _hex(fit_sq_log_model([float(v) for v in x], y))


class TestPeakRecordsReadFirst:
    """A peak record is read whole when it is made, so before it is sorted or
    sampled: the size by ChainSpec, lambda_m by the coupling rule, chi_m as a
    real number."""

    def test_size_read_before_the_sort(self):
        # Used to raise TypeError: '<' not supported between 'int' and 'str'.
        with pytest.raises(ValueError) as info:
            fit_finite_size([PeakRecord("64", 0.99, 1.0), PeakRecord(128, 0.99, 2.0)])
        assert str(info.value) == "n_sites must be an integer, got '64'"

    def test_collapse_peaks_must_hold_records(self):
        # Used to raise AttributeError: 'str' object has no attribute 'n_sites'.
        with pytest.raises(ValueError) as info:
            data_collapse([64, 128], peaks={64: "x", 128: "y"})
        assert str(info.value) == "peaks must hold PeakRecords, got str"


def test_collapse_reads_nu_before_any_peak_search(monkeypatch):
    # nu=None used to sample both sizes and then raise a bare TypeError.
    def no_search(n_sites):
        raise AssertionError(f"peak searched at N={n_sites}")

    monkeypatch.setattr(tfim_rfs.scaling, "find_peak", no_search)
    for nu in (None, "1.5", math.nan):
        with pytest.raises(ValueError, match="^nu must be"):
            data_collapse([64, 128], nu=nu)


# A spec, or a collection, of the wrong type: named with its type before any
# of it is used.  Each used to raise a bare AttributeError or TypeError.
@pytest.mark.parametrize("call,message", [
    (lambda: correlators_finite((64, 0.5)), "spec must be a ChainSpec, got (64, 0.5)"),
    (lambda: rfs_oracle((64, 0.5)), "spec must be a ChainSpec, got (64, 0.5)"),
    (lambda: rfs_oracle([64, 0.5], "1e-4"), "spec must be a ChainSpec, got [64, 0.5]"),
    (lambda: fit_finite_size(None), "peaks must be an iterable of PeakRecord, got NoneType"),
    (lambda: data_collapse(None), "sizes must be an iterable of int, got NoneType"),
    (lambda: best_collapse_exponent(64), "sizes must be an iterable of int, got int"),
    (lambda: CollapseCurve([(1, 2)], 1.0), "samples must be a mapping n_sites -> (w, y), got list"),
    (lambda: CollapseCurve(None, 1.0),
     "samples must be a mapping n_sites -> (w, y), got NoneType"),
], ids=["correlators_finite-tuple", "rfs_oracle-tuple", "rfs_oracle-list-first",
        "fit_finite_size-none", "data_collapse-none", "best_collapse_exponent-int",
        "CollapseCurve-list", "CollapseCurve-none"])
def test_wrong_type_is_named(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_spec_is_read_in_the_memoized_body():
    # A hashable non-spec misses the memo and is rejected there, and is not
    # stored; an unhashable one gets the memo's own TypeError.
    before = correlators_finite.cache_info()
    with pytest.raises(ValueError, match="^spec must be a ChainSpec"):
        correlators_finite((64, 0.5))
    after = correlators_finite.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 1, before.currsize)
    with pytest.raises(TypeError, match="unhashable type"):
        correlators_finite([64, 0.5])
