import dataclasses
import inspect
import math
import pickle
import re

import numpy as np
import pytest

from tfim_rfs import (
    ChainSpec,
    ConsistencyError,
    CorrelatorSet,
    RfsValue,
    SingularBlockError,
    TwoSiteRdm,
    build_rdm,
    correlators_finite,
    correlators_thermo,
    rfs_closed_form,
    susceptibility_thermo,
)
from shared import rdm_at


def block_eigenvalues(rho):
    """The four eigenvalues of the RDM: w +- z+ and those of [[u+, z-], [z-, u-]]."""
    mean = (rho.u_plus + rho.u_minus) / 2
    radius = math.hypot((rho.u_plus - rho.u_minus) / 2, rho.z_minus)
    return np.array([rho.w + rho.z_plus, rho.w - rho.z_plus, mean + radius, mean - radius])


class TestBuildRdm:
    def test_zero_coupling_product_state(self):
        rho = rdm_at(1024, 0.0)
        assert rho.u_plus == pytest.approx(1.0, abs=1e-14)
        assert rho.u_minus == pytest.approx(0.0, abs=1e-14)
        assert rho.w == pytest.approx(0.0, abs=1e-14)
        assert rho.z_plus == pytest.approx(0.0, abs=1e-14)
        assert rho.z_minus == pytest.approx(0.0, abs=1e-14)
        with pytest.raises(SingularBlockError):
            rfs_closed_form(rho)

    def test_critical_elements(self):
        rho = rdm_at(2 ** 14, 1.0)
        u_plus_ref = (1 + 4 / math.pi + 16 / (3 * math.pi ** 2)) / 4
        assert rho.u_plus == pytest.approx(u_plus_ref, abs=1e-6)
        assert rho.z_minus == pytest.approx(2 / (3 * math.pi), abs=1e-6)

    def test_critical_z_minus_derivative(self):
        rho = rdm_at(2 ** 14, 1.0)
        assert rho.d_z_minus == pytest.approx(1 / (3 * math.pi), abs=1e-3)

    @pytest.mark.parametrize("lam", [0.2, 0.7, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n", [64, 1024])
    def test_traces(self, lam, n):
        rho = rdm_at(n, lam)
        assert abs(rho.u_plus + rho.u_minus + 2 * rho.w - 1.0) <= 1e-14
        assert abs(rho.d_u_plus + rho.d_u_minus + 2 * rho.d_w) <= 1e-12

    @pytest.mark.parametrize("lam", np.linspace(0.2, 2.0, 13))
    def test_positive_spectrum(self, lam):
        rho = rdm_at(64, float(lam))
        assert block_eigenvalues(rho).min() >= 1e-6
        assert rfs_closed_form(rho).chi > 0.0

    def test_positivity_violation_rejected(self):
        # magnitudes are legal but u_minus = (1 - 2 sz + zz)/4 goes negative
        bad = CorrelatorSet(0.9, 0.9, 0.9, 0.0, 0, 0, 0, 0)
        with pytest.raises(ConsistencyError):
            build_rdm(bad)

    def test_divergent_derivatives_rejected(self):
        message = "correlator derivatives are not finite: (d_sz, d_xx, d_yy, d_zz) = "
        with pytest.raises(ValueError, match=re.escape(message + "(-inf, inf, inf, -inf)")):
            build_rdm(correlators_thermo(1.0))

    def test_overflowing_derivative_not_called_divergent(self):
        # At a subnormal lam the true derivatives are finite (d_xx -> 1/2), but
        # d_xx overflows on the way, so the message lists the values it got.
        with pytest.raises(ValueError, match=r"not finite: .* = \(0\.0, inf, ") as info:
            susceptibility_thermo(1e-310)
        assert "diverge" not in str(info.value)

    def test_affine_in_correlators(self):
        a = correlators_finite(ChainSpec(256, 0.6))
        b = correlators_finite(ChainSpec(256, 1.4))
        alpha = 0.3
        fields = ("sz", "xx", "yy", "d_sz", "d_xx", "d_yy", "d_zz")
        mixed = {f: alpha * getattr(a, f) + (1 - alpha) * getattr(b, f) for f in fields}
        mix = CorrelatorSet(
            mixed["sz"], mixed["xx"], mixed["yy"],
            mixed["sz"] ** 2 - mixed["xx"] * mixed["yy"],  # keep the identity
            mixed["d_sz"], mixed["d_xx"], mixed["d_yy"], mixed["d_zz"],
        )
        rho_mix = build_rdm(mix)
        rho_a, rho_b = build_rdm(a), build_rdm(b)
        # the element map is affine in (sz, xx, yy, zz); compare on elements
        # built from the mixed zz actually used
        u_plus = (1 + 2 * mix.sz + mix.zz) / 4
        z_plus = (mix.xx + mix.yy) / 4
        assert rho_mix.u_plus == pytest.approx(u_plus, abs=1e-15)
        assert rho_mix.z_plus == pytest.approx(z_plus, abs=1e-15)
        # derivative elements mix exactly (the derivative map is linear)
        assert rho_mix.d_z_minus == pytest.approx(
            alpha * rho_a.d_z_minus + (1 - alpha) * rho_b.d_z_minus, abs=1e-15)
        assert rho_mix.d_w == pytest.approx(
            alpha * rho_a.d_w + (1 - alpha) * rho_b.d_w, abs=1e-15)


class TestRdmBlocks:
    def test_zero_coupling_second_block_vanishes(self):
        # block 2 = [[w, z+], [z+, w]] and its lam-derivative
        rho = rdm_at(64, 0.0)
        for value in (rho.w, rho.z_plus, rho.d_w, rho.d_z_plus):
            assert value == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
    def test_eigenvalues_form_distribution(self, lam):
        eigs = block_eigenvalues(rdm_at(1024, lam))
        assert np.all(eigs >= 0.0) and np.all(eigs <= 1.0)
        assert math.fsum(eigs) == pytest.approx(1.0, abs=1e-14)


class TestConstructionChecksPositivity:
    # Element order: u+, u-, w, z+, z-, then their lam-derivatives.
    @pytest.mark.parametrize("elements,block", [
        ((-0.5, -0.5, 0.5, 0.0, 0.0), 1),
        ((0.8, 0.8, -0.3, 0.0, 0.1), 2),  # det2 = 0.09 > 0: the closed form is defined
        ((0.5, 0.5, 0.0, 1e-9, 0.0), 2),  # det2 = -1e-18: a determinant test is blind to it
        ((math.nan, 0.5, 0.25, 0.0, 0.0), 1),
        ((1.0, 0.0, 0.0, 0.0, math.nan), 1),
        ((0.5, 0.0, math.nan, 0.0, 0.0), 2),
        ((0.5, 0.0, 0.25, math.inf, 0.0), 2),
        # Infinite diagonals: inf - inf makes the eigenvalue NaN.  A shortcut
        # w - |z+| for block 2 would read +inf here and accept the record.
        ((0.5, 0.0, math.inf, 0.0, 0.0), 2),
        ((math.inf, 0.0, 0.25, 0.0, 0.0), 1),
    ])
    def test_non_positive_block_rejected(self, elements, block):
        with pytest.raises(ConsistencyError, match=f"RDM block {block} "):
            TwoSiteRdm(*elements, 0.1, -0.1, 0.0, 0.05, 0.02)

    @pytest.mark.parametrize("w,accepted", [(-5e-11, True), (-1e-10, True), (-2e-10, False)])
    def test_roundoff_slack(self, w, accepted):
        # Block 2 = w * identity: its smallest eigenvalue is w itself.
        if accepted:
            TwoSiteRdm(1.0 - 2 * w, 0.0, w, 0.0, 0.0, 0, 0, 0, 0, 0)
        else:
            with pytest.raises(ConsistencyError, match="smallest eigenvalue -2.000e-10"):
                TwoSiteRdm(1.0 - 2 * w, 0.0, w, 0.0, 0.0, 0, 0, 0, 0, 0)


# A real CorrelatorSet of each regime, and the TwoSiteRdm and RfsValue of the finite one.
_FINITE = correlators_finite(ChainSpec(64, 0.9))
_RHO = build_rdm(_FINITE)
RECORDS = [_FINITE, correlators_thermo(0.9), _RHO, rfs_closed_form(_RHO)]
RECORD_IDS = ["finite", "thermo", "rdm", "rfs_value"]


class TestRecordContract:
    # The records are immutable values: frozen, hashable, equal by value,
    # picklable, with the field-by-field dataclass repr.
    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_frozen(self, record):
        first = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, first, 0.0)

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_pickle_round_trip_keeps_hash_and_equality(self, record):
        clone = pickle.loads(pickle.dumps(record))
        assert clone is not record
        assert clone == record and hash(clone) == hash(record)
        assert dataclasses.replace(record) == record

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_repr_lists_every_field(self, record):
        fields = ", ".join(f"{f.name}={getattr(record, f.name)!r}"
                           for f in dataclasses.fields(record))
        assert repr(record) == f"{type(record).__name__}({fields})"

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_slotted(self, record):
        # One of these records is built per evaluated coupling; slots keep that cheap.
        assert not hasattr(record, "__dict__")

    def test_replace_rechecks_positivity(self):
        with pytest.raises(ConsistencyError, match="RDM block 2 "):
            dataclasses.replace(_RHO, w=-0.3)

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_signature_lists_the_fields(self, record):
        # The constructor takes the fields in order, with their defaults, as
        # the generated dataclass __init__ does.
        parameters = inspect.signature(type(record)).parameters.values()
        assert [(p.name, p.kind, p.default) for p in parameters] == [
            (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
             inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(record)]

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_keyword_construction_equals_positional(self, record):
        values = dataclasses.astuple(record)
        by_keyword = type(record)(**dataclasses.asdict(record))
        by_position = type(record)(*values)
        assert by_keyword == by_position == record
        assert dataclasses.astuple(by_keyword) == dataclasses.astuple(by_position) == values

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_missing_or_unknown_argument_rejected(self, record):
        values = dataclasses.asdict(record)
        with pytest.raises(TypeError):
            type(record)()
        with pytest.raises(TypeError):
            type(record)(**values, unknown=0.0)
        with pytest.raises(TypeError):
            type(record)(*dataclasses.astuple(record), 0.0)
        first = dataclasses.fields(record)[0].name
        del values[first]
        with pytest.raises(TypeError, match=first):
            type(record)(**values)

    def test_rfs_value_defaults(self):
        assert RfsValue(1.5) == RfsValue(1.5, None, None, None)
        assert RfsValue(1.5, discrepancy=0.25).discrepancy == 0.25

    def test_replace_rechecks_magnitudes(self):
        with pytest.raises(ValueError, match=re.escape("correlator magnitudes must be <= 1, got (2.0, ")):
            dataclasses.replace(correlators_thermo(0.9), sz=2.0)
