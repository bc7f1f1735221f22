"""Unit tests for the quadrature expansion algebra."""

import math

import pytest
from hypothesis import given, strategies as st

from phaseff import (
    NoiseMode,
    QuadratureExpansion,
    SourceVariances,
    db_from_linear,
    linear_from_db,
    variance_of,
)

A_IN = NoiseMode.INPUT_AMPLITUDE
PHI_IN = NoiseMode.INPUT_PHASE
TAP = NoiseMode.TAP_VACUUM_AMPLITUDE

finite_coeffs = st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)

expansions = st.dictionaries(
    st.sampled_from(list(NoiseMode)), finite_coeffs, max_size=len(NoiseMode)
).map(QuadratureExpansion)

full_variances = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    min_size=len(NoiseMode),
    max_size=len(NoiseMode),
).map(lambda vs: SourceVariances(dict(zip(NoiseMode, vs))))


def test_zero_coefficients_dropped_on_construction():
    e = QuadratureExpansion({A_IN: 0.0, PHI_IN: 1.0})
    assert A_IN not in e.coefficients
    assert e.coefficient(A_IN) == 0j
    assert e.coefficient(PHI_IN) == 1.0


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError):
        QuadratureExpansion({A_IN: float("nan")})
    with pytest.raises(ValueError):
        QuadratureExpansion({A_IN: complex(0, float("inf"))})


def test_non_mode_key_rejected():
    with pytest.raises(ValueError):
        QuadratureExpansion({"input_amplitude": 1.0})


def test_variance_qnl_passthrough():
    e = QuadratureExpansion({A_IN: 1.0})
    assert variance_of(e, SourceVariances.vacuum()) == 1.0


def test_variance_passive_beamsplitter_preserves_qnl():
    e = QuadratureExpansion({A_IN: math.sqrt(0.2), TAP: -math.sqrt(0.8)})
    assert math.isclose(variance_of(e, SourceVariances.vacuum()), 1.0, rel_tol=1e-12)


def test_variance_of_amplified_phase():
    # |sqrt(5)|^2 on a unit-variance phase input
    e = QuadratureExpansion({PHI_IN: math.sqrt(5.0)})
    assert math.isclose(variance_of(e, SourceVariances.vacuum()), 5.0, rel_tol=1e-12)


def test_variance_empty_expansion_is_zero():
    assert variance_of(QuadratureExpansion({}), SourceVariances.vacuum()) == 0.0


def test_variance_missing_entry_rejected():
    e = QuadratureExpansion({PHI_IN: 1.0})
    sparse = SourceVariances({A_IN: 1.0})
    with pytest.raises(ValueError, match="no variance"):
        variance_of(e, sparse)


def test_source_variances_reject_negative():
    with pytest.raises(ValueError):
        SourceVariances({A_IN: -0.5})


def test_vacuum_table_overrides_input_phase_only():
    v = SourceVariances.vacuum(input_phase=7.0)
    assert v.variance[PHI_IN] == 7.0
    assert all(v.variance[m] == 1.0 for m in NoiseMode if m is not PHI_IN)


@given(a=expansions, c=finite_coeffs, v=full_variances)
def test_variance_linearity_under_scaling(a, c, v):
    scaled = QuadratureExpansion({m: c * w for m, w in a.coefficients.items()})
    want = (c.real * c.real + c.imag * c.imag) * variance_of(a, v)
    assert math.isclose(variance_of(scaled, v), want, rel_tol=1e-9, abs_tol=1e-9)


@given(
    weights=st.lists(finite_coeffs, min_size=1, max_size=len(NoiseMode)).filter(
        lambda ws: sum(abs(w) ** 2 for w in ws) > 1e-6
    )
)
def test_normalized_rows_are_passive(weights):
    """Any unit-norm coefficient row over vacuum modes keeps the variance at 1."""
    norm = math.sqrt(sum(abs(w) ** 2 for w in weights))
    modes = list(NoiseMode)[: len(weights)]
    e = QuadratureExpansion({m: w / norm for m, w in zip(modes, weights)})
    assert math.isclose(variance_of(e, SourceVariances.vacuum()), 1.0, abs_tol=1e-12)


@pytest.mark.parametrize(
    "linear,expected_db,tol",
    [
        (1.0, 0.0, 1e-15),
        (6.31, 8.0, 1e-3),
        (10.0**1.76, 17.6, 1e-12),
    ],
)
def test_db_from_linear_reference_points(linear, expected_db, tol):
    assert math.isclose(db_from_linear(linear), expected_db, abs_tol=tol)


def test_linear_from_db_reference_point():
    assert math.isclose(linear_from_db(17.6), 57.54, abs_tol=5e-3)


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-300])
def test_db_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        db_from_linear(bad)


@given(st.floats(min_value=-30.0, max_value=30.0))
def test_db_roundtrip_identity(level_db):
    assert math.isclose(db_from_linear(linear_from_db(level_db)), level_db, abs_tol=1e-12)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_linear_roundtrip_identity(x):
    assert math.isclose(linear_from_db(db_from_linear(x)), x, rel_tol=1e-12)
