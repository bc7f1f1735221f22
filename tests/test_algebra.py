"""Unit tests for the quadrature expansion algebra and the record base."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import phaseff
from phaseff import (
    BandpassKernel,
    FitResult,
    FlatKernel,
    NetworkParams,
    NoiseMode,
    OracleReport,
    OracleRow,
    PsdEstimate,
    QuadratureExpansion,
    QuadratureStreams,
    RunConfig,
    SimConfig,
    SnrInference,
    SnrReport,
    SnrSettings,
    SourceVariances,
    SweepSettings,
    SweepTrace,
    db_from_linear,
    linear_from_db,
    variance_of,
)
from phaseff.algebra import Record

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


def test_linear_from_db_refuses_a_level_that_overflows():
    message = "level_db is too large: 4000.0 dB overflows a float as a linear power"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        linear_from_db(4000)


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


# ---------------------------------------------------------------------------
# Records against a reference @dataclass(frozen=True) with the same fields.
# ---------------------------------------------------------------------------

P = NetworkParams(0.2, 0.94, 0.91, 3.2 + 0j)
ROW = OracleRow(0.0, 1.0, 0.1, 1.05, 0.5, True)

# (record class, its fields in order, a (name, default) pair for a field with
# a default, and arguments for its required fields that it stores unchanged)
RECORDS = [
    (QuadratureExpansion, ["coefficients"], ({PHI_IN: 1.5 + 0j},)),
    (SourceVariances, ["variance"], ({PHI_IN: 2.0},)),
    (
        NetworkParams,
        ["epsilon", "eta_h1", "eta_d1", "gain", ("v_phase_in", 1.0), ("eta_det2", 1.0)],
        (0.2, 0.94, 0.91, 3.2 + 0j),
    ),
    (SnrInference, ["detected", "inferred"], (1.5, 2.5)),
    (
        SnrReport,
        ["snr_detected_in", "snr_inferred_in", "snr_detected_out", "snr_inferred_out", "t_s"],
        (1.0, 2.0, 3.0, 4.0, 0.9),
    ),
    (
        SweepTrace,
        ["phase", "variance_linear", "variance_db", ("detected", False)],
        (np.array([0.0, 1.0]), np.array([2.0, 3.0]), np.array([3.0, 4.75])),
    ),
    (FitResult, ["k_fit", "residual_rms", "iterations"], (1.5, 1e-9, 30)),
    (
        SnrSettings,
        ["input_total_db", "input_noise_db", "output_total_db", "output_noise_db"],
        (10.0, 3.0, 12.0, 4.0),
    ),
    (SweepSettings, [("points", 361), ("formula", "paper"), ("detected", False)], ()),
    (
        RunConfig,
        ["network", ("sweep", SweepSettings()), ("simulation", None), ("snr", None)],
        (P,),
    ),
    (FlatKernel, [], ()),
    (BandpassKernel, ["center_hz", "bandwidth_hz", "gain"], (1000.0, 100.0, 2.0)),
    (
        SimConfig,
        [
            "params",
            "sample_rate",
            "duration",
            ("signal_frequency", 0.0),
            ("signal_amplitude", 0.0),
            ("kernel", FlatKernel()),
            ("seed", 0),
        ],
        (P, 1e5, 1.0),
    ),
    (QuadratureStreams, ["amplitude", "phase"], (np.zeros(4), np.ones(4))),
    (
        PsdEstimate,
        ["frequencies", "variance", "standard_error"],
        (np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.array([0.1, 0.1])),
    ),
    (
        OracleRow,
        ["phi", "mc_variance", "standard_error", "analytic_variance", "n_sigma", "within_tolerance"],
        (0.0, 1.0, 0.1, 1.05, 0.5, True),
    ),
    (OracleReport, ["rows", "samples_per_run"], ((ROW,), 2**18)),
]

# the records that compare and hash by identity, as dataclasses with eq=False
IDENTITY = (SweepTrace, QuadratureStreams, PsdEstimate)


def _names(fields):
    return [f if isinstance(f, str) else f[0] for f in fields]


@pytest.fixture(params=RECORDS, ids=lambda record: record[0].__name__)
def record(request):
    """The class, its reference dataclass, its field names and the values of
    every field (the given arguments, then the defaults)."""
    cls, fields, args = request.param
    spec = [(f, object) if isinstance(f, str) else (f[0], object, f[1]) for f in fields]
    reference = dataclasses.make_dataclass(
        cls.__name__, spec, frozen=True, eq=cls not in IDENTITY
    )
    full = args + tuple(f[1] for f in fields if not isinstance(f, str))
    return cls, reference, _names(fields), full


def test_every_public_record_is_compared():
    public = {getattr(phaseff, name) for name in phaseff.__all__}
    records = {cls for cls in public if isinstance(cls, type) and issubclass(cls, Record)}
    assert records == {cls for cls, _, _ in RECORDS}


def test_record_fields_match_the_reference(record):
    cls, reference, _, full = record
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(cls(*full))
    got = [(f.name, f.default, f.default_factory) for f in dataclasses.fields(cls)]
    assert got == [(f.name, f.default, f.default_factory) for f in dataclasses.fields(reference)]


def test_record_repr_matches_the_reference(record):
    cls, reference, _, full = record
    assert repr(cls(*full)) == repr(reference(*full))


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


def test_record_equality_and_hash_match_the_reference(record):
    cls, reference, _, full = record
    a, b, ra, rb = cls(*full), cls(*full), reference(*full), reference(*full)
    assert a == a and ra == ra
    assert (a == b) is (ra == rb) is (cls not in IDENTITY)
    assert a != ra
    if cls in IDENTITY:
        assert hash(a) == object.__hash__(a) and hash(ra) == object.__hash__(ra)
    else:
        # both hash the tuple of field values, or both fail on an unhashable one
        assert _hash(a) == _hash(ra)


def test_record_takes_positional_and_keyword_arguments(record):
    cls, _, names, full = record
    positional, keyword = cls(*full), cls(**dict(zip(names, full)))
    assert repr(positional) == repr(keyword)
    half = len(full) // 2
    assert repr(cls(*full[:half], **dict(zip(names[half:], full[half:])))) == repr(positional)


def test_record_refuses_bad_arguments_like_the_reference(record):
    cls, reference, names, full = record
    calls = [((*full, 0.0), {}), (full, {"unknown": 0.0})]
    if names:
        calls.append((full, {names[0]: full[0]}))  # repeated
    required = len(full) - len(cls._defaults)
    if required:
        calls.append((full[: required - 1], {}))  # missing
    for args, kwargs in calls:
        for build in (cls, reference):
            with pytest.raises(TypeError):
                build(*args, **kwargs)


def test_record_is_frozen_like_the_reference(record):
    cls, reference, names, full = record
    name = names[0] if names else "anything"
    for obj in (cls(*full), reference(*full)):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)


def test_record_replace_and_asdict_round_trip(record):
    cls, reference, names, full = record
    obj = cls(*full)
    assert repr(dataclasses.replace(obj)) == repr(obj._replace()) == repr(obj)
    assert repr(dataclasses.asdict(obj)) == repr(dataclasses.asdict(reference(*full)))
    assert obj._asdict().keys() == dataclasses.asdict(obj).keys()
