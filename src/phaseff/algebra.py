"""Quadrature noise algebra.

Fluctuating quadratures are tracked symbolically as linear combinations of a
fixed set of independent noise modes, each mode carrying its own spectral
variance.  Everything is normalized to the quantum noise limit: a vacuum mode
has variance 1, and power levels in dB are 10*log10 of that linear variance.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum, unique
from typing import Mapping


class _DataclassFields:
    """A record class's __dataclass_fields__, built on its first read from a
    dataclasses.make_dataclass over the same names, types and defaults, then
    stored on the class: dataclasses.fields, replace, asdict and
    is_dataclass work on records, and only their callers import dataclasses."""

    def __get__(self, instance, owner):
        if owner is Record:  # the base has no fields of its own to describe
            raise AttributeError("__dataclass_fields__")
        import dataclasses

        spec = [
            (name, owner.__annotations__[name])
            + ((owner._defaults[name],) if name in owner._defaults else ())
            for name in owner._fields
        ]
        fields = dataclasses.make_dataclass(owner.__name__, spec, frozen=True).__dataclass_fields__
        owner.__dataclass_fields__ = fields
        return fields


class Record:
    """Base of phaseff's frozen records, with the semantics of
    @dataclass(frozen=True) and no dataclasses import.

    A subclass's fields are its annotations, in order, and a class attribute
    of the same name is the field's default.  Instances are built from
    positional or keyword arguments, then __post_init__ runs; they compare
    and hash by their field values (by identity if the class is declared with
    eq=False) and refuse assignment and deletion with dataclasses'
    FrozenInstanceError.
    """

    _fields = ()
    _defaults = {}
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        fields, defaults = self._fields, self._defaults
        if len(args) > len(fields):
            raise self._call_error(f"takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        if not values.keys().isdisjoint(kwargs):
            repeated = next(name for name in fields if name in kwargs)
            raise self._call_error(f"got multiple values for argument {repeated!r}")
        values.update(kwargs)
        # one by one in field order, as a dataclass sets them, so the instance
        # keeps the shared-key dict that makes its attribute reads fast
        for name in fields:
            if name in values:
                object.__setattr__(self, name, values.pop(name))
            elif name in defaults:
                object.__setattr__(self, name, defaults[name])
            else:
                raise self._call_error(f"missing required argument {name!r}")
        if values:
            raise self._call_error(f"got an unexpected keyword argument {next(iter(values))!r}")
        self.__post_init__()

    def _call_error(self, problem: str) -> TypeError:
        return TypeError(f"{type(self).__qualname__}.__init__() {problem}")

    def __post_init__(self) -> None:
        pass

    def _asdict(self) -> dict:
        """The field values by name (a shallow dataclasses.asdict)."""
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes):
        """A new record with `changes` over this one's values, checked again
        (dataclasses.replace)."""
        return type(self)(**{**self._asdict(), **changes})

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(self._asdict().values()) == tuple(other._asdict().values())

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


@unique
class NoiseMode(Enum):
    """The independent fluctuation sources entering the feed-forward network.

    The two detector vacua belong to the balanced pair of photodiodes in the
    in-loop homodyne; they always appear with equal weight.
    """

    INPUT_AMPLITUDE = "input_amplitude"
    INPUT_PHASE = "input_phase"
    TAP_VACUUM_AMPLITUDE = "tap_vacuum_amplitude"
    TAP_VACUUM_PHASE = "tap_vacuum_phase"
    HOMODYNE_MISMATCH_PHASE = "homodyne_mismatch_phase"
    DETECTOR_VACUUM_1 = "detector_vacuum_1"
    DETECTOR_VACUUM_2 = "detector_vacuum_2"


class QuadratureExpansion(Record):
    """A quadrature observable as a weighted sum of noise modes.

    Exact-zero coefficients are dropped on construction, so mode membership
    in ``coefficients`` means "this source contributes".
    """

    coefficients: Mapping[NoiseMode, complex]

    def __post_init__(self) -> None:
        cleaned: dict[NoiseMode, complex] = {}
        for mode, value in self.coefficients.items():
            if not isinstance(mode, NoiseMode):
                raise ValueError(f"expansion key {mode!r} is not a NoiseMode")
            z = _complex(f"coefficient for {mode.value}", value)
            if z != 0:
                cleaned[mode] = z
        object.__setattr__(self, "coefficients", cleaned)

    def coefficient(self, mode: NoiseMode) -> complex:
        """Weight of one mode, 0 if the mode does not contribute."""
        return self.coefficients.get(mode, 0j)


class SourceVariances(Record):
    """Spectral variance of each noise mode, in units of the vacuum variance."""

    variance: Mapping[NoiseMode, float]

    def __post_init__(self) -> None:
        cleaned: dict[NoiseMode, float] = {}
        for mode, value in self.variance.items():
            if not isinstance(mode, NoiseMode):
                raise ValueError(f"variance key {mode!r} is not a NoiseMode")
            v = _real(f"variance for {mode.value}", value)
            if v < 0.0:
                raise ValueError(f"variance for {mode.value} must be >= 0, got {value!r}")
            cleaned[mode] = v
        object.__setattr__(self, "variance", cleaned)

    @classmethod
    def vacuum(cls, input_phase: float = 1.0) -> "SourceVariances":
        """Every mode at the quantum noise limit, with an optional excess
        variance on the input phase quadrature."""
        table = {mode: 1.0 for mode in NoiseMode}
        table[NoiseMode.INPUT_PHASE] = input_phase
        return cls(table)


def variance_of(expansion: QuadratureExpansion, sources: SourceVariances) -> float:
    """Second moment of an expansion over independent sources.

    Sum over modes of |coefficient|^2 times the source variance.  Every mode
    present in the expansion must have a variance entry.
    """
    total = 0.0
    for mode, coeff in expansion.coefficients.items():
        if mode not in sources.variance:
            raise ValueError(f"no variance given for mode {mode.value}")
        total += (coeff.real * coeff.real + coeff.imag * coeff.imag) * sources.variance[mode]
    return total


class _LazyNumpy:
    """numpy, imported on the first read of one of its attributes.

    The import statement takes the import system's lock, so threads that
    race to the first read all get the whole module (an importlib.util
    LazyLoader module gives all but one of them a half-run one).  Each name
    is stored on its first read, so later reads skip __getattr__."""

    def __getattr__(self, name: str):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


# numpy as network, montecarlo and cli use it: the scalar paths (import
# phaseff, the optimize and snr subcommands) never read it, so never load it
np = _LazyNumpy()


def _real(name: str, value) -> float:
    """value as a finite float if it is an int, a float or a numpy real
    scalar (not a bool or a string); else a ValueError naming the field."""
    # a float (numpy's float64 is one) skips the slower bool and ABC checks
    if not isinstance(value, float) and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _complex(name: str, value) -> complex:
    """value as a complex whose real and imaginary parts each passed _real."""
    # a complex (numpy's too) by its parts, anything else as the real part;
    # numpy types are tested last, so a plain value loads no numpy
    if isinstance(value, complex) or (
        not isinstance(value, (int, float, str)) and isinstance(value, np.complexfloating)
    ):
        return complex(_real(name, value.real), _real(name, value.imag))
    return complex(_real(name, value), 0.0)


def db_from_linear(value: float) -> float:
    """Power dB relative to the quantum noise limit."""
    value = _real("value", value)
    if not value > 0.0:
        raise ValueError(f"dB undefined for non-positive variance {value!r}")
    return 10.0 * math.log10(value)


def linear_from_db(level_db: float, name: str = "level_db") -> float:
    """Inverse of db_from_linear: a level that overflows is refused as `name`."""
    level_db = _real(name, level_db)
    try:
        return 10.0 ** (level_db / 10.0)
    except OverflowError:
        raise ValueError(
            f"{name} is too large: {level_db!r} dB overflows a float as a linear power"
        ) from None
