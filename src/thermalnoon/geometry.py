"""Source and detector geometry for collinear thermal-light arrays.

Sources sit on a line with equal spacing, so the optical phase a source l
imprints at a detector is an integer multiple alpha_l * delta of the single
detector phase delta = k * d * sin(theta).  Magic positions are the m evenly
spaced phases {2*pi*i/m}.

A detector layout is data: the offsets of the moving detectors from the scan
phase delta1, and the phases of the fixed ones.  The co-located scheme has
every offset 0; the spread scheme has the magic comb in both, so its moving
detectors sit at the moving magic positions delta1 + 2*pi*i/m.  Moving phases
are not wrapped into [0, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def require_int(name: str, value: object, minimum: int) -> int:
    """`value` as an int if it is an integer >= minimum; a bool is not one."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def require_real(name: str, value: object) -> float:
    """`value` as a float if it is a real number; a bool or a string is not one."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if not real or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def require_reals(name: str, values: object, minimum: int = 0) -> np.ndarray:
    """`values` as a 1-d float64 array of at least `minimum` finite real numbers.

    An ndarray is read by its dtype, integer or float.  A list or tuple is read
    number by number through `require_real`, so a bool, string, complex number
    or None is refused even among floats, and a nested or ragged list never
    reaches numpy.  Anything else is refused.  Every refusal is a ValueError
    that names `name`.
    """
    array = values
    if isinstance(values, (list, tuple)):
        try:
            array = np.array([require_real(name, v) for v in values], dtype=float)
        except ValueError:
            array = None
    real = isinstance(array, np.ndarray) and array.dtype.kind in "iuf"
    if not real or array.ndim != 1 or array.size < minimum:
        least = f" of length >= {minimum}" if minimum else ""
        raise ValueError(f"{name} must be a 1-d sequence of reals{least}: {values!r}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite: {values!r}")
    return array.astype(float, copy=False)


def require_field(data: object, name: str) -> object:
    """`data[name]` if `data` is a dict that has the field; else a ValueError."""
    if not isinstance(data, dict) or name not in data:
        raise ValueError(f"config lacks the required field {name!r}")
    return data[name]


def refuse_unknown_fields(data: dict, fields: dict, where: str) -> None:
    """Name every key of `data` that is not in `fields`, so none runs at a default."""
    unknown = [repr(key) for key in data if key not in fields]
    if unknown:
        raise ValueError(f"{where} has unknown fields: {', '.join(unknown)}")


def relative_gap(a: float | np.ndarray, b: float | np.ndarray) -> float | np.ndarray:
    """|a - b| relative to the larger magnitude, elementwise; 0 where both are 0."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)


def magic_positions(m: int) -> np.ndarray:
    """Return the m evenly spaced detector phases {0, 2*pi/m, ..., 2*pi*(m-1)/m}."""
    m = require_int("m", m, 1)
    return TWO_PI * np.arange(m, dtype=float) / m


def comb_sign(m: int) -> int:
    """Sign s in prod_{j<m} (x + exp(-2*pi*i*j/m)*y) = x**m + s*y**m: (-1)**(m-1).

    A comb of m detectors at the magic positions collapses the two-source
    field product to a1**m + s*a2**m, so s is the sign of the N00N-like
    coherence and of the co-located fringe at frequency m.
    """
    return -1 if m % 2 == 0 else 1


@dataclass(frozen=True)
class SourceArray:
    """K independent thermal sources on a line with equal spacing.

    Source l imprints the phase prefactor alpha_l = l (0-based), so its field
    contribution at detector phase delta carries exp(-1j * l * delta).  nbar
    holds the mean photon number of each source.
    """

    nbar: tuple[float, ...] = (1.0, 1.0)

    def __post_init__(self) -> None:
        nbar = tuple(require_reals("nbar", self.nbar, 1).tolist())
        if not all(n > 0.0 for n in nbar):
            raise ValueError(f"all nbar must be positive, got {nbar}")
        object.__setattr__(self, "nbar", nbar)

    @classmethod
    def equidistant(cls, count: int, nbar: float = 1.0) -> "SourceArray":
        """count identical sources with the same mean photon number."""
        return cls(nbar=(nbar,) * require_int("count", count, 1))

    @property
    def count(self) -> int:
        return len(self.nbar)

    @property
    def prefactors(self) -> tuple[int, ...]:
        """Integer phase prefactors (0, 1, ..., K-1)."""
        return tuple(range(len(self.nbar)))

    def to_dict(self) -> dict:
        return {"nbar": list(self.nbar)}

    @classmethod
    def from_dict(cls, data: dict) -> "SourceArray":
        """Read to_dict's field; any other key is refused by name."""
        sources = cls(nbar=require_field(data, "nbar"))
        refuse_unknown_fields(data, cls.__dataclass_fields__, "config sources")
        return sources


@dataclass(frozen=True)
class DetectorLayout:
    """Detectors that move with the scan phase delta1, plus detectors held fixed.

    Moving detector i sits at delta1 + moving_offsets[i], fixed detector j at
    fixed_phases[j]; both tuples hold phases in [0, 2*pi).  colocated stacks
    every moving detector at offset 0; spread puts the magic comb in both.
    Any other placement is data too, e.g. from a config file.
    """

    fixed_phases: tuple[float, ...]
    moving_offsets: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("fixed_phases", "moving_offsets"):
            phases = tuple(require_reals(name, getattr(self, name)).tolist())
            if not all(0.0 <= p < TWO_PI for p in phases):
                raise ValueError(f"{name} must lie in [0, 2*pi)")
            object.__setattr__(self, name, phases)
        if self.order < 1:
            raise ValueError("layout needs at least one detector")

    @classmethod
    def colocated(cls, m1: int, m2: int) -> "DetectorLayout":
        """m1 detectors stacked at delta1 plus m2 at the magic positions."""
        m1, m2 = require_int("m1", m1, 0), require_int("m2", m2, 0)
        fixed = tuple(magic_positions(m2)) if m2 > 0 else ()
        return cls(fixed_phases=fixed, moving_offsets=(0.0,) * m1)

    @classmethod
    def spread(cls, m: int) -> "DetectorLayout":
        """m detectors at moving magic positions plus m at fixed magic positions."""
        comb = tuple(magic_positions(m))
        return cls(fixed_phases=comb, moving_offsets=comb)

    @property
    def m1(self) -> int:
        return len(self.moving_offsets)

    @property
    def m2(self) -> int:
        return len(self.fixed_phases)

    @property
    def order(self) -> int:
        """Total number of detectors M = M1 + M2."""
        return self.m1 + self.m2

    @property
    def moving_kind(self) -> str:
        """mmp-spread for spread(m), co-located if every offset is 0, else custom.

        Derived from the data; spread(1) equals colocated(1, 1) and reads mmp-spread.
        """
        comb = tuple(magic_positions(self.m1)) if self.m1 else None
        if self.moving_offsets == comb == self.fixed_phases:
            return "mmp-spread"
        return "custom" if any(self.moving_offsets) else "co-located"

    def detector_phases(self, delta1: float | np.ndarray) -> np.ndarray:
        """All M phases at delta1, moving group first: delta1 + offset, unwrapped.

        A 1-d sequence of delta1 gives one row of M phases per entry.
        """
        scalar = not isinstance(delta1, (list, tuple, np.ndarray))
        scan = require_reals("delta1", [delta1] if scalar else delta1)
        phases = np.empty((scan.size, self.order))
        phases[:, : self.m1] = scan[:, None] + np.asarray(self.moving_offsets)
        phases[:, self.m1 :] = self.fixed_phases
        return phases[0] if scalar else phases

    def describe(self) -> str:
        return f"{self.moving_kind}:m1={self.m1},m2={self.m2}"

    def to_dict(self) -> dict:
        return {
            "fixed_phases": list(self.fixed_phases),
            "moving_offsets": list(self.moving_offsets),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DetectorLayout":
        """Read to_dict's two fields; a missing one, then any other key, is named.

        The required fields are checked first, so a file that predates moving
        offsets is told what it lacks.
        """
        layout = cls(
            fixed_phases=require_field(data, "fixed_phases"),
            moving_offsets=require_field(data, "moving_offsets"),
        )
        refuse_unknown_fields(data, cls.__dataclass_fields__, "config layout")
        return layout
