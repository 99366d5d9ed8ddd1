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


def require_reals(name: str, values: object) -> tuple[float, ...]:
    """`values` as a tuple of floats if it is a sequence of real numbers."""
    if not isinstance(values, (tuple, list, np.ndarray)):
        raise ValueError(f"{name} must be a sequence of numbers, got {values!r}")
    return tuple(require_real(name, v) for v in values)


def require_field(data: object, name: str) -> object:
    """`data[name]` if `data` is a dict that has the field; else a ValueError."""
    if not isinstance(data, dict) or name not in data:
        raise ValueError(f"config lacks the required field {name!r}")
    return data[name]


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


def phase_from_angle(k: float, d: float, theta: float) -> float:
    """Detector phase delta = k*d*sin(theta) for wavenumber k, spacing d, angle theta."""
    if k <= 0.0 or d <= 0.0:
        raise ValueError("wavenumber k and spacing d must be positive")
    return float(k) * float(d) * math.sin(float(theta))


@dataclass(frozen=True)
class SourceArray:
    """K independent thermal sources on a line with equal spacing.

    Source l imprints the phase prefactor alpha_l = l (0-based), so its field
    contribution at detector phase delta carries exp(-1j * l * delta).  nbar
    holds the mean photon number of each source.
    """

    nbar: tuple[float, ...] = (1.0, 1.0)

    def __post_init__(self) -> None:
        nbar = require_reals("nbar", self.nbar)
        if len(nbar) < 1:
            raise ValueError("need at least one source")
        if any(not (0.0 < n < math.inf) for n in nbar):
            raise ValueError(f"all nbar must be positive and finite, got {nbar}")
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
        return cls(nbar=require_field(data, "nbar"))


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
            phases = require_reals(name, getattr(self, name))
            if not all(0.0 <= p < TWO_PI for p in phases):
                raise ValueError(f"{name} must be finite and lie in [0, 2*pi)")
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
        if self.m1 and self == DetectorLayout.spread(self.m1):
            return "mmp-spread"
        return "custom" if any(self.moving_offsets) else "co-located"

    def detector_phases(self, delta1: float) -> np.ndarray:
        """All M phases at delta1, moving group first: delta1 + offset, unwrapped."""
        moving = float(delta1) + np.asarray(self.moving_offsets, dtype=float)
        return np.concatenate([moving, np.asarray(self.fixed_phases, dtype=float)])

    def describe(self) -> str:
        return f"{self.moving_kind}:m1={self.m1},m2={self.m2}"

    def to_dict(self) -> dict:
        return {
            "fixed_phases": list(self.fixed_phases),
            "moving_offsets": list(self.moving_offsets),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DetectorLayout":
        """Read to_dict's fields, or the older moving_count + moving_kind ones."""
        fixed = require_field(data, "fixed_phases")
        if "moving_offsets" in data:
            return cls(fixed_phases=fixed, moving_offsets=data["moving_offsets"])
        if "moving_count" not in data:
            raise ValueError(
                "config lacks the required field 'moving_offsets' "
                "(or the older 'moving_count')"
            )
        count = require_int("moving_count", data["moving_count"], 0)
        kind = data.get("moving_kind", "co-located")
        if kind == "co-located":
            return cls(fixed_phases=fixed, moving_offsets=(0.0,) * count)
        if kind != "mmp-spread":
            raise ValueError(
                f"moving_kind must be 'co-located' or 'mmp-spread', got {kind!r}"
            )
        if count != len(require_reals("fixed_phases", fixed)):
            raise ValueError("mmp-spread requires equal moving and fixed counts")
        return cls(fixed_phases=fixed, moving_offsets=magic_positions(count))
