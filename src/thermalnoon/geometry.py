"""Source and detector geometry for collinear thermal-light arrays.

Sources sit on a line with equal spacing, so the optical phase a source l
imprints at a detector is an integer multiple alpha_l * delta of the single
detector phase delta = k * d * sin(theta).  Magic positions are the m evenly
spaced phases {2*pi*i/m}; shifting all of them rigidly by delta1 gives the
moving magic positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

_MOVING_KINDS = ("co-located", "mmp-spread")


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


def reduce_phase(phase: float) -> float:
    """Map a phase to its canonical representative in [0, 2*pi).

    Values within 1e-12 of 2*pi wrap to 0 so that rational multiples of
    2*pi compose exactly in tests.
    """
    r = math.fmod(float(phase), TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if abs(r - TWO_PI) < 1e-12:
        r = 0.0
    return r


def magic_positions(m: int) -> np.ndarray:
    """Return the m evenly spaced detector phases {0, 2*pi/m, ..., 2*pi*(m-1)/m}."""
    m = require_int("m", m, 1)
    return TWO_PI * np.arange(m, dtype=float) / m


def moving_magic_positions(delta1: float, m: int) -> np.ndarray:
    """Magic positions rigidly shifted by delta1, reduced into [0, 2*pi).

    The pairwise differences are independent of delta1, which is what makes
    a rigid scan of the whole group equivalent to scanning a single phase.
    """
    shifted = magic_positions(m) + float(delta1)
    return np.array([reduce_phase(p) for p in shifted])


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
    """A group of moving detectors plus a group at fixed phases.

    moving_kind selects how the moving group scans:
      * "co-located": all moving_count detectors sit at the same phase delta1;
      * "mmp-spread": the moving detectors sit at the moving magic positions,
        i.e. magic_positions(moving_count) rigidly shifted by delta1.  This
        kind requires as many moving as fixed detectors (equal halves).
    """

    fixed_phases: tuple[float, ...]
    moving_count: int
    moving_kind: str = "co-located"

    def __post_init__(self) -> None:
        phases = require_reals("fixed_phases", self.fixed_phases)
        object.__setattr__(self, "fixed_phases", phases)
        if self.moving_kind not in _MOVING_KINDS:
            raise ValueError(
                f"moving_kind must be one of {_MOVING_KINDS}, got {self.moving_kind!r}"
            )
        require_int("moving_count", self.moving_count, 0)
        if self.moving_count + len(self.fixed_phases) < 1:
            raise ValueError("layout needs at least one detector")
        if not all(0.0 <= p < TWO_PI for p in self.fixed_phases):
            raise ValueError("fixed phases must be finite and lie in [0, 2*pi)")
        if self.moving_kind == "mmp-spread" and self.moving_count != len(
            self.fixed_phases
        ):
            raise ValueError("mmp-spread requires equal moving and fixed counts")

    @classmethod
    def colocated(cls, m1: int, m2: int) -> "DetectorLayout":
        """m1 detectors stacked at delta1 plus m2 at the magic positions."""
        m2 = require_int("m2", m2, 0)
        fixed = tuple(magic_positions(m2)) if m2 > 0 else ()
        return cls(fixed_phases=fixed, moving_count=m1, moving_kind="co-located")

    @classmethod
    def spread(cls, m: int) -> "DetectorLayout":
        """m detectors at moving magic positions plus m at fixed magic positions."""
        return cls(
            fixed_phases=tuple(magic_positions(m)),
            moving_count=m,
            moving_kind="mmp-spread",
        )

    @property
    def m1(self) -> int:
        return self.moving_count

    @property
    def m2(self) -> int:
        return len(self.fixed_phases)

    @property
    def order(self) -> int:
        """Total number of detectors M = M1 + M2."""
        return self.moving_count + len(self.fixed_phases)

    def detector_phases(self, delta1: float) -> np.ndarray:
        """All M detector phases at scan position delta1, moving group first."""
        if self.moving_kind == "co-located":
            moving = np.full(self.moving_count, float(delta1))
        else:
            moving = moving_magic_positions(delta1, self.moving_count)
        return np.concatenate([moving, np.asarray(self.fixed_phases, dtype=float)])

    def describe(self) -> str:
        return (
            f"{self.moving_kind}:m1={self.moving_count},m2={len(self.fixed_phases)}"
        )

    def to_dict(self) -> dict:
        return {
            "fixed_phases": list(self.fixed_phases),
            "moving_count": self.moving_count,
            "moving_kind": self.moving_kind,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DetectorLayout":
        return cls(
            fixed_phases=require_field(data, "fixed_phases"),
            moving_count=require_field(data, "moving_count"),
            moving_kind=data.get("moving_kind", "co-located"),
        )
