"""Cole-Cole transfer function, arc geometry and hyperbolic distances.

The transfer function Z(v) = Z0 / (1 + (iv/vc)^(1/d)) traces a circular
arc in the complex plane whose depression below the real axis is fixed by
the order parameter d alone: the fractional term has constant argument
pi/(2d) for every v > 0, pinning the high-frequency phase.  The same
(v/vc)^(1/d) ratios, restricted to integer arguments, provide the four
distance classes that seed the series constructions in
:mod:`fraczeta.zeta`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import cpow_principal, require_order
from .errors import DomainError


@dataclass(frozen=True)
class ColeColeParams:
    """Amplitude z0, characteristic frequency vc, order parameter d >= 1."""

    z0: float
    vc: float
    d: float

    def __post_init__(self) -> None:
        if not self.z0 > 0:
            raise DomainError("z0 must be > 0")
        if not self.vc > 0:
            raise DomainError("vc must be > 0")
        require_order(self.d)


@dataclass(frozen=True)
class ArcGeometry:
    """Support circle of the transfer-function arc.

    ``chord`` is the straight segment between the two real-axis endpoints
    Z(v->inf) = 0 and Z(0) = z0, i.e. the string length on the abscissa.
    """

    center: complex
    radius: float
    chord: float
    depression_angle: float

    def __post_init__(self) -> None:
        if not (self.radius > 0 and self.chord > 0):
            raise DomainError("radius and chord must be > 0")
        for endpoint in (0.0, self.chord):
            if abs(abs(self.center - endpoint) - self.radius) > 1e-9 * self.radius:
                raise DomainError("arc endpoints must lie on the circle")


@dataclass(frozen=True)
class DistanceQuad:
    """The four hyperbolic distance classes at integer argument n.

    Horizontal pair uses exponent 1/d, vertical pair the conjugate 1/D;
    left/right are exact reciprocals of each other.
    """

    left_h: float
    right_h: float
    right_v: float
    left_v: float

    def __post_init__(self) -> None:
        if min(self.left_h, self.right_h, self.right_v, self.left_v) <= 0:
            raise DomainError("all four distances must be > 0")


def evaluate(params: ColeColeParams, v: float) -> complex:
    """Z(v) = z0 / (1 + (iv/vc)^(1/d)) for v >= 0.

    v = 0 returns z0 exactly (the well-defined limit) instead of routing
    a zero base through the power function.
    """
    if v < 0:
        raise DomainError("v must be >= 0")
    if v == 0:
        return complex(params.z0)
    w = cpow_principal(complex(0.0, v / params.vc), 1.0 / params.d)
    return params.z0 / (1.0 + w)


def phase_pinning(d: float) -> float:
    """Pinned phase angle (pi/2)(1 - 1/d), in radians."""
    require_order(d)
    return 0.5 * math.pi * (1.0 - 1.0 / d)


def arc_geometry(params: ColeColeParams) -> ArcGeometry:
    """Support circle through the endpoints 0 and z0 of the Z(v) locus.

    With psi = pi/(2d) the circumcircle of the locus has
    center = (z0/2)(1 + i cot psi) and radius = (z0/2)/sin psi; the arc
    itself dips below the real axis, so its center sits above.  The
    formulas are pinned by the three-point circumcircle oracle in the
    test suite.  d = 1 degenerates to the centered semicircle.
    """
    psi = 0.5 * math.pi / params.d
    half = 0.5 * params.z0
    center = complex(half, half * math.cos(psi) / math.sin(psi))
    radius = half / math.sin(psi)
    return ArcGeometry(
        center=center,
        radius=radius,
        chord=params.z0,
        depression_angle=phase_pinning(params.d),
    )


def hyperbolic_distance(v: float, vc: float, d: float) -> float:
    """The distance ratio (v/vc)^(1/d), strictly increasing in v."""
    if not v > 0:
        raise DomainError("v must be > 0")
    if not vc > 0:
        raise DomainError("vc must be > 0")
    require_order(d)
    return (v / vc) ** (1.0 / d)


def conjugate_exponent(d: float) -> float:
    """The dual order D with 1/D = 1 - 1/d, i.e. D = d/(d-1).

    Rejects d <= 1 where D would be infinite or negative; d = 2 is the
    self-dual point D = d.
    """
    if not d > 1:
        raise DomainError("d must be > 1 for a finite conjugate exponent")
    return d / (d - 1.0)


def distance_classes(n: int, d: float) -> DistanceQuad:
    """The quadruple (n^(1/d), n^(-1/d), n^(1/D), n^(-1/D))."""
    if n < 1:
        raise DomainError("n must be >= 1")
    dual = conjugate_exponent(d)
    return DistanceQuad(
        left_h=n ** (1.0 / d),
        right_h=n ** (-1.0 / d),
        right_v=n ** (1.0 / dual),
        left_v=n ** (-1.0 / dual),
    )
