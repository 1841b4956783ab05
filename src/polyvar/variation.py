"""First variations of length and area, and the equilibrium characterization.

Critical points of ``Length + kappa * Volume`` among closed curves are exactly
the regular (possibly star) polygons with ``kappa * l_0 = 2 tan(theta_0 / 2)``.
The per-vertex residual ``A_k = (nu_k - nu_{k-1}) + (kappa/2)(p_{k+1} - p_{k-1})``
vanishes iff the curve is critical, and the per-edge vectors
``c_k = nu_k + (kappa/2)(p_{k+1} + p_k)`` are constant there (a conservation
law: with c = 0 the edge midpoints are tangent to the circle of radius 1/|kappa|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import DiscreteCurve, _at_edges, _at_vertices, _value_at, rot90, turning_number
from .errors import InternalInconsistency, KappaZero, OpenCurve


def length_gradients(curve: DiscreteCurve) -> np.ndarray:
    """Gradient of total length per vertex: R(nu_k - nu_{k-1}) = -t_k + t_{k-1}.

    NaN at the boundary vertices of an open curve (they are held fixed).
    """
    t_prev, t = _at_vertices(curve, curve.tangents)
    return t_prev - t


def length_gradient(curve: DiscreteCurve, k: int) -> np.ndarray:
    return _value_at(curve, length_gradients(curve), k)


def volume_gradients(curve: DiscreteCurve) -> np.ndarray:
    """Gradient of the signed enclosed area per vertex: (1/2) R(p_{k+1} - p_{k-1})."""
    if not curve.closed:
        raise OpenCurve("volume gradient requires a closed curve")
    return 0.5 * rot90(curve.chords, curve.sigma)


def volume_gradient(curve: DiscreteCurve, k: int) -> np.ndarray:
    return _value_at(curve, volume_gradients(curve), k)  # OpenCurve before IndexError


def _check_field(curve: DiscreteCurve, field) -> np.ndarray:
    v = np.asarray(field, dtype=float)
    if v.shape != (curve.n, 2):
        raise ValueError(f"variation field must have shape ({curve.n}, 2)")
    if not curve.closed and (np.any(v[0] != 0.0) or np.any(v[-1] != 0.0)):
        raise ValueError("variation field must vanish at boundary vertices")
    return v


def first_variation(curve: DiscreteCurve, field, functional="length", kappa=0.0) -> float:
    """Directional derivative of the chosen functional along the field.

    functional is "length", "volume", or "length_plus_kappa_vol" (with kappa).
    """
    v = _check_field(curve, field)
    if functional == "length":
        grad = length_gradients(curve)
    elif functional == "volume":
        grad = volume_gradients(curve)
    elif functional == "length_plus_kappa_vol":
        grad = length_gradients(curve) + kappa * volume_gradients(curve)
    else:
        raise ValueError(f"unknown functional {functional!r}")
    if not curve.closed:
        grad = grad[1:-1]
        v = v[1:-1]
    return float(np.sum(grad * v))


def equilibrium_residual(curve: DiscreteCurve, kappa: float) -> np.ndarray:
    """Euler-Lagrange residual A_k per vertex; zero iff critical for L + kappa*Vol."""
    if not curve.closed:
        raise OpenCurve("equilibrium residual requires a closed curve")
    nu_prev, nu = _at_vertices(curve, curve.edge_normals)
    return (nu - nu_prev) + 0.5 * kappa * curve.chords


def conservation_vectors(curve: DiscreteCurve, kappa: float) -> np.ndarray:
    """Per-edge vectors c_k = nu_k + (kappa/2)(p_{k+1} + p_k); constant at equilibria."""
    if not curve.closed:
        raise OpenCurve("conservation vectors require a closed curve")
    p, p_next = _at_edges(curve, curve.points)
    return curve.edge_normals + 0.5 * kappa * (p_next + p)


@dataclass(frozen=True)
class EquilibriumReport:
    is_equilibrium: bool
    max_residual: float
    l0: float
    theta0: float
    kappa: float
    n: int
    winding: int | None
    sigma: int
    tolerance_used: float


def classify_equilibrium(curve: DiscreteCurve, kappa: float, tol: float = 1e-10) -> EquilibriumReport:
    """Decide criticality of L + kappa*Vol and extract the regular-polygon data.

    The residual is compared against tol * max(1, |kappa| * diameter).  A
    positive verdict asserts (not assumes) the regular-polygon structure:
    uniform edge lengths and turning angles, and kappa * l0 = 2 tan(theta0/2).
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance {tol} must be finite and positive")
    if kappa == 0.0:
        raise KappaZero("classification requires kappa != 0")
    residual = equilibrium_residual(curve, kappa)
    max_residual = float(np.hypot(residual[:, 0], residual[:, 1]).max())
    scale = max(1.0, abs(kappa) * curve.diameter())
    is_equilibrium = max_residual <= tol * scale

    l = curve.edge_lengths
    theta = curve.turning_angles
    l0 = float(l.mean())
    theta0 = float(theta.mean())
    winding = None if curve.cusp_mask.any() else turning_number(curve)

    if is_equilibrium:
        # the residual <-> uniformity equivalence carries O(1) geometric
        # constants; allow them a factor of 10 before calling it a bug
        slack = 10.0 * tol
        if np.max(np.abs(l - l0)) > slack * l0 or np.max(np.abs(theta - theta0)) > slack:
            raise InternalInconsistency(
                "residual passed but the curve is not a regular polygon"
            )
        if abs(kappa * l0 - 2.0 * np.tan(0.5 * theta0)) > slack * max(1.0, abs(kappa) * l0):
            raise InternalInconsistency("kappa * l0 = 2 tan(theta0/2) violated")
    return EquilibriumReport(
        is_equilibrium=is_equilibrium,
        max_residual=max_residual,
        l0=l0,
        theta0=theta0,
        kappa=float(kappa),
        n=curve.n,
        winding=winding,
        sigma=curve.sigma,
        tolerance_used=float(tol),
    )
