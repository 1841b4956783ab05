"""First variations of length and area, and the equilibrium characterization.

Critical points of ``Length + kappa * Volume`` among closed curves are exactly
the regular (possibly star) polygons with ``kappa * l_0 = 2 tan(theta_0 / 2)``.
The per-vertex residual ``A_k = (nu_k - nu_{k-1}) + (kappa/2)(p_{k+1} - p_{k-1})``
vanishes iff the curve is critical, and the per-edge vectors
``c_k = nu_k + (kappa/2)(p_{k+1} + p_k)`` are constant there (a conservation
law: with c = 0 the edge midpoints are tangent to the circle of radius 1/|kappa|).
On any closed curve, lagrange_kappa is the least-squares multiplier and
project_volume_preserving removes a field's component along the area gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import DiscreteCurve, _at_edges, _at_vertices, _norms, _require_closed, _unscaled, _value_at, rot90
from .curves import turning_number
from .errors import InternalInconsistency, KappaZero, ZeroVolumeGradient


def length_gradients(curve: DiscreteCurve) -> np.ndarray:
    """Gradient of total length per vertex: R(nu_k - nu_{k-1}) = -t_k + t_{k-1}.

    NaN at the boundary vertices of an open curve (they are held fixed).
    """
    return _length_gradients(curve.tangents, curve.closed)


def _length_gradients(tangents: np.ndarray, closed: bool) -> np.ndarray:
    t_prev, t = _at_vertices(closed, tangents)
    return t_prev - t


def length_gradient(curve: DiscreteCurve, k: int) -> np.ndarray:
    return _value_at(curve, length_gradients(curve), k)


def volume_gradients(curve: DiscreteCurve) -> np.ndarray:
    """Gradient of the signed enclosed area per vertex: (1/2) R(p_{k+1} - p_{k-1}), scaled back once."""
    return _unscaled(*_scaled_volume_gradients(curve))


def _scaled_volume_gradients(curve: DiscreteCurve):
    """(u, e), u = gradVol / 2^e from the curve's chords at its power of two e: the one place the area gradient is built.

    Scaling by a power of two is exact, so (field . u) / |u|^2 * u is
    (field . gradVol) / |gradVol|^2 * gradVol bit for bit, without the
    overflow or underflow of the chords or of |gradVol|^2 at the ends of the
    float range.
    """
    _require_closed(curve, "the volume gradient")
    return _volume_gradients(curve._scaled_chords, curve.sigma), curve._scale[1]


def _volume_gradients(chords: np.ndarray, sigma: int) -> np.ndarray:
    return 0.5 * rot90(chords, sigma)


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
    The volume term is taken on the area gradient 2^-e from the curve's chords
    at its power of two e, and scaled back by 2^e; kappa's term through
    _times_kappa.
    """
    v = _check_field(curve, field)
    if functional == "length":
        grad = length_gradients(curve)
        if not curve.closed:
            grad = grad[1:-1]
            v = v[1:-1]
        return float(np.sum(grad * v))
    if functional not in ("volume", "length_plus_kappa_vol"):
        raise ValueError(f"unknown functional {functional!r}")
    u, e = _scaled_volume_gradients(curve)  # gradVol 2^-e
    if functional == "volume":
        return float(_unscaled(np.sum(u * v), e))
    return float(np.sum((length_gradients(curve) + _unscaled(*_times_kappa(kappa, u, e))) * v))


def _along(field: np.ndarray, u: np.ndarray, diameter: float) -> float:
    """(field . u) / |u|^2; ZeroVolumeGradient if |u| is at most 1e-14 diameter, the diameter in u's units."""
    u_norm_sq = float((u * u).sum())
    if not u_norm_sq > (1e-14 * diameter) ** 2:
        raise ZeroVolumeGradient("area gradient vanishes; projection undefined")
    return float((field * u).sum()) / u_norm_sq


def project_volume_preserving(curve: DiscreteCurve, field) -> np.ndarray:
    """Remove the component of the field along the area gradient.

    The result w satisfies first_variation(curve, w, "volume") = 0 up to
    round-off.
    """
    v = np.asarray(field, dtype=float)
    u, _ = _scaled_volume_gradients(curve)
    return v - _along(v, u, curve._scale[0]) * u


def lagrange_kappa(curve: DiscreteCurve) -> float:
    """Least-squares kappa minimizing |grad L + kappa grad Vol|."""
    u, e = _scaled_volume_gradients(curve)
    return _kappa(_along(length_gradients(curve), u, curve._scale[0]), e)


def _kappa(c: float, e: int) -> float:
    """-c 2^-e: kappa from c, the coefficient of grad L along u = gradVol / 2^e."""
    try:
        return -math.ldexp(c, -e)
    except OverflowError:  # |kappa| ~ 1 / diameter, beyond the float range below about 1e-308
        raise ZeroVolumeGradient("area gradient too small: kappa overflows") from None


def _times_kappa(kappa: float, values, e: int):
    """(k values, e + g), kappa = k 2^g: kappa times values 2^e, for values taken at a power of two e, as a pair.

    Scaled back once through _unscaled, kappa's mantissa k times the values
    gives the bits of kappa times values 2^e wherever both are in the normal
    range, every bit of a subnormal kappa kept, and inf, with no warning, only
    where the product is beyond the float range.  The one place kappa
    multiplies a quantity of L + kappa Vol.
    """
    k, g = math.frexp(kappa)
    return k * values, e + g


def equilibrium_residual(curve: DiscreteCurve, kappa: float) -> np.ndarray:
    """Euler-Lagrange residual A_k per vertex.

    (kappa/2)(p_{k+1} - p_{k-1}) is kappa times half the curve's chords 2^-e
    at its power of two e, through _times_kappa.
    """
    _require_closed(curve, "the equilibrium residual")
    nu_prev, nu = _at_vertices(curve.closed, curve.edge_normals)
    return (nu - nu_prev) + _unscaled(*_times_kappa(kappa, 0.5 * curve._scaled_chords, curve._scale[1]))


def conservation_vectors(curve: DiscreteCurve, kappa: float) -> np.ndarray:
    """Per-edge vectors c_k = nu_k + (kappa/2)(p_{k+1} + p_k); constant at equilibria.

    (kappa/2)(p_{k+1} + p_k) is kappa times half the sums of the points
    x = p 2^-e at the curve's power of two e, through _times_kappa.
    """
    _require_closed(curve, "the conservation vector")
    x, x_next = _at_edges(curve.closed, curve._scaled[0])
    return curve.edge_normals + _unscaled(*_times_kappa(kappa, 0.5 * (x_next + x), curve._scale[1]))


def _names_regular_polygon(n: int, m: int) -> bool:
    """Whether n vertices turning m times in all can form a regular polygon: 0 < 2m < n."""
    return 0 < 2 * m < n


def _regular_hessian_spectrum(n: int, m: int):
    """(r, t, b, radius, eigenvalues, rigid) per harmonic j = 0 .. n-1 of the Hessian of L + kappa Vol.

    At the regular (n, m) polygon of radius 1 the Hessian is circulant in
    each vertex's (radial, tangential) frame; at phase theta = 2 pi j / n,
    with s = sin(pi m / n) and c = cos(pi m / n), its 2 x 2 Hermitian block
    is [[r, i b], [-i b, t]] with r = 2 c^2 sin^2(theta/2) / s - 2 s cos(theta),
    t = 2 s sin^2(theta/2) and b = s^2 sin(theta) / c.  Its eigenvalues, the
    rows (low, high) of a (2, n) array, are mean -+ radius, with
    mean = (r + t) / 2 and radius = |((r - t) / 2, b)|.  The three rigid
    motions are its only null modes: rigid is True at the eigenvalue nearer
    zero at j = 0, m and n - m, the one rule that leaves them out.  Its
    callers cache what they derive from it, so it keeps no array itself.
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    s, c = np.sin(np.pi * m / n), np.cos(np.pi * m / n)
    half_sq = np.sin(0.5 * theta) ** 2
    r = 2.0 * c * c * half_sq / s - 2.0 * s * np.cos(theta)
    t = 2.0 * s * half_sq
    b = s * s * np.sin(theta) / c
    mean = 0.5 * (r + t)
    radius = np.hypot(0.5 * (r - t), b)
    eigenvalues = np.stack([mean - radius, mean + radius])
    rigid = np.zeros((2, n), dtype=bool)
    harmonics = [0, m, n - m]
    rigid[np.abs(eigenvalues[:, harmonics]).argmin(axis=0), harmonics] = True
    return r, t, b, radius, eigenvalues, rigid


@lru_cache(maxsize=256)
def _residual_conditioning(n: int, m: int) -> float:
    """Smallest nonzero singular value of the residual's Jacobian at the regular (n, m) polygon of radius 1.

    R A_k is the gradient of L + kappa Vol, so the singular values are the
    absolute eigenvalues of its Hessian, those of _regular_hessian_spectrum
    outside its rigid motions.  The value falls as n^-3 for convex polygons:
    0.224, 0.0297, 0.00377 and 0.000473 at n = 8, 16, 32 and 64, from the
    near-reparametrisations.
    """
    eigenvalues, rigid = _regular_hessian_spectrum(n, m)[4:]
    return float(np.abs(eigenvalues[~rigid]).min())


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

    The residual is compared against tol * max(1, |kappa| * diameter), and
    it passes only where both are finite.  |kappa| * diameter and kappa * l0
    are kappa times the curve's diameter and lengths 2^-e at its power of two
    e, through _times_kappa, and l0 is inf where it overflows.  A positive verdict asserts (not assumes) the
    regular-polygon structure: uniform edge lengths and turning angles, and
    kappa * l0 = 2 tan(theta0/2).  ValueError where kappa or tol is not finite.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance {tol} must be finite and positive")
    if not math.isfinite(kappa):
        raise ValueError(f"kappa = {kappa} must be finite")
    if kappa == 0.0:
        raise KappaZero("classification requires kappa != 0")
    max_residual = float(_norms(equilibrium_residual(curve, kappa)).max())
    diameter, e = curve._scale
    scale = max(1.0, abs(float(_unscaled(*_times_kappa(kappa, diameter, e)))))
    is_equilibrium = max_residual <= tol * scale < math.inf

    l = curve._scaled[2]
    theta = curve.turning_angles
    l0 = float(l.sum() / curve.edge_count)  # l.mean() to the bit, at a fraction of its overhead
    theta0 = float(theta.sum() / curve.n)
    winding = None if curve.cusp_mask.any() else turning_number(curve)

    if is_equilibrium:
        # a residual of at most tol * scale leaves the vertices within
        # dp = tol * scale * a / sigma of the regular (n, m) polygon of radius
        # a = l0 / (2 sin(pi m / n)), sigma its conditioning at radius 1; dp
        # moves an edge length by at most 2 dp and a turning angle by 4 dp / l0
        m = round(abs(theta0) * curve.n / (2.0 * np.pi))
        if not _names_regular_polygon(curve.n, m):
            raise InternalInconsistency("residual passed but no regular polygon has this turning")
        sin_half = np.sin(np.pi * m / curve.n)
        slack = 2.0 * tol * scale / (sin_half * _residual_conditioning(curve.n, m))  # 4 dp / l0
        if np.abs(l - l0).max() > 0.5 * slack * l0 or np.abs(theta - theta0).max() > slack:
            raise InternalInconsistency("residual passed but the curve is not a regular polygon")
        kappa_l0 = float(_unscaled(*_times_kappa(kappa, l0, e)))
        if abs(kappa_l0 - 2.0 * np.tan(0.5 * theta0)) > slack * max(1.0, abs(kappa_l0)):
            raise InternalInconsistency("kappa * l0 = 2 tan(theta0/2) violated")
    return EquilibriumReport(
        is_equilibrium=is_equilibrium,
        max_residual=max_residual,
        l0=float(_unscaled(l0, e)),
        theta0=theta0,
        kappa=float(kappa),
        n=curve.n,
        winding=winding,
        sigma=curve.sigma,
        tolerance_used=float(tol),
    )
