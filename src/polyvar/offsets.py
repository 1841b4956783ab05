"""Vertex normals, parallel offset curves, and the exact Steiner-type formula.

The vertex normal ``N_k = (nu_k + nu_{k-1}) / (1 + cos theta_k)`` is the unique
direction along which moving every vertex keeps each edge parallel to its
source edge.  The offset edge lengths then satisfy, exactly,

    |p_{k+1}(t) - p_k(t)| = l_k (1 - t * kappa(e_k)),

with the edge-osculating-circle curvature ``kappa(e_k)``.  Of the three ways to
join offset edges (segment, arc, wedge) only the wedge preserves the vertex
count; its joined curve is exactly the parallel curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import edge_curvatures
from .curves import DiscreteCurve, _at_edges, _at_vertices, _value_at, cusp_vertices, rot90
from .errors import CuspAdjacent, CuspVertex, EdgeCollapse, OpenCurve

OFFSET_VARIANTS = ("segment", "arc", "wedge")

# |1 - t * kappa(e_k)| at or below this aborts the offset instead of
# producing a zero-length edge.
EDGE_COLLAPSE_TOL = 1e-9


def vertex_normals(curve: DiscreteCurve) -> np.ndarray:
    """N_k = (nu_k + nu_{k-1}) / (1 + cos theta_k); NaN at cusps and open ends.

    |N_k| = 1/cos(theta_k/2), so N_k is defined (and unit) at straight
    vertices but blows up toward a cusp.
    """
    nu_prev, nu = _at_vertices(curve, curve.edge_normals)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (nu + nu_prev) / (1.0 + np.cos(curve.turning_angles))[:, None]
    out[~np.isfinite(out)] = np.nan
    return out


def vertex_normal(curve: DiscreteCurve, k: int) -> np.ndarray:
    return _value_at(curve, vertex_normals(curve), k, CuspVertex)


def vertex_tangents(curve: DiscreteCurve) -> np.ndarray:
    """T_k = -R N_k; orthogonal to N_k with the same norm."""
    return -rot90(vertex_normals(curve), curve.sigma)


def vertex_tangent(curve: DiscreteCurve, k: int) -> np.ndarray:
    return _value_at(curve, vertex_tangents(curve), k, CuspVertex)


def weighted_vertex_normals(curve: DiscreteCurve) -> np.ndarray:
    """Length-weighted normal (l_k nu_k + l_{k-1} nu_{k-1}) / (l_k + l_{k-1}).

    The volume-descent counterpart of N_k; the two agree in direction exactly
    when the adjacent edges have equal length.
    """
    nu_prev, nu = _at_vertices(curve, curve.edge_normals)
    l_prev, l = _at_vertices(curve, curve.edge_lengths)
    return (l[:, None] * nu + l_prev[:, None] * nu_prev) / (l + l_prev)[:, None]


def weighted_vertex_normal(curve: DiscreteCurve, k: int) -> np.ndarray:
    return _value_at(curve, weighted_vertex_normals(curve), k)


def _require_no_cusp(curve: DiscreteCurve):
    cusps = cusp_vertices(curve)
    if cusps.size:
        raise CuspVertex(int(cusps[0]))


def _check_offset(curve: DiscreteCurve, t: float, open_message: str):
    """Reject a distance t that is not finite, then an open curve."""
    if not np.isfinite(t):
        raise ValueError(f"offset distance t = {t} is not finite")
    if not curve.closed:
        raise OpenCurve(open_message)


def _offset_factors(curve: DiscreteCurve, t: float, open_message: str) -> np.ndarray:
    """1 - t * kappa(e_k) per edge, once the curve is known closed and cusp-free."""
    _check_offset(curve, t, open_message)
    _require_no_cusp(curve)
    return 1.0 - t * edge_curvatures(curve)


def parallel_curve(curve: DiscreteCurve, t: float) -> DiscreteCurve:
    """Offset curve p_k + t N_k; every edge stays parallel to its source edge."""
    factors = _offset_factors(curve, t, "parallel offsets require a closed curve")
    collapsing = np.flatnonzero(np.abs(factors) <= EDGE_COLLAPSE_TOL)
    if collapsing.size:
        raise EdgeCollapse(int(collapsing[0]))
    return curve.with_points(curve.points + t * vertex_normals(curve))


@dataclass(frozen=True)
class SteinerReport:
    t: float
    predicted_lengths: np.ndarray
    actual_lengths: np.ndarray
    max_abs_error: float


def steiner_report(curve: DiscreteCurve, t: float) -> SteinerReport:
    """Compare per-edge offset lengths against l_k (1 - t * kappa(e_k)).

    The identity is algebraically exact, so max_abs_error is pure round-off.
    Requires 1 - t * kappa(e_k) > 0 on every edge (no sign flip under the
    absolute value).
    """
    factors = _offset_factors(curve, t, "Steiner report requires a closed curve")
    bad = np.flatnonzero(factors <= EDGE_COLLAPSE_TOL)
    if bad.size:
        raise EdgeCollapse(int(bad[0]))
    predicted = curve.edge_lengths * factors
    actual = curve.with_points(curve.points + t * vertex_normals(curve)).edge_lengths
    return SteinerReport(
        t=float(t),
        predicted_lengths=predicted,
        actual_lengths=actual,
        max_abs_error=float(np.max(np.abs(predicted - actual))),
    )


def offset_length(curve: DiscreteCurve, t: float, variant: str) -> float:
    """Total length of the offset with segment / arc / wedge corner joins.

    segment: L - t * sum 2 sin(theta_k/2)
    arc:     L - t * sum theta_k          (Minkowski / normal-cone boundary)
    wedge:   L - t * sum 2 tan(theta_k/2) (equals the Steiner per-edge sum)
    """
    _check_offset(curve, t, "offset lengths require a closed curve")
    if variant == "wedge":
        _require_no_cusp(curve)  # before the turning angles warn about the cusp
    theta = curve.turning_angles
    length = float(curve.edge_lengths.sum())
    if variant == "segment":
        return length - t * float(np.sum(2.0 * np.sin(0.5 * theta)))
    if variant == "arc":
        return length - t * float(theta.sum())
    if variant == "wedge":
        return length - t * float(np.sum(2.0 * np.tan(0.5 * theta)))
    raise ValueError(f"unknown offset variant {variant!r}")


def offset_polygon(curve: DiscreteCurve, t: float, variant: str) -> DiscreteCurve:
    """Materialize the offset polygon for the segment or wedge variant.

    The wedge offset keeps the vertex count (it is the parallel curve); the
    segment offset inserts one corner chord per turning vertex.  The arc
    variant is not polygonal and cannot be materialized.
    """
    if variant == "wedge":
        return parallel_curve(curve, t)
    if variant == "segment":
        _check_offset(curve, t, "segment offsets require a closed curve")
        nu = curve.edge_normals
        pts, nxt = _at_edges(curve, curve.points)
        doubled = np.empty((2 * curve.n, 2))
        doubled[0::2] = pts + t * nu
        doubled[1::2] = nxt + t * nu
        # straight vertices (theta = 0) duplicate their corner point; drop them
        dedupe_tol = 1e-14 * max(curve.diameter(), 1.0)
        gaps = np.hypot(*(doubled - np.roll(doubled, 1, axis=0)).T)
        keep = gaps > dedupe_tol
        return DiscreteCurve(doubled[keep], closed=True, sigma=curve.sigma)
    if variant == "arc":
        raise ValueError("arc offsets are not polygonal; use offset_length")
    raise ValueError(f"unknown offset variant {variant!r}")


def frenet_edge_residuals(curve: DiscreteCurve) -> np.ndarray:
    """(N_{k+1} - N_k)/l_k + kappa(e_k) t_k per edge; identically zero."""
    N, N_next = _at_edges(curve, vertex_normals(curve))
    kap = edge_curvatures(curve)
    return (N_next - N) / curve.edge_lengths[:, None] + kap[:, None] * curve.tangents


def frenet_edge_residual(curve: DiscreteCurve, k: int) -> np.ndarray:
    return _value_at(curve, frenet_edge_residuals(curve), k, CuspAdjacent)
