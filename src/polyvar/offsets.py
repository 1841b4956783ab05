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

from .curves import DiscreteCurve, _at_edges, _at_scale, _at_vertices, _by_rows, _require_closed, _require_no_cusp
from .curves import _norms, _scale_of, _unscaled, _value_at, total_length
from .errors import CornerOverlap, CuspAdjacent, CuspVertex, EdgeCollapse

OFFSET_VARIANTS = ("segment", "arc", "wedge")

# 1 - t * kappa(e_k) at or below this aborts the offset instead of
# producing a zero-length or reversed edge.
EDGE_COLLAPSE_TOL = 1e-9


def vertex_normals(curve: DiscreteCurve) -> np.ndarray:
    """N_k = (nu_k + nu_{k-1}) / (1 + cos theta_k); NaN at cusps and open ends.

    |N_k| = 1/cos(theta_k/2), so N_k is defined (and unit) at straight
    vertices but blows up toward a cusp.  Read-only, computed once per curve.
    """
    return curve.vertex_normals


def vertex_normal(curve: DiscreteCurve, k: int) -> np.ndarray:
    return _value_at(curve, vertex_normals(curve), k, CuspVertex)


def vertex_tangents(curve: DiscreteCurve) -> np.ndarray:
    """T_k = -R N_k; orthogonal to N_k with the same norm.  Read-only, computed once per curve."""
    return curve.vertex_tangents


def vertex_tangent(curve: DiscreteCurve, k: int) -> np.ndarray:
    return _value_at(curve, vertex_tangents(curve), k, CuspVertex)


def weighted_vertex_normals(curve: DiscreteCurve) -> np.ndarray:
    """Length-weighted normal (l_k nu_k + l_{k-1} nu_{k-1}) / (l_k + l_{k-1}).

    The volume-descent counterpart of N_k; the two agree in direction exactly
    when the adjacent edges have equal length.
    """
    nu_prev, nu = _at_vertices(curve.closed, curve.edge_normals)
    l_prev, l = _at_vertices(curve.closed, curve._scaled[2])
    out = _by_rows(np.multiply, nu, l)
    out += _by_rows(np.multiply, nu_prev, l_prev)
    return _by_rows(np.divide, out, l + l_prev, out=out)


def weighted_vertex_normal(curve: DiscreteCurve, k: int) -> np.ndarray:
    return _value_at(curve, weighted_vertex_normals(curve), k)


def _check_offset(curve: DiscreteCurve, t: float, what: str):
    """Reject a distance t that is not finite, then an open curve (OpenCurve names what)."""
    if not np.isfinite(t):
        raise ValueError(f"offset distance t = {t} is not finite")
    _require_closed(curve, what)


def _offset_factors(curve: DiscreteCurve, t: float, what: str) -> np.ndarray:
    """1 - t * kappa(e_k) per edge of a closed, cusp-free curve; +-inf, with no warning, where t * kappa(e_k) overflows.

    EdgeCollapse where a factor is at or below EDGE_COLLAPSE_TOL: that edge
    of the offset would vanish or point backwards.
    """
    _check_offset(curve, t, what)
    _require_no_cusp(curve.cusp_mask)
    with np.errstate(over="ignore"):
        factors = 1.0 - t * curve.edge_curvatures
    collapsing = np.flatnonzero(factors <= EDGE_COLLAPSE_TOL)
    if collapsing.size:
        raise EdgeCollapse(int(collapsing[0]))
    return factors


def _require_corners_away(curve: DiscreteCurve, t: float, variant: str):
    """CornerOverlap at the first vertex whose segment or arc join turns toward the offset, t * theta_k > 0.

    The segment and arc length formulas count every corner chord or arc as
    turning away from the offset; the wedge join has no such corner.  The
    test compares the signs of theta_k and t, so that no product overflows.
    """
    if variant in ("segment", "arc"):
        toward = np.flatnonzero(np.sign(t) * curve.turning_angles > 0)
        if toward.size:
            raise CornerOverlap(int(toward[0]), variant)


def _offset_points(points: np.ndarray, t: float, normals: np.ndarray) -> np.ndarray:
    """points + t normals in the caller's units; ValueError, and no overflow warning, where a coordinate is not finite."""
    with np.errstate(over="ignore"):
        moved = points + t * normals
    if not np.isfinite(moved).all():
        raise ValueError("vertex coordinates must be finite")
    return moved


def parallel_curve(curve: DiscreteCurve, t: float) -> DiscreteCurve:
    """Offset curve p_k + t N_k; every edge stays parallel to its source edge."""
    _offset_factors(curve, t, "a parallel offset")
    return curve.with_points(_offset_points(curve.points, t, vertex_normals(curve)))


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
    absolute value).  The predicted lengths are taken on the lengths at the
    curve's power of two e.  The actual lengths are those of the offset
    points p_k + t N_k, taken at their own power of two d as parallel_curve's
    curve would take them (ValueError where a point is not finite, ZeroEdge
    where an edge vanishes), but no curve is built.  The error is taken at
    the curve's power of two, the actual lengths converted there from d, so
    it is finite where both lengths overflow; each is scaled back once.
    """
    factors = _offset_factors(curve, t, "the Steiner report")
    e = curve._scale[1]
    predicted = curve._scaled[2] * factors
    offset = _offset_points(curve.points, t, vertex_normals(curve))
    d = _scale_of(offset)[1]
    actual = _at_scale(offset, curve.closed, d)[2]
    error = np.max(np.abs(predicted - _unscaled(actual, d - e)))
    return SteinerReport(
        t=float(t),
        predicted_lengths=_unscaled(predicted, e),
        actual_lengths=_unscaled(actual, d),
        max_abs_error=float(_unscaled(error, e)),
    )


def offset_length(curve: DiscreteCurve, t: float, variant: str) -> float:
    """Total length of the offset with segment / arc / wedge corner joins.

    segment: L - t * sum 2 sin(theta_k/2)
    arc:     L - t * sum theta_k          (Minkowski / normal-cone boundary)
    wedge:   L - t * sum 2 tan(theta_k/2) (equals the Steiner per-edge sum)

    The segment and arc formulas describe the offset only where no corner
    turns toward it, t * theta_k <= 0 at every vertex.  Elsewhere the
    segment variant raises CornerOverlap; the arc formula is returned all
    the same, with each such corner's arc counted as a negative length (so
    it is not the length of an offset curve, and polyvar offset marks the
    row corner_overlap).
    """
    _check_offset(curve, t, "the offset length")
    if variant == "segment":
        _require_corners_away(curve, t, variant)
        corners = 2.0 * curve._half_angles[0]
    elif variant == "arc":
        corners = curve.turning_angles
    elif variant == "wedge":
        _require_no_cusp(curve.cusp_mask)  # before the turning angles warn about the cusp
        corners = 2.0 * curve._half_angles[2]
    else:
        raise ValueError(f"unknown offset variant {variant!r}")
    return total_length(curve) - t * float(np.sum(corners))


def offset_polygon(curve: DiscreteCurve, t: float, variant: str) -> DiscreteCurve:
    """Materialize the offset polygon for the segment or wedge variant.

    The wedge offset keeps the vertex count (it is the parallel curve); the
    segment offset inserts one corner chord per turning vertex.  The arc
    variant is not polygonal and cannot be materialized.
    """
    if variant == "wedge":
        return parallel_curve(curve, t)
    if variant == "segment":
        _check_offset(curve, t, "the segment offset")
        # p_k + t nu_k and p_{k+1} + t nu_k, the two ends of offset edge k, in turn
        ends = np.stack(_at_edges(curve.closed, curve.points), axis=1).reshape(-1, 2)
        doubled = _offset_points(ends, t, np.repeat(curve.edge_normals, 2, axis=0))
        # straight vertices (theta = 0) duplicate their corner point; drop them.  The gaps
        # are taken at the doubled points' own power of two, 1e-14 * diameter at the curve's
        e = _scale_of(doubled)[1]
        x = _unscaled(doubled, -e)
        gaps = _unscaled(_norms(x - np.roll(x, 1, axis=0)), e)
        keep = gaps > _unscaled(1e-14 * curve._scale[0], curve._scale[1])
        return DiscreteCurve(doubled[keep], closed=True, sigma=curve.sigma)
    if variant == "arc":
        raise ValueError("arc offsets are not polygonal; use offset_length")
    raise ValueError(f"unknown offset variant {variant!r}")


def frenet_edge_residuals(curve: DiscreteCurve) -> np.ndarray:
    """(N_{k+1} - N_k)/l_k + kappa(e_k) t_k per edge; identically zero.

    The difference quotient is taken at the curve's power of two, so it
    stays finite where l_k overflows.
    """
    N, N_next = _at_edges(curve.closed, vertex_normals(curve))
    quotient = _by_rows(np.divide, N_next - N, curve._scaled[2])
    out = _unscaled(quotient, -curve._scale[1])
    out += _by_rows(np.multiply, curve.tangents, curve.edge_curvatures)
    return out


def frenet_edge_residual(curve: DiscreteCurve, k: int) -> np.ndarray:
    return _value_at(curve, frenet_edge_residuals(curve), k, CuspAdjacent)
