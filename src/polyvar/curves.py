"""Discrete planar curves and their elementary geometric quantities.

A curve is an ordered list of vertices ``p_0 .. p_{n-1}`` joined by straight
edges, either closed (polygon) or open (path).  The sign ``sigma`` fixes the
rotation ``R`` (by ``sigma * pi/2``) used to turn unit edge directions into
edge normals; every signed quantity downstream (turning angles, enclosed
area, curvatures) inherits this convention.  The default ``sigma = -1``
makes normals of counterclockwise convex polygons point outward.

Every quantity downstream is built from one set of per-edge and per-vertex
arrays.  A curve computes each of them once, on first use, and keeps it as a
read-only attribute (m = edge_count; * taken at the curve's power of two):

  edge_vectors*   (m, 2)  p_{k+1} - p_k
  edge_lengths*   (m,)    l_k = |p_{k+1} - p_k|
  tangents        (m, 2)  unit edge directions t_k
  edge_normals    (m, 2)  nu_k = R t_k
  turning_angles  (n,)    theta_k in (-pi, pi], NaN at open-curve ends
  cusp_mask       (n,)    True where 1 + cos(theta_k) <= CUSP_TOL
  _snapped_angles 3x(n,)  theta_k, cusp_mask and 1 + cos(theta_k), the one place cos is taken
  chords*         (n, 2)  p_{k+1} - p_{k-1}, NaN at open-curve ends
  vertex_normals  (n, 2)  N_k = (nu_k + nu_{k-1}) / (1 + cos theta_k),
                          NaN at cusps and open-curve ends
  vertex_tangents (n, 2)  T_k = -R N_k, NaN where N_k is
  _half_angles    3x(n,)  sin, cos and tan of theta_k/2, the one place they are taken
  edge_curvatures (m,)    kappa(e_k) = (tan(theta_k/2) + tan(theta_{k+1}/2)) / l_k,
                          NaN next to a cusp and on the end edges of an open curve

The functions of the same names (here, in offsets and in curvature) return
these arrays, and each is computed by one array helper (_at_scale,
_edge_vectors, _norms, _tangents, _chords, _turning_angles, _signed_area),
which the flow also calls on its points.  The one cusp rule is
_require_no_cusp (CuspVertex), the one closed-curve rule _require_closed.

Every (n, 2) kernel runs along the long axis: no broadcast across the short
axis.  An (n,) array scales or divides the rows of an (n, 2) one through
_by_rows, one column at a time into one output, and the edges and chords of
a closed curve are slices subtracted into one output.  The bits are those
of the broadcast, at a fraction of its cost.

A curve's own power of two is e with 2^e > diameter >= 2^(e-1) (_scale_of).
The curve keeps x = points 2^-e and its edges, lengths and chords, which keeps
every bit (ZeroEdge where an edge vanishes there); tangents come from these.
One rule for every reader: it computes on these scaled arrays (_scaled,
_scaled_chords, _scale) and converts its result back once through _unscaled
(times 2^e per unit of length, inf on overflow).  An operand that is not the
curve's is taken at its own power of two too, and the result scaled back by
both: kappa = k 2^g only in variation._times_kappa, and a field, a function
psi on the vertices or their differences only in _field_scale.  With
_scale_of, which takes an offset's points too, they are the only places
that split a number into its mantissa and power of two.  diameter(), total_length and
the * arrays are such results; only readers that return values in the
caller's units, such as offset_length, parallel_curve and the points of the
segment offset, read them.
Only this module and flow call ldexp, and variation._kappa, whose
OverflowError is how it detects a vanishing area gradient.

Neighbours: vertex k lies between edges k-1 and k, edge k runs from vertex k
to vertex k+1, and indices wrap around on a closed curve.  A value built from
both neighbours is NaN where an open curve ends (_at_vertices, _at_edges; and
at cusps too, _at_cusp_free_edges).  _value_at is the one single-index lookup.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CuspVertex,
    CuspWarning,
    InvalidWinding,
    NonIntegerTurning,
    OpenCurve,
    TooFewVertices,
    ZeroEdge,
)

# 1 + cos(theta_k) at or below this marks vertex k as a cusp (theta = +/-pi).
CUSP_TOL = 1e-12

# |sum(theta_k) - 2*pi*round(...)| above this means corrupted angles.
TURNING_RESIDUAL_TOL = 1e-9


def rot90(vectors, sigma):
    """Rotate 2-vectors by sigma * pi/2 (the map R of the normal convention)."""
    v = np.asarray(vectors, dtype=float)
    out = np.empty_like(v)
    np.multiply(v[..., 1], -sigma, out=out[..., 0])
    np.multiply(v[..., 0], sigma, out=out[..., 1])
    return out


def _by_rows(op, vectors: np.ndarray, values, out=None, **kwargs) -> np.ndarray:
    """The ufunc op(v_k, values_k) for every row v_k of an (m, 2) array, one column at a time into out.

    Broadcasting values across the short axis instead makes numpy loop
    over the two columns for every row; this gives the same bits at a
    fraction of the cost.  kwargs go to op (where=).
    """
    if out is None:
        out = np.empty_like(vectors, dtype=float)
    op(vectors[:, 0], values, out=out[:, 0], **kwargs)
    op(vectors[:, 1], values, out=out[:, 1], **kwargs)
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of two (n, 2) arrays, one column at a time."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False, repr=False)
class DiscreteCurve:
    """Immutable polygonal curve: vertex positions, closed flag, normal sign.

    points  -- (n, 2) float array, one row per vertex
    closed  -- True for a polygon, False for a path
    sigma   -- +1 or -1, fixed for the whole curve
    """

    points: np.ndarray
    closed: bool = True
    sigma: int = -1

    def __repr__(self):
        kind = "closed" if self.closed else "open"
        return f"DiscreteCurve(n={self.n}, {kind}, sigma={self.sigma:+d})"

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, order="C")
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array of vertices")
        if not np.isfinite(pts).all():
            raise ValueError("vertex coordinates must be finite")
        n = len(pts)
        if (self.closed and n < 3) or (not self.closed and n < 2):
            raise TooFewVertices(f"{n} vertices (closed={self.closed})")
        if self.sigma not in (-1, 1):
            raise ValueError("sigma must be +1 or -1")
        # for finite doubles p_{k+1} - p_k == 0 exactly when p_{k+1} == p_k
        same = pts[1:] == pts[:-1]
        zero = same[:, 0] & same[:, 1]
        if zero.any():
            raise ZeroEdge(int(zero.argmax()))
        if self.closed and pts[0, 0] == pts[-1, 0] and pts[0, 1] == pts[-1, 1]:
            raise ZeroEdge(n - 1)
        object.__setattr__(self, "points", _frozen(pts))
        object.__setattr__(self, "sigma", int(self.sigma))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def edge_count(self) -> int:
        return self.n if self.closed else self.n - 1

    def is_interior(self, k: int) -> bool:
        return 0 <= k < self.n and (self.closed or 0 < k < self.n - 1)

    def interior_range(self) -> range:
        return range(self.n) if self.closed else range(1, self.n - 1)

    def with_points(self, points) -> "DiscreteCurve":
        """New curve with the same closed/sigma convention."""
        return DiscreteCurve(points, closed=self.closed, sigma=self.sigma)

    def diameter(self) -> float:
        """Bounding-box diagonal; the length scale used by tolerances, inf where it overflows."""
        return float(_unscaled(*self._scale))

    @cached_property
    def _scale(self) -> tuple[float, int]:
        return _scale_of(self.points)

    @cached_property
    def _scaled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(map(_frozen, _at_scale(self.points, self.closed, self._scale[1])))

    @cached_property
    def _scaled_chords(self) -> np.ndarray:
        return _frozen(_chords(self._scaled[0], self.closed))

    @cached_property
    def edge_vectors(self) -> np.ndarray:
        return _frozen(_unscaled(self._scaled[1], self._scale[1]))

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        return _frozen(_unscaled(self._scaled[2], self._scale[1]))

    @cached_property
    def tangents(self) -> np.ndarray:
        return _frozen(_tangents(*self._scaled[1:]))

    @cached_property
    def edge_normals(self) -> np.ndarray:
        return _frozen(rot90(self.tangents, self.sigma))

    @cached_property
    def chords(self) -> np.ndarray:
        return _frozen(_unscaled(self._scaled_chords, self._scale[1]))

    @cached_property
    def _snapped_angles(self):
        """(theta, cusp mask, 1 + cos theta), theta already snapped to pi at cusps."""
        return tuple(map(_frozen, _turning_angles(self.tangents, self.sigma, self.closed)))

    @property
    def cusp_mask(self) -> np.ndarray:
        return self._snapped_angles[1]

    @cached_property
    def turning_angles(self) -> np.ndarray:
        theta, cusp, _ = self._snapped_angles
        if cusp.any():
            warnings.warn(CuspWarning(f"cusp at vertices {np.flatnonzero(cusp).tolist()}"))
        return theta

    @cached_property
    def vertex_normals(self) -> np.ndarray:
        self.turning_angles  # warns where there is a cusp, as every reader of the angles does
        nu_prev, nu = _at_vertices(self.closed, self.edge_normals)
        out = nu + nu_prev
        with np.errstate(invalid="ignore", divide="ignore"):  # NaN at the ends of an open curve
            _by_rows(np.divide, out, self._snapped_angles[2], out=out)
        out[self.cusp_mask] = np.nan
        return _frozen(out)

    @cached_property
    def vertex_tangents(self) -> np.ndarray:
        return _frozen(-rot90(self.vertex_normals, self.sigma))

    @cached_property
    def _half_angles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        half = 0.5 * self.turning_angles
        return _frozen(np.sin(half)), _frozen(np.cos(half)), _frozen(np.tan(half))

    @cached_property
    def edge_curvatures(self) -> np.ndarray:
        tan0, tan1 = _at_cusp_free_edges(self, self._half_angles[2])
        with np.errstate(invalid="ignore", over="ignore"):
            return _frozen(_unscaled((tan0 + tan1) / self._scaled[2], -self._scale[1]))


def _at_vertices(closed: bool, per_edge: np.ndarray):
    """(a_{k-1}, a_k) at every vertex k; a NaN row where an open curve ends."""
    if closed:  # np.roll(per_edge, 1, axis=0), at a fraction of its overhead
        return np.concatenate([per_edge[-1:], per_edge[:-1]]), per_edge
    pad = np.full((1,) + per_edge.shape[1:], np.nan)
    return np.concatenate([pad, per_edge]), np.concatenate([per_edge, pad])


def _at_edges(closed: bool, per_vertex: np.ndarray):
    """(a_k, a_{k+1}) at the two end vertices of every edge k."""
    if closed:
        return per_vertex, np.concatenate([per_vertex[1:], per_vertex[:1]])
    return per_vertex[:-1], per_vertex[1:]


def _bounding_diagonal(points: np.ndarray) -> float:
    xy = np.ascontiguousarray(points.T)  # reduce along the long axis
    with np.errstate(over="ignore"):  # inf where finite points span more than the float range
        span = xy.max(axis=1) - xy.min(axis=1)
        return float(np.hypot(span[0], span[1]))


def _scale_of(points: np.ndarray) -> tuple[float, int]:
    """(diameter 2^-e, e), 2^e > diameter >= 2^(e-1), the points' bounding diagonal; e stays finite where it overflows."""
    diameter = _bounding_diagonal(points)
    if diameter == math.inf:  # taken on the points times 1/4
        scaled, e = _scale_of(np.ldexp(points, -2))
        return scaled, e + 2
    return math.frexp(diameter)


def _at_scale(points: np.ndarray, closed: bool, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.ldexp(points, -e)
    edges = _edge_vectors(x, closed)
    lengths = _norms(edges)
    if not lengths.all():  # an edge shorter than about 2^(e-1075) vanishes at this scale
        raise ZeroEdge(int(lengths.argmin()))
    return x, edges, lengths


def _unscaled(values, e: int):
    with np.errstate(over="ignore"):  # values 2^e, inf where that overflows, with no warning
        return np.ldexp(values, e)


def _field_scale(values):
    """(values 2^-f, f), f the power of two of max |values|: 2^f > max |values| >= 2^(f-1), f = 0 where it is 0.

    A field, a function psi on the vertices, their differences, a line
    element or a length of the closed form is taken at its own power of two,
    as a curve's points are at the curve's (_scale_of).  NaN entries, such as
    an open curve's ends, do not count towards the maximum.
    """
    f = math.frexp(float(np.fmax.reduce(np.abs(values), axis=None, initial=0.0)))[1]
    return _unscaled(values, -f), f


def _edge_vectors(points: np.ndarray, closed: bool) -> np.ndarray:
    if not closed:
        return points[1:] - points[:-1]
    out = np.empty_like(points)
    np.subtract(points[1:], points[:-1], out=out[:-1])
    np.subtract(points[0], points[-1], out=out[-1])
    return out


def _norms(vectors: np.ndarray) -> np.ndarray:
    """|v_k| of every row of an (m, 2) array."""
    return np.hypot(vectors[:, 0], vectors[:, 1])


def _tangents(edges: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    return _by_rows(np.divide, edges, lengths)


def _chords(points: np.ndarray, closed: bool) -> np.ndarray:
    """p_{k+1} - p_{k-1} at every vertex k; a NaN row where an open curve ends."""
    out = np.empty_like(points) if closed else np.full_like(points, np.nan)
    np.subtract(points[2:], points[:-2], out=out[1:-1])
    if closed:
        np.subtract(points[1], points[-1], out=out[0])
        np.subtract(points[0], points[-2], out=out[-1])
    return out


def _turning_angles(tangents: np.ndarray, sigma: int, closed: bool):
    """(theta, cusp mask, 1 + cos theta) from the unit edge directions, theta snapped to pi at cusps."""
    prev, cur = _at_vertices(closed, tangents)
    cross = prev[:, 0] * cur[:, 1] - prev[:, 1] * cur[:, 0]
    theta = sigma * np.arctan2(cross, _dot(prev, cur))
    one_plus_cos = 1.0 + np.cos(theta)
    cusp = one_plus_cos <= CUSP_TOL
    theta[cusp] = np.pi
    return theta, cusp, one_plus_cos


def _at_cusp_free_edges(curve: DiscreteCurve, per_vertex: np.ndarray):
    """(a_k, a_{k+1}) per edge of a per-vertex array, NaN at cusps or outside the interior."""
    return _at_edges(curve.closed, np.where(curve.cusp_mask, np.nan, per_vertex))


def _value_at(curve: DiscreteCurve, values: np.ndarray, k: int, undefined=None):
    """values[k] of a per-vertex (length n) or per-edge array, as a float or a row.

    IndexError unless k is an interior vertex or an edge, or where the value
    at a boundary edge of an open curve is not finite; undefined(k) where any
    other value is not finite (unless undefined is None).
    """
    # a closed curve has as many edges as vertices, and no boundary edges
    per_vertex = len(values) == curve.n
    if not (curve.is_interior(k) if per_vertex else 0 <= k < curve.edge_count):
        raise IndexError(f"index {k} out of range")
    value = values[k]
    if undefined is not None and not np.all(np.isfinite(value)):
        if not per_vertex and k in (0, curve.edge_count - 1):
            raise IndexError(f"edge {k} touches an end of the open curve")
        raise undefined(k)
    return float(value) if np.ndim(value) == 0 else value


def _check_regular(n: int, m: int, a: float = 1.0) -> None:
    if 2 * m == n:
        raise InvalidWinding(f"m/n = 1/2 rejected (m = {m}, n = {n})")
    if not 1 <= m <= n - 1:
        raise InvalidWinding(f"m = {m} outside 1..{n - 1}")
    if not 0 < a < np.inf:
        raise ValueError(f"radius a = {a} must be finite and positive")


def make_curve(points, closed: bool = True, sigma: int = -1) -> DiscreteCurve:
    """Validate and build a curve from a sequence of 2-vectors."""
    return DiscreteCurve(points, closed=closed, sigma=sigma)


def regular_polygon(n, m=1, a=1.0, center=(0.0, 0.0), phase=0.0, sigma=-1) -> DiscreteCurve:
    """Regular (possibly star) polygon: p_k = center + a*(cos, sin)(2*pi*m*k/n + phase).

    ``m`` is the winding of the vertex placement: m = 1 is the convex polygon,
    2 <= m <= n-2 the star polygons.  m/n = 1/2 is rejected (antipodal vertex
    pairs collapse the construction).
    """
    n = int(n)
    m = int(m)
    if n < 3:
        raise TooFewVertices(f"{n} vertices")
    _check_regular(n, m, a)
    angles = 2.0 * np.pi * m * np.arange(n) / n + phase
    pts = np.asarray(center, dtype=float) + a * np.column_stack([np.cos(angles), np.sin(angles)])
    return DiscreteCurve(pts, closed=True, sigma=sigma)


def edge_vectors(curve: DiscreteCurve) -> np.ndarray:
    """p_{k+1} - p_k for every edge k."""
    return curve.edge_vectors


def edge_lengths(curve: DiscreteCurve) -> np.ndarray:
    return curve.edge_lengths


def edge_normals(curve: DiscreteCurve) -> np.ndarray:
    """Unit edge normals nu_k = R((p_{k+1} - p_k) / l_k)."""
    return curve.edge_normals


def edge_normal(curve: DiscreteCurve, k: int) -> np.ndarray:
    return _value_at(curve, curve.edge_normals, k)


def turning_angles(curve: DiscreteCurve) -> np.ndarray:
    """Signed turning angle theta_k at every vertex (NaN at open-curve ends).

    Defined by R_{sigma * theta_k}(nu_{k-1}) = nu_k with theta_k in (-pi, pi].
    Antiparallel edges give theta_k = +pi and emit a CuspWarning, once per
    curve.
    """
    return curve.turning_angles


def turning_angle(curve: DiscreteCurve, k: int) -> float:
    return _value_at(curve, curve.turning_angles, k)


def cusp_vertices(curve: DiscreteCurve) -> np.ndarray:
    """Indices of interior vertices whose adjacent edges are antiparallel."""
    return np.flatnonzero(curve.cusp_mask)


def _require_no_cusp(cusp: np.ndarray):
    """CuspVertex at the first vertex of the cusp mask."""
    if cusp.any():
        raise CuspVertex(int(cusp.argmax()))


def _require_closed(curve: DiscreteCurve, what: str):
    if not curve.closed:
        raise OpenCurve(f"{what} requires a closed curve")


def total_length(curve: DiscreteCurve) -> float:
    return float(_unscaled(curve._scaled[2].sum(), curve._scale[1]))


def enclosed_volume(curve: DiscreteCurve) -> float:
    """Signed area (1/2) sum <p_k, nu_k> l_k, at the curve's power of two; sign depends on orientation and sigma."""
    _require_closed(curve, "the enclosed volume")
    e = _scale_of(curve.points)[1]  # caches nothing on the curve
    return _area(np.ldexp(curve.points, -e), curve.sigma, e)


def _area(x: np.ndarray, sigma: int, e: int) -> float:
    """_signed_area of the points x 2^e, taken on x and scaled back by 2^2e (inf where that overflows)."""
    return float(_unscaled(_signed_area(x, sigma), 2 * e))


def _signed_area(points: np.ndarray, sigma: int) -> float:
    """The signed area of the closed polygon through points, which need not be a curve.

    (1/2) sum <p_k, R e_k> = -(sigma/2) sum (x_k e_k,y - y_k e_k,x), with the
    edges e_k = p_{k+1} - p_k computed here, so that a curve caches no array.
    """
    edges = _edge_vectors(points, True)
    xe, ye = points[:, 0] * edges[:, 1], points[:, 1] * edges[:, 0]
    # the difference taken in sigma's order is <p_k, R e_k> to the bit, zeros' signs included
    cross = xe - ye if sigma < 0 else ye - xe
    return 0.5 * float(cross.sum())


def turning_number(curve: DiscreteCurve) -> int:
    """Integer m with sum(theta_k) = 2*pi*m; CuspVertex (a CuspPresent) at the first cusp."""
    _require_closed(curve, "the turning number")
    return _turning_number(*curve._snapped_angles[:2])


def _turning_number(theta: np.ndarray, cusp: np.ndarray) -> int:
    """turning_number from _turning_angles of a closed curve."""
    _require_no_cusp(cusp)
    total = float(theta.sum())
    m = round(total / (2.0 * np.pi))
    if abs(total - 2.0 * np.pi * m) > TURNING_RESIDUAL_TOL:
        raise NonIntegerTurning(f"angle sum {total} is not a multiple of 2*pi")
    return int(m)
