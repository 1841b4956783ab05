"""Discrete planar curves and their elementary geometric quantities.

A curve is an ordered list of vertices ``p_0 .. p_{n-1}`` joined by straight
edges, either closed (polygon) or open (path).  The sign ``sigma`` fixes the
rotation ``R`` (by ``sigma * pi/2``) used to turn unit edge directions into
edge normals; every signed quantity downstream (turning angles, enclosed
area, curvatures) inherits this convention.  The default ``sigma = -1``
makes normals of counterclockwise convex polygons point outward.

Every quantity downstream is built from one set of per-edge and per-vertex
arrays.  A curve computes each of them once, on first use, and keeps it as a
read-only attribute (m = edge_count):

  edge_vectors    (m, 2)  p_{k+1} - p_k
  edge_lengths    (m,)    l_k = |p_{k+1} - p_k|
  tangents        (m, 2)  unit edge directions t_k
  edge_normals    (m, 2)  nu_k = R t_k
  turning_angles  (n,)    theta_k in (-pi, pi], NaN at open-curve ends
  cusp_mask       (n,)    True where 1 + cos(theta_k) <= CUSP_TOL
  chords          (n, 2)  p_{k+1} - p_{k-1}, NaN at open-curve ends

The module functions of the same names return these arrays.

Neighbours: vertex k lies between edges k-1 and k, edge k runs from vertex k
to vertex k+1, and indices wrap around on a closed curve.  A value built from
both neighbours is NaN where an open curve ends.  _at_vertices and _at_edges
apply this rule, and _value_at is the one single-index lookup.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CuspPresent,
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
    out[..., 0] = -sigma * v[..., 1]
    out[..., 1] = sigma * v[..., 0]
    return out


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
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array of vertices")
        if not np.all(np.isfinite(pts)):
            raise ValueError("vertex coordinates must be finite")
        n = len(pts)
        if (self.closed and n < 3) or (not self.closed and n < 2):
            raise TooFewVertices(f"{n} vertices (closed={self.closed})")
        if self.sigma not in (-1, 1):
            raise ValueError("sigma must be +1 or -1")
        # for finite doubles p_{k+1} - p_k == 0 exactly when p_{k+1} == p_k
        same = pts[1:] == pts[:-1]
        zero = np.flatnonzero(same[:, 0] & same[:, 1]).tolist()
        if self.closed and np.all(pts[0] == pts[-1]):
            zero.append(n - 1)
        if zero:
            raise ZeroEdge(zero[0])
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
        """Bounding-box diagonal; the length scale used by tolerances."""
        span = self.points.max(axis=0) - self.points.min(axis=0)
        return float(np.hypot(span[0], span[1]))

    @cached_property
    def edge_vectors(self) -> np.ndarray:
        starts, ends = _at_edges(self, self.points)
        return _frozen(ends - starts)

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        e = self.edge_vectors
        return _frozen(np.hypot(e[:, 0], e[:, 1]))

    @cached_property
    def tangents(self) -> np.ndarray:
        return _frozen(self.edge_vectors / self.edge_lengths[:, None])

    @cached_property
    def edge_normals(self) -> np.ndarray:
        return _frozen(rot90(self.tangents, self.sigma))

    @cached_property
    def chords(self) -> np.ndarray:
        # p_{k+1} ends edge k and p_{k-1} starts edge k-1
        starts, ends = _at_edges(self, self.points)
        return _frozen(_at_vertices(self, ends)[1] - _at_vertices(self, starts)[0])

    @cached_property
    def _snapped_angles(self):
        """(theta, cusp mask), theta already snapped to pi at cusps."""
        prev, cur = _at_vertices(self, self.tangents)
        cross = prev[:, 0] * cur[:, 1] - prev[:, 1] * cur[:, 0]
        dot = prev[:, 0] * cur[:, 0] + prev[:, 1] * cur[:, 1]
        theta = self.sigma * np.arctan2(cross, dot)
        with np.errstate(invalid="ignore"):
            cusp = 1.0 + np.cos(theta) <= CUSP_TOL
        theta[cusp] = np.pi
        return _frozen(theta), _frozen(cusp)

    @property
    def cusp_mask(self) -> np.ndarray:
        return self._snapped_angles[1]

    @cached_property
    def turning_angles(self) -> np.ndarray:
        theta, cusp = self._snapped_angles
        if cusp.any():
            warnings.warn(CuspWarning(f"cusp at vertices {np.flatnonzero(cusp).tolist()}"))
        return theta


def _at_vertices(curve: DiscreteCurve, per_edge: np.ndarray):
    """(a_{k-1}, a_k) at every vertex k; a NaN row where an open curve ends."""
    if curve.closed:  # np.roll(per_edge, 1, axis=0), at a fraction of its overhead
        return np.concatenate([per_edge[-1:], per_edge[:-1]]), per_edge
    pad = np.full((1,) + per_edge.shape[1:], np.nan)
    return np.concatenate([pad, per_edge]), np.concatenate([per_edge, pad])


def _at_edges(curve: DiscreteCurve, per_vertex: np.ndarray):
    """(a_k, a_{k+1}) at the two end vertices of every edge k."""
    if curve.closed:
        return per_vertex, np.concatenate([per_vertex[1:], per_vertex[:1]])
    return per_vertex[:-1], per_vertex[1:]


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


def total_length(curve: DiscreteCurve) -> float:
    return float(curve.edge_lengths.sum())


def enclosed_volume(curve: DiscreteCurve) -> float:
    """Signed area (1/2) sum <p_k, nu_k> l_k; sign depends on orientation and sigma."""
    if not curve.closed:
        raise OpenCurve("enclosed volume requires a closed curve")
    return _signed_area(curve.points, curve.sigma)


def _signed_area(points: np.ndarray, sigma: int) -> float:
    """enclosed_volume of the closed polygon through points, which need not be a curve."""
    re = rot90(np.concatenate([points[1:], points[:1]]) - points, sigma)
    return 0.5 * float(np.sum(points[:, 0] * re[:, 0] + points[:, 1] * re[:, 1]))


def turning_number(curve: DiscreteCurve) -> int:
    """Integer m with sum(theta_k) = 2*pi*m."""
    if not curve.closed:
        raise OpenCurve("turning number requires a closed curve")
    if curve.cusp_mask.any():
        raise CuspPresent("turning number undefined with cusp vertices")
    total = float(turning_angles(curve).sum())
    m = round(total / (2.0 * np.pi))
    if abs(total - 2.0 * np.pi * m) > TURNING_RESIDUAL_TOL:
        raise NonIntegerTurning(f"angle sum {total} is not a multiple of 2*pi")
    return int(m)
