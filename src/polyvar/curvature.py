"""Discrete curvature with pluggable vertex line elements, plus the curve calculus.

There is no canonical line element at a vertex of a polygon; every positive
choice ``L_k`` yields its own curvature vector ``(1/L_k)(t_k - t_{k-1})`` and
scalar curvature ``2 sin(theta_k/2) / L_k``.  The named schemes reproduce the
classical notions:

  vertex_osculating  L_k = |p_{k+1} - p_{k-1}| / (2 cos(theta_k/2))
  arclength          L_k = l_0 cos(theta_k/2)      (uniform edge lengths only)
  hatakeyama         L_k = l_{k-1}
  half_edge_sum      L_k = (l_k + l_{k-1}) / 2

A custom scheme is any array of positive per-vertex values.  Vectorized
functions mark pointwise-inapplicable vertices (cusps) with NaN; the scalar
accessors raise instead.
"""

from __future__ import annotations

import numpy as np

from .curves import DiscreteCurve, _check_index
from .errors import CuspAdjacent, SchemeInapplicable

SCHEMES = ("vertex_osculating", "arclength", "hatakeyama", "half_edge_sum")

# Relative spread of edge lengths tolerated by the arclength scheme.
ARCLENGTH_UNIFORM_TOL = 1e-9


def _adjacent_edge_lengths(curve: DiscreteCurve):
    """(l_{k-1}, l_k) per vertex; NaN where the edge does not exist (open ends)."""
    l = curve.edge_lengths
    if curve.closed:
        return np.roll(l, 1), l
    l_prev = np.full(curve.n, np.nan)
    l_next = np.full(curve.n, np.nan)
    l_prev[1:] = l
    l_next[:-1] = l
    return l_prev, l_next


def line_elements(curve: DiscreteCurve, scheme) -> np.ndarray:
    """Per-vertex line element L_k for the chosen scheme.

    NaN at open-curve boundary vertices and at vertices where the scheme is
    pointwise undefined (cusps under vertex_osculating/arclength).  Raises
    SchemeInapplicable for curve-wide failures: arclength on a curve with
    non-uniform edge lengths, or an invalid custom array.
    """
    n = curve.n
    if not isinstance(scheme, str):
        custom = np.array(scheme, dtype=float)
        if custom.shape != (n,):
            raise SchemeInapplicable(f"custom line elements must have shape ({n},)")
        interior = custom if curve.closed else custom[1:-1]
        if not np.all(interior > 0):
            raise SchemeInapplicable("custom line elements must be positive")
        if curve.closed:
            return custom
        out = custom.copy()
        out[0] = out[-1] = np.nan
        return out

    l_prev, l_next = _adjacent_edge_lengths(curve)
    if scheme == "hatakeyama":
        return l_prev.copy()
    if scheme == "half_edge_sum":
        return 0.5 * (l_prev + l_next)

    half_cos = np.cos(0.5 * curve.turning_angles)
    cusp = curve.cusp_mask
    if scheme == "vertex_osculating":
        pts = curve.points
        if curve.closed:
            chord = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
        else:
            chord = np.full((n, 2), np.nan)
            chord[1:-1] = pts[2:] - pts[:-2]
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.hypot(chord[:, 0], chord[:, 1]) / (2.0 * half_cos)
        out[cusp] = np.nan
        out[~(out > 0)] = np.nan  # folded vertex (chord = 0)
        return out
    if scheme == "arclength":
        l = curve.edge_lengths
        l_mean = l.mean()
        if np.max(np.abs(l - l_mean)) / l_mean >= ARCLENGTH_UNIFORM_TOL:
            raise SchemeInapplicable("arclength scheme requires uniform edge lengths")
        out = l_mean * half_cos
        out[cusp] = np.nan
        out[~(out > 0)] = np.nan
        return out
    raise SchemeInapplicable(f"unknown line element scheme {scheme!r}")


def line_element(curve: DiscreteCurve, scheme, k: int) -> float:
    _check_index(curve, k)
    value = line_elements(curve, scheme)[k]
    if not np.isfinite(value):
        raise SchemeInapplicable(f"scheme undefined at vertex {k}")
    return float(value)


def curvature_vectors(curve: DiscreteCurve, scheme) -> np.ndarray:
    """Discrete curvature vector (1/L_k)(t_k - t_{k-1}) per vertex.

    Equals minus the length gradient over L_k; independent of sigma.
    """
    t = curve.tangents
    if curve.closed:
        dt = t - np.roll(t, 1, axis=0)
    else:
        dt = np.full((curve.n, 2), np.nan)
        dt[1:-1] = t[1:] - t[:-1]
    return dt / line_elements(curve, scheme)[:, None]


def curvature_vector(curve: DiscreteCurve, scheme, k: int) -> np.ndarray:
    _check_index(curve, k)
    v = curvature_vectors(curve, scheme)[k]
    if not np.all(np.isfinite(v)):
        raise SchemeInapplicable(f"scheme undefined at vertex {k}")
    return v


def vertex_curvatures(curve: DiscreteCurve, scheme) -> np.ndarray:
    """Signed curvature kappa(p_k) = 2 sin(theta_k/2) / L_k per vertex."""
    theta = curve.turning_angles
    with np.errstate(invalid="ignore"):
        return 2.0 * np.sin(0.5 * theta) / line_elements(curve, scheme)


def vertex_curvature(curve: DiscreteCurve, scheme, k: int) -> float:
    _check_index(curve, k)
    value = vertex_curvatures(curve, scheme)[k]
    if not np.isfinite(value):
        raise SchemeInapplicable(f"scheme undefined at vertex {k}")
    return float(value)


def _edge_endpoint_angles(curve: DiscreteCurve):
    """(theta_k, theta_{k+1}) per edge, NaN at cusps or outside the interior."""
    theta = np.where(curve.cusp_mask, np.nan, curve.turning_angles)
    if curve.closed:
        return theta, np.roll(theta, -1)
    return theta[:-1], theta[1:]


def edge_line_elements(curve: DiscreteCurve) -> np.ndarray:
    """Edge line element L'_k = l_k cos(theta_k/2) cos(theta_{k+1}/2)."""
    th0, th1 = _edge_endpoint_angles(curve)
    with np.errstate(invalid="ignore"):
        out = curve.edge_lengths * np.cos(0.5 * th0) * np.cos(0.5 * th1)
    out[~(out > 0)] = np.nan
    return out


def edge_line_element(curve: DiscreteCurve, k: int) -> float:
    _check_index(curve, k, edge=True)
    value = edge_line_elements(curve)[k]
    if not np.isfinite(value):
        raise CuspAdjacent(k)
    return float(value)


def edge_curvatures(curve: DiscreteCurve) -> np.ndarray:
    """Edge curvature kappa(e_k) = (tan(theta_k/2) + tan(theta_{k+1}/2)) / l_k."""
    th0, th1 = _edge_endpoint_angles(curve)
    with np.errstate(invalid="ignore"):
        return (np.tan(0.5 * th0) + np.tan(0.5 * th1)) / curve.edge_lengths


def edge_curvature(curve: DiscreteCurve, k: int) -> float:
    _check_index(curve, k, edge=True)
    value = edge_curvatures(curve)[k]
    if not np.isfinite(value):
        raise CuspAdjacent(k)
    return float(value)


def discrete_gradient(curve: DiscreteCurve, psi) -> np.ndarray:
    """Edge-based gradient (psi_{k+1} - psi_k) / l_k."""
    psi = np.asarray(psi, dtype=float)
    if curve.closed:
        dpsi = np.roll(psi, -1) - psi
    else:
        dpsi = psi[1:] - psi[:-1]
    return dpsi / curve.edge_lengths


def discrete_laplacian(curve: DiscreteCurve, scheme, psi) -> np.ndarray:
    """Vertex-based Laplacian (grad psi_k - grad psi_{k-1}) / L_k.

    NaN at the boundary vertices of an open curve.
    """
    g = discrete_gradient(curve, psi)
    if curve.closed:
        dg = g - np.roll(g, 1)
    else:
        dg = np.full(curve.n, np.nan)
        dg[1:-1] = g[1:] - g[:-1]
    return dg / line_elements(curve, scheme)


def dirichlet_energy(curve: DiscreteCurve, psi) -> float:
    """(1/2) sum |grad psi_k|^2 l_k over the edges."""
    g = discrete_gradient(curve, psi)
    return 0.5 * float(np.sum(g * g * curve.edge_lengths))
