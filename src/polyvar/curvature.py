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

from .curves import DiscreteCurve, _at_edges, _at_vertices, _edge_endpoint_angles, _value_at
from .errors import CuspAdjacent, SchemeInapplicable
from .variation import length_gradients

SCHEMES = ("vertex_osculating", "arclength", "hatakeyama", "half_edge_sum")

# Relative spread of edge lengths tolerated by the arclength scheme.
ARCLENGTH_UNIFORM_TOL = 1e-9


def line_elements(curve: DiscreteCurve, scheme) -> np.ndarray:
    """Per-vertex line element L_k for the chosen scheme.

    NaN at open-curve boundary vertices and at vertices where the scheme is
    pointwise undefined (cusps under vertex_osculating/arclength).  Raises
    SchemeInapplicable for curve-wide failures: arclength on a curve with
    non-uniform edge lengths, or an invalid custom array.
    """
    if not isinstance(scheme, str):
        custom = np.array(scheme, dtype=float)
        if custom.shape != (curve.n,):
            raise SchemeInapplicable(f"custom line elements must have shape ({curve.n},)")
        if not np.all(custom[curve.interior_range()] > 0):
            raise SchemeInapplicable("custom line elements must be positive")
        if not curve.closed:
            custom[0] = custom[-1] = np.nan
        return custom

    l_prev, l_next = _at_vertices(curve.closed, curve.edge_lengths)
    if scheme == "hatakeyama":
        return np.where(np.isnan(l_next), np.nan, l_prev)  # NaN at both open ends
    if scheme == "half_edge_sum":
        return 0.5 * (l_prev + l_next)

    half_cos = np.cos(0.5 * curve.turning_angles)
    if scheme == "vertex_osculating":
        chord = curve.chords
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.hypot(chord[:, 0], chord[:, 1]) / (2.0 * half_cos)
    elif scheme == "arclength":
        l = curve.edge_lengths
        l_mean = l.mean()
        if np.max(np.abs(l - l_mean)) / l_mean >= ARCLENGTH_UNIFORM_TOL:
            raise SchemeInapplicable("arclength scheme requires uniform edge lengths")
        out = l_mean * half_cos
    else:
        raise SchemeInapplicable(f"unknown line element scheme {scheme!r}")
    out[curve.cusp_mask] = np.nan
    out[~(out > 0)] = np.nan  # open ends and folded vertices (chord = 0)
    return out


def _scheme_undefined(k: int) -> SchemeInapplicable:
    return SchemeInapplicable(f"scheme undefined at vertex {k}")


def line_element(curve: DiscreteCurve, scheme, k: int) -> float:
    return _value_at(curve, line_elements(curve, scheme), k, _scheme_undefined)


def curvature_vectors(curve: DiscreteCurve, scheme) -> np.ndarray:
    """Discrete curvature vector (1/L_k)(t_k - t_{k-1}) per vertex.

    Equals minus the length gradient over L_k; independent of sigma.
    """
    return -length_gradients(curve) / line_elements(curve, scheme)[:, None]


def curvature_vector(curve: DiscreteCurve, scheme, k: int) -> np.ndarray:
    return _value_at(curve, curvature_vectors(curve, scheme), k, _scheme_undefined)


def vertex_curvatures(curve: DiscreteCurve, scheme) -> np.ndarray:
    """Signed curvature kappa(p_k) = 2 sin(theta_k/2) / L_k per vertex."""
    theta = curve.turning_angles
    with np.errstate(invalid="ignore", over="ignore"):
        return 2.0 * np.sin(0.5 * theta) / line_elements(curve, scheme)


def vertex_curvature(curve: DiscreteCurve, scheme, k: int) -> float:
    return _value_at(curve, vertex_curvatures(curve, scheme), k, _scheme_undefined)


def edge_line_elements(curve: DiscreteCurve) -> np.ndarray:
    """Edge line element L'_k = l_k cos(theta_k/2) cos(theta_{k+1}/2)."""
    th0, th1 = _edge_endpoint_angles(curve)
    with np.errstate(invalid="ignore"):
        out = curve.edge_lengths * np.cos(0.5 * th0) * np.cos(0.5 * th1)
    out[~(out > 0)] = np.nan
    return out


def edge_line_element(curve: DiscreteCurve, k: int) -> float:
    return _value_at(curve, edge_line_elements(curve), k, CuspAdjacent)


def edge_curvatures(curve: DiscreteCurve) -> np.ndarray:
    """Edge curvature kappa(e_k) = (tan(theta_k/2) + tan(theta_{k+1}/2)) / l_k.

    Read-only, computed once per curve.
    """
    return curve.edge_curvatures


def edge_curvature(curve: DiscreteCurve, k: int) -> float:
    return _value_at(curve, edge_curvatures(curve), k, CuspAdjacent)


def discrete_gradient(curve: DiscreteCurve, psi) -> np.ndarray:
    """Edge-based gradient (psi_{k+1} - psi_k) / l_k."""
    psi, psi_next = _at_edges(curve.closed, np.asarray(psi, dtype=float))
    return (psi_next - psi) / curve.edge_lengths


def discrete_laplacian(curve: DiscreteCurve, scheme, psi) -> np.ndarray:
    """Vertex-based Laplacian (grad psi_k - grad psi_{k-1}) / L_k.

    NaN at the boundary vertices of an open curve.
    """
    g_prev, g = _at_vertices(curve.closed, discrete_gradient(curve, psi))
    return (g - g_prev) / line_elements(curve, scheme)


def dirichlet_energy(curve: DiscreteCurve, psi) -> float:
    """(1/2) sum |grad psi_k|^2 l_k over the edges."""
    g = discrete_gradient(curve, psi)
    return 0.5 * float(np.sum(g * g * curve.edge_lengths))
