"""Discrete curvature with pluggable vertex line elements, plus the curve calculus.

There is no canonical line element at a vertex of a polygon; every positive
choice ``L_k`` yields its own curvature vector ``(1/L_k)(t_k - t_{k-1})`` and
scalar curvature ``2 sin(theta_k/2) / L_k``.  The named schemes reproduce the
classical notions:

  vertex_osculating  L_k = |p_{k+1} - p_{k-1}| / (2 cos(theta_k/2))
  arclength          L_k = l_0 cos(theta_k/2)      (uniform edge lengths only)
  hatakeyama         L_k = l_{k-1}
  half_edge_sum      L_k = (l_k + l_{k-1}) / 2

A custom scheme is any array of positive per-vertex values; a named one is
taken at the curve's power of two (see curves), and a function psi on the
vertices at its own (_scaled_gradient).  Vectorized functions mark
pointwise-inapplicable vertices (cusps) with NaN; scalar accessors raise.
"""

from __future__ import annotations

import numpy as np

from .curves import DiscreteCurve, _at_cusp_free_edges, _at_edges, _at_vertices, _by_rows, _field_scale, _norms
from .curves import _unscaled, _value_at
from .errors import CuspAdjacent, SchemeInapplicable
from .variation import length_gradients

SCHEMES = ("vertex_osculating", "arclength", "hatakeyama", "half_edge_sum")

# Relative spread of edge lengths tolerated by the arclength scheme.
ARCLENGTH_UNIFORM_TOL = 1e-9


def line_elements(curve: DiscreteCurve, scheme) -> np.ndarray:
    """Per-vertex line element L_k for the chosen scheme.

    NaN at open-curve ends and where the scheme is pointwise undefined (cusps
    under vertex_osculating/arclength).  SchemeInapplicable for curve-wide
    failures: arclength on non-uniform edge lengths, an invalid custom array.
    A named scheme is taken at the curve's power of two, inf where it overflows.
    """
    return _unscaled(*_line_elements(curve, scheme))


def _line_elements(curve: DiscreteCurve, scheme):
    """(L_k 2^-e, e): a named scheme at the curve's power of two e, a custom array with e = 0."""
    if not isinstance(scheme, str):
        custom = np.array(scheme, dtype=float)
        if custom.shape != (curve.n,):
            raise SchemeInapplicable(f"custom line elements must have shape ({curve.n},)")
        if not np.all(custom[curve.interior_range()] > 0):
            raise SchemeInapplicable("custom line elements must be positive")
        if not curve.closed:
            custom[0] = custom[-1] = np.nan
        return custom, 0

    l_prev, l_next = _at_vertices(curve.closed, curve._scaled[2])
    if scheme == "hatakeyama":
        return np.where(np.isnan(l_next), np.nan, l_prev), curve._scale[1]  # NaN at both open ends
    if scheme == "half_edge_sum":
        return 0.5 * (l_prev + l_next), curve._scale[1]

    if scheme == "vertex_osculating":
        out = _norms(curve._scaled_chords) / (2.0 * curve._half_angles[1])  # cos(theta_k / 2) > 0 on (-pi, pi]
    elif scheme == "arclength":
        l = curve._scaled[2]
        l_mean = l.mean()
        if np.max(np.abs(l - l_mean)) / l_mean >= ARCLENGTH_UNIFORM_TOL:
            raise SchemeInapplicable("arclength scheme requires uniform edge lengths")
        out = l_mean * curve._half_angles[1]
    else:
        raise SchemeInapplicable(f"unknown line element scheme {scheme!r}")
    out[curve.cusp_mask] = np.nan
    out[~(out > 0)] = np.nan  # open ends and folded vertices (chord = 0)
    return out, curve._scale[1]


def _scheme_undefined(k: int) -> SchemeInapplicable:
    return SchemeInapplicable(f"scheme undefined at vertex {k}")


def line_element(curve: DiscreteCurve, scheme, k: int) -> float:
    return _value_at(curve, line_elements(curve, scheme), k, _scheme_undefined)


def curvature_vectors(curve: DiscreteCurve, scheme) -> np.ndarray:
    """Discrete curvature vector (1/L_k)(t_k - t_{k-1}) per vertex.

    Equals minus the length gradient over L_k; independent of sigma.
    """
    values, e = _line_elements(curve, scheme)
    with np.errstate(invalid="ignore", over="ignore"):
        return _unscaled(_by_rows(np.divide, -length_gradients(curve), values), -e)


def curvature_vector(curve: DiscreteCurve, scheme, k: int) -> np.ndarray:
    return _value_at(curve, curvature_vectors(curve, scheme), k, _scheme_undefined)


def vertex_curvatures(curve: DiscreteCurve, scheme) -> np.ndarray:
    """Signed curvature kappa(p_k) = 2 sin(theta_k/2) / L_k per vertex."""
    values, e = _line_elements(curve, scheme)
    with np.errstate(invalid="ignore", over="ignore"):
        return _unscaled(2.0 * curve._half_angles[0] / values, -e)


def vertex_curvature(curve: DiscreteCurve, scheme, k: int) -> float:
    return _value_at(curve, vertex_curvatures(curve, scheme), k, _scheme_undefined)


def edge_line_elements(curve: DiscreteCurve) -> np.ndarray:
    """Edge line element L'_k = l_k cos(theta_k/2) cos(theta_{k+1}/2)."""
    cos0, cos1 = _at_cusp_free_edges(curve, curve._half_angles[1])
    out = _unscaled(curve._scaled[2] * cos0 * cos1, curve._scale[1])
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
    """Edge-based gradient (psi_{k+1} - psi_k) / l_k, taken as _scaled_gradient's pair and scaled back once."""
    return _unscaled(*_scaled_gradient(curve, psi))


def _scaled_gradient(curve: DiscreteCurve, psi):
    """(grad psi 2^-f, f): psi's differences at their own power of two over the lengths 2^-e at the curve's e.

    The differences are formed on psi at its own power of two g, so that
    they cannot overflow, and taken at theirs, h, both by
    curves._field_scale, as stability's forms take a field's: f = g + h - e.
    """
    w, g = _field_scale(np.asarray(psi, dtype=float))
    w, w_next = _at_edges(curve.closed, w)
    dpsi, h = _field_scale(w_next - w)
    return dpsi / curve._scaled[2], g + h - curve._scale[1]


def discrete_laplacian(curve: DiscreteCurve, scheme, psi) -> np.ndarray:
    """Vertex-based Laplacian (grad psi_k - grad psi_{k-1}) / L_k.

    NaN at the boundary vertices of an open curve.  The gradient is
    _scaled_gradient's pair, and the line elements are taken at their own
    power of two h (curves._field_scale) after _line_elements; the quotient
    is scaled back once.
    """
    grad, f = _scaled_gradient(curve, psi)
    g_prev, g = _at_vertices(curve.closed, grad)
    values, e = _line_elements(curve, scheme)
    values, h = _field_scale(values)
    return _unscaled((g - g_prev) / values, f - e - h)


def dirichlet_energy(curve: DiscreteCurve, psi) -> float:
    """(1/2) sum |grad psi_k|^2 l_k over the edges, on _scaled_gradient's pair and the lengths 2^-e, scaled back once."""
    grad, f = _scaled_gradient(curve, psi)
    return float(_unscaled(0.5 * np.sum(grad * grad * curve._scaled[2]), 2 * f + curve._scale[1]))
