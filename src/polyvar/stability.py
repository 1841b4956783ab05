"""Second-variation quadratic forms and spectral stability of regular polygons.

At an equilibrium of ``L + kappa * Vol`` the second variation along an affine
deformation ``p + t v`` is the quadratic form ``Q^L + kappa Q^V``, each the
Hessian of its own functional in closed form: ``Q^L = sum (Delta v_k . nu_k)^2
/ l_k``, since edge k's length has the rank-one Hessian ``nu_k nu_k^T / l_k``,
and ``Q^V = 2 Vol(v)``, since Vol is quadratic.  Writing
``v_k = psi_k N_k + eta_k T_k`` on a regular polygon reduces the normal part
to the circulant form ``<H psi, psi> / l_0`` with first row
``(2, -alpha, 0, ..., 0, -alpha)``, ``alpha = 1 + 2 tan^2(m pi / n)``, whose
eigenvalues ``2 - 2 alpha cos(2 pi j / n)`` decide stability: the convex
polygon (m = 1) is stable, every star polygon (2 <= m <= n-2) has negative
modes, certified by the lowest nonconstant harmonic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import DiscreteCurve, _by_rows, _check_regular, _dot, _require_closed, _require_no_cusp
from .curves import _edge_vectors, _field_scale, _signed_area, _unscaled
from .errors import MeanNotZero, NotEquilibrium
from .variation import _check_field, _times_kappa, classify_equilibrium

# |sum psi_k| above this (times n * max|psi|) fails the zero-mean precondition.
MEAN_TOL = 1e-10


def qv_form(curve: DiscreteCurve, field) -> float:
    """Volume Hessian form Q^V = 2 Vol(v) = sum <v_k, R v_{k+1}>, exact since Vol is quadratic.

    inf, with no warning, only where the form is beyond the float range.
    """
    return float(_unscaled(*_scaled_qv_form(curve, field)))


def _scaled_qv_form(curve: DiscreteCurve, field) -> tuple[float, int]:
    """(qv_form 2^-2f, 2f): twice the signed area of the field 2^-f at its own power of two f."""
    _require_closed(curve, "the volume form")
    w, f = _field_scale(_check_field(curve, field))
    return 2.0 * _signed_area(w, curve.sigma), 2 * f


def ql_form(curve: DiscreteCurve, field) -> float:
    """Length Hessian form Q^L = sum (Delta v_k . nu_k)^2 / l_k >= 0, Delta v_k = v_{k+1} - v_k."""
    return float(_unscaled(*_scaled_ql_form(curve, field)))


def _scaled_ql_form(curve: DiscreteCurve, field) -> tuple[float, int]:
    """(ql_form 2^(e-2f), 2f-e), the sum taken as a pair, as _scaled_qv_form's is.

    It is taken on the field's differences 2^-f at their own power of two f
    (_field_scale), formed on the field at its own power of two so that they
    cannot overflow, and the lengths 2^-e at the curve's power of two e.
    """
    _require_closed(curve, "the length form")
    w, g = _field_scale(_check_field(curve, field))
    dv, h = _field_scale(_edge_vectors(w, True))  # the differences 2^-f, f = g + h
    normal = _dot(dv, curve.edge_normals)
    return float(np.sum(normal * normal / curve._scaled[2])), 2 * (g + h) - curve._scale[1]


def second_variation(curve: DiscreteCurve, kappa: float, field, tol: float = 1e-8) -> float:
    """delta^2 L = Q^L + kappa Q^V along an affine variation at an equilibrium.

    Refuses non-equilibrium curves: away from criticality the value has no
    variational meaning for the constrained problem.  Q^L and kappa Q^V
    (through variation._times_kappa) are each taken at a power of two of
    their own, added at the larger of the two and scaled back once, so the
    value is finite wherever it is in the float range, at any radius.
    """
    report = classify_equilibrium(curve, kappa, tol=tol)
    if not report.is_equilibrium:
        raise NotEquilibrium(
            f"max residual {report.max_residual:.3e} exceeds tolerance {tol:.1e}"
        )
    (ql, a), (kqv, b) = _scaled_ql_form(curve, field), _times_kappa(kappa, *_scaled_qv_form(curve, field))
    top = max(a, b)
    return float(_unscaled(_unscaled(ql, a - top) + _unscaled(kqv, b - top), top))


class NormalTangentField(NamedTuple):
    psi: np.ndarray
    eta: np.ndarray


def _vertex_frame(curve: DiscreteCurve) -> tuple[np.ndarray, np.ndarray]:
    """(N_k, T_k); NaN rows at open ends, CuspVertex at a cusp."""
    N = curve.vertex_normals  # first, so that a cusp curve warns as other readers do
    _require_no_cusp(curve.cusp_mask)
    return N, curve.vertex_tangents


def decompose_field(curve: DiscreteCurve, field) -> NormalTangentField:
    """Coordinates (psi, eta) of v_k in the vertex frame (N_k, T_k)."""
    v = np.asarray(field, dtype=float)
    N, T = _vertex_frame(curve)
    v = np.broadcast_to(v, N.shape)  # one 2-vector is a constant field
    norm_sq = _dot(N, N)
    psi = _dot(v, N) / norm_sq
    eta = _dot(v, T) / norm_sq
    return NormalTangentField(psi=psi, eta=eta)


def reconstruct_field(curve: DiscreteCurve, psi, eta=None) -> np.ndarray:
    """v_k = psi_k N_k + eta_k T_k."""
    N, T = _vertex_frame(curve)
    v = _by_rows(np.multiply, N, np.asarray(psi, dtype=float))
    if eta is not None:
        v += _by_rows(np.multiply, T, np.asarray(eta, dtype=float))
    return v


def _regular_data(n: int, m: int, a: float = 1.0) -> tuple[float, float]:
    """(l_0, tan^2(m pi / n)) of the regular polygon (n, m, a).

    Python floats, so that a quotient by l_0 beyond the float range is inf, with no warning.
    """
    _check_regular(n, m, a)
    l0 = 2.0 * (a * np.sin(m * np.pi / n))  # the same bits as (2 a) sin, which overflows above a = 2^1022
    return float(l0), float(np.tan(m * np.pi / n) ** 2)


def regular_polygon_kappa(n: int, m: int, a: float = 1.0) -> float:
    """Lagrange multiplier of the regular polygon: -1 / (a cos(m pi / n)); +-inf, with no warning, beyond the float range."""
    _check_regular(n, m, a)
    return -1.0 / float(a * np.cos(m * np.pi / n))


def second_variation_regular(n: int, m: int, a: float, psi, eta=None) -> float:
    """Closed-form second variation on the regular polygon (n, m, a).

    delta^2 L = sum [ |grad psi|^2 - kappa^2 psi_k psi_{k+1}
                      + tan^2(theta_0/2) (kappa grad psi_k (eta_{k+1} + eta_k)
                                          + |grad eta|^2) ] l_0

    with l_0 = 2 a sin(m pi/n), kappa = -1/(a cos(m pi/n)) and
    grad psi_k = (psi_{k+1} - psi_k) / l_0; psi and eta are coordinates in the
    (N_k, T_k) frame of the sigma = -1 polygon.  The value is the quadratic
    form itself; restricting to sum psi_k = 0 is what makes it a stability
    test.  The sum is taken with the dimensionless kappa l_0 = -2 tan(m pi/n)
    on psi and eta 2^-f at their joint power of two f, and divided by l_0
    once, so it holds at every radius.
    """
    l0, tan_sq = _regular_data(n, m, a)
    kappa_l0 = -2.0 * np.tan(m * np.pi / n)
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (n,):
        raise ValueError(f"psi must have shape ({n},)")
    eta = np.zeros(n) if eta is None else np.asarray(eta, dtype=float)
    if eta.shape != (n,):
        raise ValueError(f"eta must have shape ({n},)")

    (psi, eta), f = _field_scale(np.stack([psi, eta]))
    dpsi, deta = np.roll(psi, -1) - psi, np.roll(eta, -1) - eta
    value = np.sum(dpsi * dpsi) - kappa_l0**2 * np.sum(psi * np.roll(psi, -1))
    value += tan_sq * (kappa_l0 * np.sum(dpsi * (np.roll(eta, -1) + eta)) + np.sum(deta * deta))
    l0, h = _field_scale(l0)
    return float(_unscaled(value / l0, 2 * f - h))


def harmonic_field(n: int, j: int, A: float = 1.0, B: float = 0.0) -> np.ndarray:
    """psi_k = A cos(2 pi j k / n) + B sin(2 pi j k / n); zero-mean for 1 <= j <= n-1."""
    if not 1 <= j <= n - 1:
        raise ValueError(f"frequency j = {j} outside 1..{n - 1}")
    arg = 2.0 * np.pi * j * np.arange(n) / n
    return A * np.cos(arg) + B * np.sin(arg)


def wirtinger_gap(psi) -> tuple[float, bool]:
    """Slack of sum (psi_{k+1} - psi_k)^2 >= 4 sin^2(pi/n) sum psi_k^2.

    Requires sum psi_k = 0.  Returns (gap, equality) where equality means psi
    lies in the span of the frequency-1 harmonics (where the bound is sharp).
    """
    psi = np.asarray(psi, dtype=float)
    n = len(psi)
    scale = max(1.0, float(np.max(np.abs(psi))))
    if abs(psi.sum()) > MEAN_TOL * n * scale:
        raise MeanNotZero(f"sum psi = {psi.sum():.3e}")
    diffs = np.roll(psi, -1) - psi
    gap = float(np.sum(diffs * diffs) - 4.0 * np.sin(np.pi / n) ** 2 * np.sum(psi * psi))
    c = harmonic_field(n, 1, 1.0, 0.0)
    s = harmonic_field(n, 1, 0.0, 1.0)
    proj = (psi @ c) / (c @ c) * c + (psi @ s) / (s @ s) * s
    equality = bool(np.linalg.norm(psi - proj) < 1e-10 * scale)
    return gap, equality


def jacobi_matrix(n: int, m: int) -> np.ndarray:
    """Circulant matrix H with first row (2, -alpha, 0, ..., 0, -alpha).

    <H psi, psi> / l_0 is the second variation of a normal variation psi on
    the regular polygon (n, m).
    """
    alpha = jacobi_spectrum(n, m).alpha
    H = 2.0 * np.eye(n)
    idx = np.arange(n)
    H[idx, (idx + 1) % n] = -alpha
    H[idx, (idx - 1) % n] = -alpha
    return H


@dataclass(frozen=True)
class SpectrumReport:
    n: int
    m: int
    alpha: float
    eigenvalues: np.ndarray  # lambda_j for j = 1..n-1 (constant mode excluded)
    morse_index: int
    certificate_modes: list[int]


def jacobi_spectrum(n: int, m: int) -> SpectrumReport:
    """Closed-form eigenvalues lambda_j = 2 - 2 alpha cos(2 pi j / n), j = 1..n-1.

    The j = n (constant) eigenvector violates the zero-mean constraint and is
    excluded; the Morse index counts the remaining negative eigenvalues.
    """
    alpha = 1.0 + 2.0 * _regular_data(n, m)[1]
    j = np.arange(1, n)
    eigenvalues = 2.0 - 2.0 * alpha * np.cos(2.0 * np.pi * j / n)
    negative = j[eigenvalues < 0]
    return SpectrumReport(
        n=n,
        m=m,
        alpha=float(alpha),
        eigenvalues=eigenvalues,
        morse_index=int(negative.size),
        certificate_modes=[int(v) for v in negative],
    )


def morse_index(n: int, m: int) -> int:
    """Number of negative eigenvalues of H on the zero-mean subspace."""
    return jacobi_spectrum(n, m).morse_index


class CertificateResult(NamedTuple):
    psi: np.ndarray
    delta2_length: float
    certifies_instability: bool


def certificate_coefficient(n: int, m: int, a: float = 1.0) -> float:
    """delta^2 L per unit sum psi_k^2 for the lowest harmonic normal field:
    (4 / l_0) [ sin^2(pi/n) - cos(2 pi/n) tan^2(m pi/n) ]."""
    l0, tan_sq = _regular_data(n, m, a)
    return float((4.0 / l0) * (np.sin(np.pi / n) ** 2 - np.cos(2.0 * np.pi / n) * tan_sq))


def instability_certificate(n: int, m: int, a: float = 1.0) -> CertificateResult:
    """Second variation of the lowest harmonic normal field on (n, m, a).

    delta^2 L = (4 / l_0) [ sin^2(pi/n) - cos(2 pi/n) tan^2(m pi/n) ] sum psi_k^2,
    negative for every star polygon (2 <= m <= n-2, n >= 5); for m = 1 or
    m = n-1 the value is (4 / l_0) sin^2(pi/n) tan^2(pi/n) sum psi_k^2 >= 0 and
    no instability is certified.
    """
    psi = harmonic_field(n, 1, 1.0, 0.0)
    delta2 = float(certificate_coefficient(n, m, a) * np.sum(psi * psi))
    return CertificateResult(
        psi=psi,
        delta2_length=delta2,
        certifies_instability=bool(2 <= m <= n - 2 and delta2 < 0),
    )


def fourier_decompose(curve: DiscreteCurve) -> np.ndarray:
    """DFT coefficients c_j = (1/n) sum_k z_k omega^{-jk} of the vertex polygon.

    Index j = 0 is the centroid (constant) mode; the regular polygon of
    winding m and radius a placed with phase 0 about the origin has the single
    coefficient c_m = a.  Every polygon is the coefficient-weighted sum of the
    regular polygons exp(2 pi i j k / n).  The points are read in place as
    the complex numbers z_k = x_k + i y_k, so a -0.0 coordinate keeps its sign.
    The transform is taken on the points 2^-e at the curve's power of two e
    and scaled back by 2^e.
    """
    _require_closed(curve, "the Fourier decomposition")
    coeffs = np.fft.fft(curve._scaled[0].view(complex)[:, 0], norm="forward")
    return _unscaled(coeffs.view(float), curve._scale[1]).view(complex)


def fourier_reconstruct(coeffs) -> np.ndarray:
    """Vertex positions from DFT coefficients (inverse of fourier_decompose)."""
    c = np.asarray(coeffs, dtype=complex)
    z = np.fft.ifft(c) * len(c)
    return np.column_stack([z.real, z.imag])
