"""Second-variation quadratic forms and spectral stability of regular polygons.

At an equilibrium of ``L + kappa * Vol`` the second variation along an affine
deformation ``p + t v`` is the quadratic form ``Q^L + kappa Q^V``.  Writing
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

from .curves import DiscreteCurve, _at_edges, _check_regular, rot90
from .errors import CuspVertex, MeanNotZero, NotEquilibrium, OpenCurve
from .offsets import vertex_normals
from .variation import _check_field, classify_equilibrium

# |sum psi_k| above this (times n * max|psi|) fails the zero-mean precondition.
MEAN_TOL = 1e-10


def qv_form(curve: DiscreteCurve, field) -> float:
    """Volume Hessian form sum <v_k, R v_{k+1}>; exact for the quadratic Vol."""
    if not curve.closed:
        raise OpenCurve("the volume form requires a closed curve")
    v, v_next = _at_edges(curve, _check_field(curve, field))
    return float(np.sum(v * rot90(v_next, curve.sigma)))


def ql_form(curve: DiscreteCurve, field) -> float:
    """Length Hessian form sum (|grad v_k|^2 - <grad v_k, R nu_k>^2) l_k >= 0.

    R nu_k = -t_k, so the projection is taken on the unit tangent.
    """
    if not curve.closed:
        raise OpenCurve("the length form requires a closed curve")
    v, v_next = _at_edges(curve, _check_field(curve, field))
    l = curve.edge_lengths
    grad = (v_next - v) / l[:, None]
    proj = np.sum(grad * curve.tangents, axis=1)
    return float(np.sum((np.sum(grad * grad, axis=1) - proj * proj) * l))


def second_variation(curve: DiscreteCurve, kappa: float, field, tol: float = 1e-8) -> float:
    """delta^2 L = Q^L + kappa Q^V along an affine variation at an equilibrium.

    Refuses non-equilibrium curves: away from criticality the value has no
    variational meaning for the constrained problem.
    """
    report = classify_equilibrium(curve, kappa, tol=tol)
    if not report.is_equilibrium:
        raise NotEquilibrium(
            f"max residual {report.max_residual:.3e} exceeds tolerance {tol:.1e}"
        )
    return ql_form(curve, field) + kappa * qv_form(curve, field)


class NormalTangentField(NamedTuple):
    psi: np.ndarray
    eta: np.ndarray


def _vertex_frame(curve: DiscreteCurve) -> tuple[np.ndarray, np.ndarray]:
    """(N_k, T_k) with T_k = -R N_k; NaN rows at open ends, CuspVertex at a cusp."""
    N = vertex_normals(curve)  # first, so that a cusp curve warns as other readers do
    if curve.cusp_mask.any():
        raise CuspVertex(int(np.flatnonzero(curve.cusp_mask)[0]))
    return N, -rot90(N, curve.sigma)


def decompose_field(curve: DiscreteCurve, field) -> NormalTangentField:
    """Coordinates (psi, eta) of v_k in the vertex frame (N_k, T_k)."""
    v = np.asarray(field, dtype=float)
    N, T = _vertex_frame(curve)
    norm_sq = np.sum(N * N, axis=1)
    psi = np.sum(v * N, axis=1) / norm_sq
    eta = np.sum(v * T, axis=1) / norm_sq
    return NormalTangentField(psi=psi, eta=eta)


def reconstruct_field(curve: DiscreteCurve, psi, eta=None) -> np.ndarray:
    """v_k = psi_k N_k + eta_k T_k."""
    N, T = _vertex_frame(curve)
    v = np.asarray(psi, dtype=float)[:, None] * N
    if eta is not None:
        v = v + np.asarray(eta, dtype=float)[:, None] * T
    return v


def _regular_data(n: int, m: int, a: float = 1.0):
    """(l_0, kappa, tan^2(m pi / n)) of the regular polygon (n, m, a)."""
    _check_regular(n, m, a)
    l0 = 2.0 * a * np.sin(m * np.pi / n)
    kappa = -1.0 / (a * np.cos(m * np.pi / n))
    return l0, kappa, np.tan(m * np.pi / n) ** 2


def regular_polygon_kappa(n: int, m: int, a: float = 1.0) -> float:
    """Lagrange multiplier of the regular polygon: -1 / (a cos(m pi / n))."""
    return _regular_data(n, m, a)[1]


def second_variation_regular(n: int, m: int, a: float, psi, eta=None) -> float:
    """Closed-form second variation on the regular polygon (n, m, a).

    delta^2 L = sum [ |grad psi|^2 - kappa^2 psi_k psi_{k+1}
                      + tan^2(theta_0/2) (kappa grad psi_k (eta_{k+1} + eta_k)
                                          + |grad eta|^2) ] l_0

    with l_0 = 2 a sin(m pi/n) and kappa = -1/(a cos(m pi/n)); psi and eta are
    coordinates in the (N_k, T_k) frame of the sigma = -1 polygon.  The value
    is the quadratic form itself; restricting to sum psi_k = 0 is what makes
    it a stability test.
    """
    l0, kappa, tan_sq = _regular_data(n, m, a)
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (n,):
        raise ValueError(f"psi must have shape ({n},)")

    dpsi = (np.roll(psi, -1) - psi) / l0
    value = np.sum(dpsi * dpsi) - kappa**2 * np.sum(psi * np.roll(psi, -1))
    if eta is not None:
        eta = np.asarray(eta, dtype=float)
        if eta.shape != (n,):
            raise ValueError(f"eta must have shape ({n},)")
        deta = (np.roll(eta, -1) - eta) / l0
        value += tan_sq * (
            kappa * np.sum(dpsi * (np.roll(eta, -1) + eta)) + np.sum(deta * deta)
        )
    return float(value * l0)


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
    alpha = 1.0 + 2.0 * _regular_data(n, m)[2]
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
    l0, _, tan_sq = _regular_data(n, m, a)
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
    regular polygons exp(2 pi i j k / n).
    """
    if not curve.closed:
        raise OpenCurve("Fourier decomposition requires a closed curve")
    z = curve.points[:, 0] + 1j * curve.points[:, 1]
    return np.fft.fft(z) / curve.n


def fourier_reconstruct(coeffs) -> np.ndarray:
    """Vertex positions from DFT coefficients (inverse of fourier_decompose)."""
    c = np.asarray(coeffs, dtype=complex)
    z = np.fft.ifft(c) * len(c)
    return np.column_stack([z.real, z.imag])
