import numpy as np
import pytest

from polyvar import (
    DiscreteCurve,
    decompose_field,
    fourier_decompose,
    fourier_reconstruct,
    harmonic_field,
    instability_certificate,
    jacobi_matrix,
    jacobi_spectrum,
    make_curve,
    morse_index,
    ql_form,
    qv_form,
    reconstruct_field,
    regular_polygon,
    rot90,
    second_variation,
    second_variation_regular,
    wirtinger_gap,
)
from polyvar.errors import InvalidWinding, MeanNotZero, NotEquilibrium, OpenCurve
from polyvar.stability import certificate_coefficient, regular_polygon_kappa

from helpers import (
    brute_length,
    jacobi_eigenvalues,
    oracle_volume,
    random_star_polygon,
    second_derivative,
)

SQRT2 = np.sqrt(2.0)
KAPPA_SQ = -SQRT2
KAPPA_PENT = -1 / np.cos(2 * np.pi / 5)


# ------------------------------------------------------------- quadratic forms

def test_qv_form_trivial(sq, rng):
    assert qv_form(sq, np.zeros((4, 2))) == 0.0
    assert abs(qv_form(sq, np.tile(rng.normal(size=2), (4, 1)))) < 1e-14


def test_qv_form_is_exact_volume_hessian(rng):
    for _ in range(20):
        curve = random_star_polygon(rng, int(rng.integers(4, 10)), sigma=int(rng.choice([-1, 1])))
        v = rng.normal(size=(curve.n, 2))
        # Vol is quadratic, so the t=1 second difference is exact
        exact = (
            oracle_volume(curve.points + v, curve.sigma)
            - 2.0 * oracle_volume(curve.points, curve.sigma)
            + oracle_volume(curve.points - v, curve.sigma)
        )
        assert qv_form(curve, v) == pytest.approx(exact, abs=1e-10)


def test_ql_form_trivial(sq, rng):
    assert ql_form(sq, np.zeros((4, 2))) == 0.0
    assert abs(ql_form(sq, np.tile(rng.normal(size=2), (4, 1)))) < 1e-14


def test_ql_form_matches_length_second_derivative(rng):
    for _ in range(10):
        curve = random_star_polygon(rng, int(rng.integers(4, 10)))
        v = rng.normal(size=(curve.n, 2))
        fd = second_derivative(lambda t: brute_length(curve.points + t * v), 1e-3)
        assert ql_form(curve, v) == pytest.approx(fd, rel=1e-6, abs=1e-7)


def test_ql_form_nonnegative(rng):
    for _ in range(50):
        curve = random_star_polygon(rng, int(rng.integers(4, 14)))
        assert ql_form(curve, rng.normal(size=(curve.n, 2))) >= -1e-12


def test_forms_validate_the_field(sq):
    for form in (qv_form, ql_form):
        for field in (np.ones((5, 2)), np.ones(4)):
            with pytest.raises(ValueError, match="shape"):
                form(sq, field)


def test_forms_require_closed():
    path = make_curve([(0, 0), (1, 0), (1, 1)], closed=False)
    with pytest.raises(OpenCurve):
        qv_form(path, np.zeros((3, 2)))
    with pytest.raises(OpenCurve):
        ql_form(path, np.zeros((3, 2)))


# ------------------------------------------------------------ second variation

def test_second_variation_refuses_non_equilibrium():
    rect = make_curve([(0, 0), (2, 0), (2, 1), (0, 1)])
    with pytest.raises(NotEquilibrium):
        second_variation(rect, -1.0, np.zeros((4, 2)))


def test_second_variation_neutral_modes(sq, pent52):
    for curve, kappa in [(sq, KAPPA_SQ), (pent52, KAPPA_PENT)]:
        const = np.tile([0.7, -0.3], (curve.n, 1))
        assert abs(second_variation(curve, kappa, const)) < 1e-10
        rotation = rot90(curve.points, curve.sigma)
        assert abs(second_variation(curve, kappa, rotation)) < 1e-10


def test_second_variation_matches_fd(sq, pent52, rng):
    for curve, kappa in [(sq, KAPPA_SQ), (pent52, KAPPA_PENT)]:
        for _ in range(5):
            v = rng.normal(size=(curve.n, 2))

            def functional(t):
                pts = curve.points + t * v
                return brute_length(pts) + kappa * oracle_volume(pts, curve.sigma)

            fd = second_derivative(functional, 1e-3)
            assert second_variation(curve, kappa, v) == pytest.approx(fd, rel=1e-5)


def test_second_variation_alternating_square_matches_H(sq):
    psi = np.array([1.0, -1.0, 1.0, -1.0])
    v = reconstruct_field(sq, psi)
    value = second_variation(sq, KAPPA_SQ, v)
    H = jacobi_matrix(4, 1)
    assert value == pytest.approx(float(psi @ H @ psi) / SQRT2, rel=1e-12)
    assert value == pytest.approx(second_variation_regular(4, 1, 1.0, psi), rel=1e-12)


# ---------------------------------------------------------------- decomposition

def test_decompose_field_basis(sq, rng):
    from polyvar import vertex_normals, vertex_tangents

    N = vertex_normals(sq)
    T = vertex_tangents(sq)
    psi, eta = decompose_field(sq, N)
    assert np.allclose(psi, 1.0, atol=1e-14)
    assert np.allclose(eta, 0.0, atol=1e-14)
    psi, eta = decompose_field(sq, 3.0 * N - 2.0 * T)
    assert np.allclose(psi, 3.0, atol=1e-13)
    assert np.allclose(eta, -2.0, atol=1e-13)


def test_decompose_round_trip(rng):
    for _ in range(20):
        curve = random_star_polygon(rng, int(rng.integers(4, 10)))
        v = rng.normal(size=(curve.n, 2))
        psi, eta = decompose_field(curve, v)
        assert np.max(np.abs(reconstruct_field(curve, psi, eta) - v)) < 1e-12


def test_volume_variation_in_vertex_frame(rng):
    # dVol(psi N + eta T) = (1/2) sum [psi_k (l_k + l_{k-1})
    #                                  + eta_k (l_{k-1} - l_k) tan(theta_k/2)]
    from polyvar import edge_lengths, first_variation, turning_angles

    for _ in range(20):
        curve = random_star_polygon(rng, int(rng.integers(4, 12)), sigma=int(rng.choice([-1, 1])))
        n = curve.n
        psi = rng.normal(size=n)
        eta = rng.normal(size=n)
        v = reconstruct_field(curve, psi, eta)
        l = edge_lengths(curve)
        l_prev = np.roll(l, 1)
        theta = turning_angles(curve)
        expected = 0.5 * np.sum(
            psi * (l + l_prev) + eta * (l_prev - l) * np.tan(0.5 * theta)
        )
        assert first_variation(curve, v, "volume") == pytest.approx(expected, abs=1e-12)


def test_zero_mean_normal_fields_are_admissible(rng):
    # on uniform curves the eta term drops out, so sum psi = 0 alone
    # makes psi N + eta T volume-preserving: the admissibility criterion
    from polyvar import first_variation

    for n, m in [(5, 1), (7, 2), (9, 4)]:
        poly = regular_polygon(n, m, 1.3)
        for j in range(1, n):
            v = reconstruct_field(poly, harmonic_field(n, j, 0.7, -0.2), rng.normal(size=n))
            assert abs(first_variation(poly, v, "volume")) < 1e-12


def test_vertex_frame_on_open_curve():
    # the open ends have no vertex normal: NaN rows there, not a cusp
    path = make_curve([(0, 0), (1, 0), (2, 1), (3, 1)], closed=False)
    v = reconstruct_field(path, [0.0, 1.0, 1.0, 0.0])
    assert np.isnan(v[[0, -1]]).all() and np.isfinite(v[1:-1]).all()
    psi, eta = decompose_field(path, v)
    assert np.isnan(psi[[0, -1]]).all() and np.isnan(eta[[0, -1]]).all()
    assert np.allclose(psi[1:-1], 1.0, atol=1e-14) and np.allclose(eta[1:-1], 0.0, atol=1e-14)


def test_decompose_rejects_cusp():
    from polyvar.errors import CuspVertex

    flat = make_curve([(0, 0), (1, 0), (0, 0), (1, 0.0)])
    hook = make_curve([(0, 0), (2, 0), (1, 0), (1, 1)], closed=False)
    for curve in (flat, hook):
        with pytest.warns(Warning):
            with pytest.raises(CuspVertex):
                decompose_field(curve, np.ones((4, 2)))


# ------------------------------------------------- regular-polygon closed form

def test_second_variation_regular_matches_curve_form(rng):
    for n, m in [(4, 1), (5, 2), (7, 3), (9, 4), (5, 3), (8, 1)]:
        a = float(rng.uniform(0.5, 2.0))
        poly = regular_polygon(n, m, a)
        kappa = regular_polygon_kappa(n, m, a)
        psi = rng.normal(size=n)
        eta = rng.normal(size=n)
        v = reconstruct_field(poly, psi, eta)
        assert second_variation(poly, kappa, v) == pytest.approx(
            second_variation_regular(n, m, a, psi, eta), rel=1e-10
        )


def test_jacobi_form_is_normal_second_variation(rng):
    # <H psi, psi> / l_0 equals the normal-only closed form, every n <= 12
    for n in range(3, 13):
        for m in range(1, n):
            if 2 * m == n:
                continue
            a = float(rng.uniform(0.4, 2.0))
            H = jacobi_matrix(n, m)
            l0 = 2.0 * a * np.sin(m * np.pi / n)
            psi = rng.normal(size=n)
            psi -= psi.mean()
            assert float(psi @ H @ psi) / l0 == pytest.approx(
                second_variation_regular(n, m, a, psi), rel=1e-10
            )


def test_neutral_modes_on_every_regular_polygon():
    # translations and the rotation field are flat directions of L + kappa*Vol
    for n in range(3, 13):
        for m in range(1, n):
            if 2 * m == n:
                continue
            poly = regular_polygon(n, m, 1.0)
            kappa = regular_polygon_kappa(n, m, 1.0)
            for shift in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
                value = second_variation(poly, kappa, np.tile(shift, (n, 1)))
                assert abs(value) < 1e-10, (n, m)
            rotation = rot90(poly.points, poly.sigma)
            assert abs(second_variation(poly, kappa, rotation)) < 1e-10, (n, m)


def test_second_variation_regular_constant_eta_is_neutral():
    # psi = 0, eta constant: grad eta = 0 and grad psi = 0 kill every term
    assert second_variation_regular(6, 1, 1.0, np.zeros(6), np.full(6, 2.3)) == pytest.approx(
        0.0, abs=1e-13
    )


def test_second_variation_regular_invalid_winding():
    with pytest.raises(InvalidWinding):
        second_variation_regular(6, 3, 1.0, np.zeros(6))


@pytest.mark.parametrize("a", [-1.0, 0.0, np.nan, np.inf])
def test_regular_closed_forms_reject_radius(a):
    # a = -1 flipped the sign of the pentagram's certificate; a = 0 divided by zero
    for call in (
        lambda: regular_polygon(5, 2, a),
        lambda: regular_polygon_kappa(5, 2, a),
        lambda: second_variation_regular(5, 2, a, harmonic_field(5, 1)),
        lambda: certificate_coefficient(5, 2, a),
        lambda: instability_certificate(5, 2, a),
    ):
        with pytest.raises(ValueError, match="radius a"):
            call()


# -------------------------------------------------------------- harmonic fields

def test_harmonic_field_examples():
    assert np.allclose(harmonic_field(4, 1), [1.0, 0.0, -1.0, 0.0], atol=1e-15)
    expected = np.sin(4 * np.pi * np.arange(5) / 5)
    assert np.allclose(harmonic_field(5, 2, 0.0, 1.0), expected, atol=1e-15)
    for n in (3, 5, 8, 17):
        for j in range(1, n):
            assert abs(harmonic_field(n, j, 1.3, -0.4).sum()) < 1e-12
    with pytest.raises(ValueError):
        harmonic_field(5, 5)


# ------------------------------------------------------------------- Wirtinger

def test_wirtinger_examples():
    gap, equality = wirtinger_gap(np.array([1.0, 0.0, -1.0, 0.0]))
    assert gap == pytest.approx(0.0, abs=1e-12)
    assert equality
    gap, equality = wirtinger_gap(np.array([1.0, -1.0, 1.0, -1.0]))
    assert gap == pytest.approx(8.0, abs=1e-12)
    assert not equality
    with pytest.raises(MeanNotZero):
        wirtinger_gap(np.array([1.0, 1.0, 0.0, 0.0]))


def test_wirtinger_random_zero_mean(rng):
    for n in (3, 7, 20, 40):
        psi = rng.normal(size=(200, n))
        psi -= psi.mean(axis=1, keepdims=True)
        for row in psi:
            gap, _ = wirtinger_gap(row)
            assert gap >= -1e-12 * max(1.0, float(np.sum(row * row)))


def test_wirtinger_equality_exactly_on_first_harmonics(rng):
    for n in (4, 9, 15):
        psi = harmonic_field(n, 1, float(rng.normal()), float(rng.normal()))
        gap, equality = wirtinger_gap(psi)
        assert equality and abs(gap) < 1e-10
        if n > 3:
            gap, equality = wirtinger_gap(harmonic_field(n, 2))
            assert not equality and gap > 1e-6


# ------------------------------------------------------------ spectrum / index

def test_jacobi_matrix_square():
    H = jacobi_matrix(4, 1)
    assert np.allclose(H[0], [2.0, -3.0, 0.0, -3.0], atol=1e-14)
    assert np.allclose(H, H.T)
    for n, m in [(5, 2), (9, 4), (12, 5)]:
        H = jacobi_matrix(n, m)
        assert np.allclose(H, H.T)
        for shift in range(1, n):  # circulant: every row is the rotated first row
            assert np.allclose(np.roll(H[0], shift), H[shift])


def test_jacobi_spectrum_examples():
    report = jacobi_spectrum(4, 1)
    assert np.allclose(report.eigenvalues, [2.0, 8.0, 2.0], atol=1e-12)
    assert report.morse_index == 0 and report.certificate_modes == []

    report = jacobi_spectrum(5, 2)
    assert report.alpha == pytest.approx(19.944271909999159, abs=1e-12)
    assert np.allclose(
        report.eigenvalues,
        [-10.326237921249264, 34.270509831248421, 34.270509831248421, -10.326237921249264],
        atol=1e-10,
    )
    assert report.morse_index == 2
    assert report.certificate_modes == [1, 4]

    assert np.all(jacobi_spectrum(5, 1).eigenvalues > 0)


def test_spectrum_against_dense_eigensolver():
    for n, m in [(4, 1), (5, 2), (8, 3), (12, 5), (16, 7)]:
        closed_form = np.sort(np.append(jacobi_spectrum(n, m).eigenvalues, 2.0 - 2.0 * jacobi_spectrum(n, m).alpha))
        dense = jacobi_eigenvalues(jacobi_matrix(n, m))
        assert np.max(np.abs(closed_form - dense)) < 1e-10


def test_morse_index_values():
    assert morse_index(4, 1) == 0
    assert morse_index(5, 2) == 2
    # (12, 5): count against the dense eigensolver
    dense = jacobi_eigenvalues(jacobi_matrix(12, 5))
    # drop the constant-mode eigenvalue lambda_n = 2 - 2 alpha (the most negative)
    alpha = jacobi_spectrum(12, 5).alpha
    lam_const = 2.0 - 2.0 * alpha
    idx = int(np.argmin(np.abs(dense - lam_const)))
    remaining = np.delete(dense, idx)
    assert morse_index(12, 5) == int(np.sum(remaining < 0))


def test_morse_index_threshold_formula():
    # index = 2 * #{1 <= j < n/2 : tan^2(j pi/n) < sin^2(m pi/n)}
    for n in range(3, 30):
        for m in range(1, n):
            if 2 * m == n:
                continue
            count = sum(
                1
                for j in range(1, (n + 1) // 2)
                if np.tan(j * np.pi / n) ** 2 < np.sin(m * np.pi / n) ** 2
            )
            assert morse_index(n, m) == 2 * count, (n, m)


def test_invalid_winding_rejected():
    with pytest.raises(InvalidWinding):
        jacobi_spectrum(6, 3)
    with pytest.raises(InvalidWinding):
        morse_index(8, 4)


# ----------------------------------------------------------------- certificates

def test_instability_certificate_values():
    cert = instability_certificate(5, 2, 1.0)
    per_unit = cert.delta2_length / float(np.sum(cert.psi**2))
    assert per_unit == pytest.approx(-5.428824546345143, abs=1e-10)
    assert cert.certifies_instability

    cert = instability_certificate(5, 1, 1.0)
    per_unit = cert.delta2_length / float(np.sum(cert.psi**2))
    assert per_unit == pytest.approx(0.62054140173339511, abs=1e-10)
    # proof identity: sin^2 - cos(2pi/n) tan^2 = sin^2 tan^2 at m = 1
    assert per_unit == pytest.approx(
        4.0 / (2 * np.sin(np.pi / 5)) * np.sin(np.pi / 5) ** 2 * np.tan(np.pi / 5) ** 2, rel=1e-12
    )
    assert not cert.certifies_instability


def test_certificate_matches_second_variation(rng):
    for n, m, a in [(7, 3, 2.0), (5, 2, 1.0), (9, 2, 0.7)]:
        cert = instability_certificate(n, m, a)
        assert cert.delta2_length == pytest.approx(
            second_variation_regular(n, m, a, cert.psi), rel=1e-10
        )
        poly = regular_polygon(n, m, a)
        v = reconstruct_field(poly, cert.psi)
        assert cert.delta2_length == pytest.approx(
            second_variation(poly, regular_polygon_kappa(n, m, a), v), rel=1e-10
        )


def test_certificate_coefficient_sign_sweep():
    for n in range(5, 25):
        for m in range(2, n - 1):
            if 2 * m == n:
                continue
            assert certificate_coefficient(n, m) < 0, (n, m)
        assert certificate_coefficient(n, 1) > 0
        assert certificate_coefficient(n, n - 1) > 0


def test_sigma_parity_of_stability(rng):
    # delta^2 L of a geometric field is independent of the sigma convention
    pts = regular_polygon(7, 2, 1.0).points
    psi = harmonic_field(7, 1, 0.8, -0.5)
    values = []
    for sigma in (-1, 1):
        poly = DiscreteCurve(pts, sigma=sigma)
        kappa = sigma / np.cos(2 * np.pi / 7)  # the multiplier flips with sigma
        v = reconstruct_field(poly, psi)
        values.append(ql_form(poly, v) + kappa * qv_form(poly, v))
    assert values[0] == pytest.approx(values[1], rel=1e-12)


# --------------------------------------------------------------------- Fourier

def test_fourier_decompose_regular_polygons():
    coeffs = fourier_decompose(regular_polygon(4, 1, 1.0))
    expect = np.zeros(4, dtype=complex)
    expect[1] = 1.0
    assert np.max(np.abs(coeffs - expect)) < 1e-13

    coeffs = fourier_decompose(regular_polygon(5, 2, 2.0))
    expect = np.zeros(5, dtype=complex)
    expect[2] = 2.0
    assert np.max(np.abs(coeffs - expect)) < 1e-13


def test_fourier_round_trip(rng):
    for _ in range(20):
        curve = random_star_polygon(rng, int(rng.integers(3, 16)))
        rebuilt = fourier_reconstruct(fourier_decompose(curve))
        assert np.max(np.abs(rebuilt - curve.points)) < 1e-12


def test_fourier_requires_closed():
    with pytest.raises(OpenCurve):
        fourier_decompose(make_curve([(0, 0), (1, 0)], closed=False))
