import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyvar import (
    DiscreteCurve,
    curvature_vector,
    curvature_vectors,
    dirichlet_energy,
    discrete_gradient,
    discrete_laplacian,
    edge_curvature,
    edge_curvatures,
    edge_lengths,
    edge_line_element,
    edge_line_elements,
    length_gradients,
    line_element,
    line_elements,
    make_curve,
    regular_polygon,
    turning_angles,
    vertex_curvature,
    vertex_curvatures,
)
from polyvar.errors import CuspAdjacent, SchemeInapplicable

from helpers import random_equilateral_polygon, random_star_polygon

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------- line elements

def test_line_elements_square(sq):
    assert line_element(sq, "arclength", 0) == pytest.approx(1.0, abs=1e-14)
    assert line_element(sq, "hatakeyama", 1) == pytest.approx(SQRT2, abs=1e-14)
    assert line_element(sq, "vertex_osculating", 2) == pytest.approx(SQRT2, abs=1e-14)
    assert line_element(sq, "half_edge_sum", 3) == pytest.approx(SQRT2, abs=1e-14)


def test_arclength_requires_uniform_edges():
    rect = make_curve([(0, 0), (2, 0), (2, 1), (0, 1)])
    with pytest.raises(SchemeInapplicable):
        line_elements(rect, "arclength")


def test_vertex_osculating_rejects_cusp():
    path = make_curve([(0, 0), (1, 0), (0.25, 0)], closed=False)
    with pytest.warns(Warning):
        with pytest.raises(SchemeInapplicable):
            line_element(path, "vertex_osculating", 1)


def test_custom_line_elements(sq):
    values = np.array([1.0, 2.0, 3.0, 4.0])
    assert line_element(sq, values, 2) == 3.0
    with pytest.raises(SchemeInapplicable):
        line_elements(sq, np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(SchemeInapplicable):
        line_elements(sq, np.ones(3))


def test_unknown_scheme(sq):
    with pytest.raises(SchemeInapplicable):
        line_elements(sq, "osculating")


# ------------------------------------------------------------- curvature vector

def test_curvature_vector_straight_triple():
    path = make_curve([(0, 0), (1, 0), (2, 0)], closed=False)
    assert np.allclose(curvature_vector(path, np.ones(3), 1), 0.0)


def test_curvature_vector_square_arclength(sq):
    assert np.allclose(curvature_vector(sq, "arclength", 0), [-SQRT2, 0], atol=1e-14)


def test_curvature_vector_equals_minus_gradient_over_L(rng):
    for _ in range(20):
        curve = random_star_polygon(rng, int(rng.integers(4, 12)))
        grads = length_gradients(curve)
        for scheme in ("vertex_osculating", "hatakeyama", "half_edge_sum"):
            L = line_elements(curve, scheme)
            assert np.max(np.abs(curvature_vectors(curve, scheme) + grads / L[:, None])) < 1e-12


def test_curvature_vector_sigma_independent(rng):
    for _ in range(50):
        curve = random_star_polygon(rng, int(rng.integers(4, 10)), sigma=-1)
        flipped = DiscreteCurve(curve.points, closed=True, sigma=1)
        for scheme in ("vertex_osculating", "hatakeyama"):
            assert np.allclose(
                curvature_vectors(curve, scheme), curvature_vectors(flipped, scheme), atol=1e-14
            )


# ------------------------------------------------------------- vertex curvature

def test_vertex_curvature_square_arclength(sq):
    # matches kappa = -1/(a cos(pi/4)) of the critical square
    values = vertex_curvatures(sq, "arclength")
    assert np.allclose(values, -SQRT2, atol=1e-13)


def test_vertex_curvature_unit_pentagon_arclength():
    # all four unit-radius 5-gons: kappa = -1/cos(m pi / 5)
    for m in (1, 2, 3, 4):
        poly = regular_polygon(5, m, 1.0)
        assert vertex_curvature(poly, "arclength", 0) == pytest.approx(
            -1 / np.cos(m * np.pi / 5), abs=1e-12
        )


def test_vertex_curvature_collinear_zero():
    path = make_curve([(0, 0), (1, 0), (2, 0)], closed=False)
    for scheme in ("vertex_osculating", "arclength", "hatakeyama", "half_edge_sum"):
        assert vertex_curvature(path, scheme, 1) == 0.0


def test_vertex_curvature_closed_forms(rng):
    # the three named schemes against their classical formulas
    for _ in range(30):
        curve = random_star_polygon(rng, int(rng.integers(4, 12)))
        theta = turning_angles(curve)
        l = edge_lengths(curve)
        chord = np.hypot(*(np.roll(curve.points, -1, axis=0) - np.roll(curve.points, 1, axis=0)).T)
        assert np.max(np.abs(
            vertex_curvatures(curve, "vertex_osculating") - 2 * np.sin(theta) / chord
        )) < 1e-10
        assert np.max(np.abs(
            vertex_curvatures(curve, "hatakeyama") - 2 * np.sin(theta / 2) / np.roll(l, 1)
        )) < 1e-10
    for _ in range(10):
        curve = random_equilateral_polygon(rng, int(rng.integers(5, 10)))
        theta = turning_angles(curve)
        l0 = edge_lengths(curve).mean()
        assert np.max(np.abs(
            vertex_curvatures(curve, "arclength") - (2 / l0) * np.tan(theta / 2)
        )) < 1e-10


def test_vertex_curvature_magnitude_matches_vector(rng):
    for _ in range(20):
        curve = random_star_polygon(rng, 8)
        for scheme in ("vertex_osculating", "hatakeyama", "half_edge_sum"):
            vec = curvature_vectors(curve, scheme)
            assert np.max(
                np.abs(np.abs(vertex_curvatures(curve, scheme)) - np.hypot(vec[:, 0], vec[:, 1]))
            ) < 1e-12


# --------------------------------------------------------------- edge curvature

def test_edge_line_element_values(sq, pent52):
    assert edge_line_element(sq, 0) == pytest.approx(SQRT2 / 2, abs=1e-14)
    assert edge_line_element(pent52, 0) == pytest.approx(
        2 * np.sin(2 * np.pi / 5) * np.cos(2 * np.pi / 5) ** 2, abs=1e-12
    )
    path = make_curve([(0, 0), (1, 0), (2, 0), (3, 0)], closed=False)
    assert edge_line_element(path, 1) == pytest.approx(1.0)


def test_edge_curvature_values(sq, pent52):
    assert edge_curvature(sq, 0) == pytest.approx(-SQRT2, abs=1e-13)
    assert edge_curvature(pent52, 2) == pytest.approx(-1 / np.cos(2 * np.pi / 5), abs=1e-12)
    path = make_curve([(0, 0), (1, 0), (2, 0), (3, 0)], closed=False)
    assert edge_curvature(path, 1) == 0.0


def test_edge_curvature_cusp_adjacent():
    path = make_curve([(0, 0), (1, 0), (0.25, 0), (0.25, 1)], closed=False)
    with pytest.warns(Warning):
        with pytest.raises(CuspAdjacent):
            edge_curvature(path, 1)


def test_edge_curvature_beyond_the_float_range_is_inf_with_no_warning():
    """Edge 1 is 1e-310 long and turns by about pi/2 at both ends: its curvature, about -2e310, overflows."""
    curve = make_curve([(0, 0), (1, 0), (1, 1e-310), (0, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert edge_curvatures(curve)[1] == -np.inf


def test_vertex_curvature_over_a_subnormal_line_element_is_inf_with_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(vertex_curvatures(regular_polygon(6), np.full(6, 1e-320)) == -np.inf)


def test_edge_curvature_sine_identity(rng):
    # kappa(e_k) = sin((theta_k + theta_{k+1}) / 2) / L'_k
    for _ in range(20):
        curve = random_star_polygon(rng, int(rng.integers(4, 12)))
        theta = turning_angles(curve)
        identity = np.sin(0.5 * (theta + np.roll(theta, -1))) / edge_line_elements(curve)
        assert np.max(np.abs(edge_curvatures(curve) - identity)) < 1e-12


# ------------------------------------------------------------- discrete calculus

def test_discrete_gradient_examples(sq):
    assert np.allclose(discrete_gradient(sq, np.ones(4)), 0.0)
    path = make_curve([(0, 0), (1, 0), (2, 0)], closed=False)
    assert np.allclose(discrete_gradient(path, path.points[:, 0]), 1.0)
    g = discrete_gradient(sq, np.array([1.0, 0.0, -1.0, 0.0]))
    assert np.allclose(g, [-1 / SQRT2, -1 / SQRT2, 1 / SQRT2, 1 / SQRT2], atol=1e-15)


def test_discrete_laplacian_constant_is_harmonic(rng):
    curve = random_star_polygon(rng, 9)
    for scheme in ("vertex_osculating", "hatakeyama", "half_edge_sum"):
        assert np.max(np.abs(discrete_laplacian(curve, scheme, np.full(9, 3.7)))) < 1e-13


def test_discrete_laplacian_affine_on_polyline():
    xs = np.array([0.0, 0.5, 1.7, 2.0, 3.1])
    path = make_curve(np.column_stack([xs, np.zeros(5)]), closed=False)
    psi = 2.0 * xs - 1.0  # affine in arclength
    for scheme in ("vertex_osculating", "hatakeyama", "half_edge_sum"):
        assert np.max(np.abs(discrete_laplacian(path, scheme, psi)[1:-1])) < 1e-12


def test_discrete_laplacian_square_value(sq):
    # direct evaluation of the defining formula with L_k = l = sqrt(2):
    # grad psi = (-1, -1, 1, 1)/sqrt(2); Delta psi = (grad_k - grad_{k-1})/L_k
    lap = discrete_laplacian(sq, "half_edge_sum", np.array([1.0, 0.0, -1.0, 0.0]))
    assert np.allclose(lap, [-1.0, 0.0, 1.0, 0.0], atol=1e-14)


def test_laplacian_of_positions_is_curvature_vector(rng):
    curve = random_star_polygon(rng, 11)
    for scheme in ("vertex_osculating", "hatakeyama", "half_edge_sum"):
        componentwise = np.column_stack(
            [discrete_laplacian(curve, scheme, curve.points[:, c]) for c in range(2)]
        )
        assert np.max(np.abs(componentwise - curvature_vectors(curve, scheme))) < 1e-12


def test_mean_value_fields_harmonic_under_every_scheme(rng):
    # psi built from the mean value recurrence (affine in arclength) has
    # Delta psi = 0 under one scheme, hence under all of them
    xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 2.0, size=7))])
    path = make_curve(np.column_stack([xs, np.zeros(8)]), closed=False)
    l = edge_lengths(path)
    psi = np.empty(8)
    psi[0], psi[1] = rng.normal(size=2)
    for k in range(1, 7):
        psi[k + 1] = psi[k] + l[k] * (psi[k] - psi[k - 1]) / l[k - 1]
    for scheme in ("vertex_osculating", "hatakeyama", "half_edge_sum"):
        assert np.max(np.abs(discrete_laplacian(path, scheme, psi)[1:-1])) < 1e-10


def test_laplacian_times_line_element_scheme_independent(rng):
    # Delta psi_k * L_k = grad psi_k - grad psi_{k-1} regardless of the scheme
    curve = random_star_polygon(rng, 10)
    psi = rng.normal(size=10)
    reference = None
    for scheme in ("vertex_osculating", "hatakeyama", "half_edge_sum", rng.uniform(0.5, 2.0, 10)):
        product = discrete_laplacian(curve, scheme, psi) * line_elements(curve, scheme)
        if reference is None:
            reference = product
        assert np.max(np.abs(product - reference)) < 1e-12


def test_l2_symmetry_and_integration_by_parts(rng):
    for _ in range(20):
        n = int(rng.integers(4, 14))
        curve = random_star_polygon(rng, n)
        psi = rng.normal(size=n)
        phi = rng.normal(size=n)
        l = edge_lengths(curve)
        for scheme in ("vertex_osculating", "hatakeyama", "half_edge_sum"):
            L = line_elements(curve, scheme)
            lap_psi = discrete_laplacian(curve, scheme, psi)
            lap_phi = discrete_laplacian(curve, scheme, phi)
            sym = np.sum(psi * lap_phi * L) - np.sum(lap_psi * phi * L)
            assert abs(sym) < 1e-10
            parts = -np.sum(psi * lap_phi * L) - np.sum(
                discrete_gradient(curve, psi) * discrete_gradient(curve, phi) * l
            )
            assert abs(parts) < 1e-10


def test_negative_laplacian_positive_semidefinite(rng):
    for _ in range(50):
        n = int(rng.integers(4, 14))
        curve = random_star_polygon(rng, n)
        psi = rng.normal(size=n)
        L = line_elements(curve, "half_edge_sum")
        rayleigh = -np.sum(psi * discrete_laplacian(curve, "half_edge_sum", psi) * L)
        assert rayleigh >= -1e-10


def test_dirichlet_energy(sq, rng):
    assert dirichlet_energy(sq, np.full(4, 2.5)) == 0.0
    assert dirichlet_energy(sq, np.array([1.0, 0.0, -1.0, 0.0])) == pytest.approx(SQRT2, abs=1e-14)
    psi = rng.normal(size=4)
    assert dirichlet_energy(sq, 3.0 * psi) == pytest.approx(9.0 * dirichlet_energy(sq, psi), rel=1e-13)


def test_smooth_limit_on_circle_polygonization():
    # uniform polygonization of the unit circle, outward normals (sigma=-1):
    # every scheme converges to kappa = -1; the arclength and edge values
    # carry the 1/cos(pi/n) factor, an O(1/n^2) error
    for n in (16, 32, 64, 128):
        poly = regular_polygon(n, 1, 1.0)
        for scheme in ("vertex_osculating", "hatakeyama", "half_edge_sum"):
            err = np.max(np.abs(vertex_curvatures(poly, scheme) + 1.0))
            assert err < 1e-12  # exact on the circle's own polygonization
    errors = []
    edge_errors = []
    for n in (16, 32, 64, 128):
        poly = regular_polygon(n, 1, 1.0)
        errors.append(np.max(np.abs(vertex_curvatures(poly, "arclength") + 1.0)))
        edge_errors.append(np.max(np.abs(edge_curvatures(poly) + 1.0)))
    for seq in (errors, edge_errors):
        for e_n, e_2n in zip(seq, seq[1:]):
            assert 3.5 < e_n / e_2n < 4.5  # O(1/n^2) ratio test


# ------------------------------------------------ psi at its own power of two

def test_calculus_of_a_psi_whose_differences_overflow_the_curve_scale():
    """Finite values, with no warning, where psi's differences over the scaled lengths overflowed."""
    octagon = regular_polygon(8)
    big = regular_polygon(8, 1, 1e300)
    psi = np.zeros(8)
    psi[3] = 3e307
    ramp = np.arange(8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gradient = discrete_gradient(big, psi)
        energy = dirichlet_energy(octagon, ramp * 1e153)
        laplacian = discrete_laplacian(octagon, "half_edge_sum", ramp * 1e306)
    assert gradient[2] == pytest.approx(3.92e7, rel=1e-3) and gradient[3] == -gradient[2]
    assert gradient.tolist() == pytest.approx(discrete_gradient(octagon, psi * 1e-300).tolist(), rel=1e-12)
    assert energy == pytest.approx(3.66e307, rel=1e-3)
    assert energy == pytest.approx(1e306 * dirichlet_energy(octagon, ramp), rel=1e-14)
    assert laplacian[0] == pytest.approx(1.3657e307, rel=1e-4)
    assert laplacian[7] == pytest.approx(-laplacian[0], rel=1e-14)
    assert np.abs(laplacian[1:7]).max() < 1e-14 * laplacian[0]  # zero but for round-off


@pytest.mark.parametrize("closed", [True, False])
def test_laplacian_over_subnormal_custom_line_elements(closed):
    """Custom line elements are taken at their own power of two too: a tiny psi over L = 1e-320 stays finite.

    On the open curve the NaN line elements at its ends do not set that power of two.
    """
    curve = make_curve(regular_polygon(6).points, closed=closed)
    psi = np.arange(6.0) ** 2
    tiny = np.full(6, 1e-320)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        laplacian = discrete_laplacian(curve, tiny, psi * 1e-300)
    expected = discrete_laplacian(curve, np.ones(6), psi) * (1e-300 / tiny[0])
    np.testing.assert_allclose(laplacian, expected, rtol=1e-12)


@given(st.integers(3, 16), st.integers(0, 2**32 - 1))
def test_curvatures_of_custom_line_elements_across_the_float_range(n, seed):
    """Custom line elements 2^u, u uniform in [-1074, 1023] per vertex: no warning and no NaN.

    On a perturbed closed n-gon; a curvature beyond the float range is inf.
    """
    rng = np.random.default_rng(seed)
    curve = make_curve(regular_polygon(n).points + 0.1 * rng.standard_normal((n, 2)) / n)
    elements = np.ldexp(1.0, rng.integers(-1074, 1024, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in (vertex_curvatures(curve, elements), curvature_vectors(curve, elements)):
            assert not np.isnan(values).any()


@settings(max_examples=150)
@given(
    st.integers(3, 12),
    st.booleans(),
    st.integers(-1000, 960),
    st.integers(-960, 1023),
    st.sampled_from(["vertex_osculating", "hatakeyama", "half_edge_sum"]),
    st.integers(0, 2**32 - 1),
)
def test_calculus_is_exact_under_a_power_of_two_of_psi(n, closed, k, j, scheme, seed):
    """reader(c, psi 2^j) is ldexp(reader(c, psi), j) bit for bit, 2j for the energy, with no warning.

    On a perturbed n-gon 2^k, open or closed, with psi in (-1, 1) so that
    psi 2^j is finite and normal.  The comparison runs wherever
    reader(c, psi) is normal, so that it holds every bit, and the ldexp of
    it is finite.
    """
    rng = np.random.default_rng(seed)
    points = regular_polygon(n).points + 0.1 * rng.standard_normal((n, 2)) / n
    curve = make_curve(np.ldexp(points, k), closed=closed)
    psi = rng.uniform(-1.0, 1.0, n)
    readers = [
        (lambda field: discrete_gradient(curve, field), j),
        (lambda field: discrete_laplacian(curve, scheme, field), j),
        (lambda field: dirichlet_energy(curve, field), 2 * j),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for reader, power in readers:
            base = np.asarray(reader(psi))
            with np.errstate(over="ignore"):  # inf where the value is beyond the float range
                expected = np.ldexp(base, power)
            held = np.isfinite(expected) & (np.abs(base) >= np.finfo(float).tiny)
            assert np.asarray(reader(np.ldexp(psi, j)))[held].tobytes() == expected[held].tobytes()
