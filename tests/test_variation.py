import numpy as np
import pytest

from polyvar import (
    classify_equilibrium,
    conservation_vectors,
    equilibrium_residual,
    first_variation,
    length_gradient,
    length_gradients,
    make_curve,
    regular_polygon,
    turning_angles,
    volume_gradient,
    volume_gradients,
)
from polyvar.errors import KappaZero, OpenCurve
from polyvar.flow import project_volume_preserving
from polyvar.stability import regular_polygon_kappa, second_variation

from helpers import brute_length, central_gradient, oracle_volume, random_star_polygon

SQRT2 = np.sqrt(2.0)


def test_length_gradient_square(sq):
    assert np.allclose(length_gradient(sq, 0), [SQRT2, 0.0], atol=1e-14)


def test_length_gradient_collinear_vertex():
    path = make_curve([(0, 0), (1, 0), (2, 0)], closed=False)
    assert np.allclose(length_gradient(path, 1), 0.0)


def test_length_gradient_two_expressions_agree(rng):
    # R(nu_k - nu_{k-1}) computed via normals vs the tangent difference
    from polyvar import edge_normals, rot90

    for _ in range(20):
        curve = random_star_polygon(rng, int(rng.integers(4, 12)), sigma=int(rng.choice([-1, 1])))
        nu = edge_normals(curve)
        via_normals = rot90(nu - np.roll(nu, 1, axis=0), curve.sigma)
        assert np.max(np.abs(via_normals - length_gradients(curve))) < 1e-12


def test_length_gradient_finite_differences(rng):
    for _ in range(10):
        curve = random_star_polygon(rng, int(rng.integers(5, 12)))
        h = 1e-6 * curve.diameter()
        fd = central_gradient(brute_length, curve.points, h)
        assert np.max(np.abs(fd - length_gradients(curve))) < 1e-7


def test_length_gradient_magnitude_identity(rng):
    for _ in range(20):
        curve = random_star_polygon(rng, 9)
        norms = np.hypot(*length_gradients(curve).T)
        assert np.max(np.abs(norms - 2.0 * np.abs(np.sin(0.5 * turning_angles(curve))))) < 1e-12


def test_length_gradient_tangential_identity(rng):
    # -grad L = 2 tan(theta/2) (nu_k + nu_{k-1}) / 2 at non-cusp vertices
    from polyvar import edge_normals

    for _ in range(20):
        curve = random_star_polygon(rng, 8)
        nu = edge_normals(curve)
        mean_nu = 0.5 * (nu + np.roll(nu, 1, axis=0))
        rhs = 2.0 * np.tan(0.5 * turning_angles(curve))[:, None] * mean_nu
        assert np.max(np.abs(length_gradients(curve) + rhs)) < 1e-12


def test_volume_gradient_square(sq):
    assert np.allclose(volume_gradient(sq, 0), [1.0, 0.0], atol=1e-15)


def test_volume_gradient_folded_vertex():
    curve = make_curve([(0, 0), (1, 0), (2, 1), (1, 2), (1.0, 0.5)])
    # make p_{k+1} = p_{k-1} around vertex 2
    pts = curve.points.copy()
    pts[3] = pts[1]
    folded = make_curve(pts)
    assert np.allclose(volume_gradient(folded, 2), 0.0)


def test_volume_gradient_finite_differences(rng):
    for _ in range(10):
        curve = random_star_polygon(rng, int(rng.integers(5, 12)))
        h = 1e-6 * curve.diameter()
        fd = central_gradient(lambda p: oracle_volume(p, curve.sigma), curve.points, h)
        assert np.max(np.abs(fd - volume_gradients(curve))) < 1e-7


def test_volume_gradient_open_curve():
    with pytest.raises(OpenCurve):
        volume_gradients(make_curve([(0, 0), (1, 0), (1, 1)], closed=False))


def test_first_variation_translation_invariance(rng):
    curve = random_star_polygon(rng, 8)
    const = np.tile(rng.normal(size=2), (8, 1))
    assert abs(first_variation(curve, const, "length")) < 1e-12
    assert abs(first_variation(curve, const, "volume")) < 1e-12


def test_first_variation_dilation_euler_identity(sq):
    # length is 1-homogeneous: <grad L, p> = L
    assert first_variation(sq, sq.points, "length") == pytest.approx(4 * SQRT2, rel=1e-13)


def test_first_variation_directional_fd(rng):
    curve = random_star_polygon(rng, 7)
    v = rng.normal(size=(7, 2))
    h = 1e-6
    fd = (brute_length(curve.points + h * v) - brute_length(curve.points - h * v)) / (2 * h)
    assert first_variation(curve, v, "length") == pytest.approx(fd, abs=1e-7)
    fd_vol = (
        oracle_volume(curve.points + h * v, curve.sigma)
        - oracle_volume(curve.points - h * v, curve.sigma)
    ) / (2 * h)
    assert first_variation(curve, v, "volume") == pytest.approx(fd_vol, abs=1e-7)
    combo = first_variation(curve, v, "length_plus_kappa_vol", kappa=-2.5)
    assert combo == pytest.approx(fd - 2.5 * fd_vol, abs=1e-6)


def test_first_variation_open_boundary_enforced():
    path = make_curve([(0, 0), (1, 0), (2, 1)], closed=False)
    with pytest.raises(ValueError):
        first_variation(path, np.ones((3, 2)), "length")
    v = np.zeros((3, 2))
    v[1] = (0.3, -0.2)
    first_variation(path, v, "length")  # boundary-fixed field is fine


def test_equilibrium_residual_square(sq):
    assert np.max(np.abs(equilibrium_residual(sq, -SQRT2))) < 1e-12
    norms = np.hypot(*equilibrium_residual(sq, 0.0).T)
    assert np.allclose(norms, SQRT2, atol=1e-13)


def test_equilibrium_residual_pentagram(pent52):
    kappa = -1 / np.cos(2 * np.pi / 5)
    assert np.max(np.abs(equilibrium_residual(pent52, kappa))) < 1e-12


def test_residual_is_rotated_gradient(rng):
    from polyvar import rot90

    for _ in range(10):
        curve = random_star_polygon(rng, 8, sigma=int(rng.choice([-1, 1])))
        kappa = rng.normal()
        grad = length_gradients(curve) + kappa * volume_gradients(curve)
        assert np.max(np.abs(rot90(equilibrium_residual(curve, kappa), curve.sigma) - grad)) < 1e-12


def test_conservation_vectors_square(sq):
    kappa = -SQRT2
    c = conservation_vectors(sq, kappa)
    assert np.max(np.abs(c)) < 1e-13
    mids = 0.5 * (np.roll(sq.points, -1, axis=0) + sq.points)
    assert np.allclose(np.hypot(mids[:, 0], mids[:, 1]), 1.0 / abs(kappa), atol=1e-13)


def test_conservation_vectors_translated_square(sq):
    kappa = -SQRT2
    shifted = sq.with_points(sq.points + np.array([5.0, 0.0]))
    c = conservation_vectors(shifted, kappa)
    assert np.max(np.hypot(*(c - c.mean(axis=0)).T)) < 1e-12  # still constant
    assert np.allclose(c[0], [kappa * 5.0, 0.0], atol=1e-12)


def test_conservation_vectors_spread_off_equilibrium():
    rect = make_curve([(0, 0), (2, 0), (2, 1), (0, 1)])
    c = conservation_vectors(rect, -SQRT2)
    assert np.max(np.hypot(*(c - c.mean(axis=0)).T)) > 0.1


def test_classify_equilibrium_square(sq):
    report = classify_equilibrium(sq, -SQRT2)
    assert report.is_equilibrium
    assert report.l0 == pytest.approx(SQRT2, abs=1e-14)
    assert report.theta0 == pytest.approx(-np.pi / 2, abs=1e-14)
    assert report.winding == -1
    assert report.n == 4 and report.sigma == -1
    assert abs(report.kappa * report.l0 - 2 * np.tan(report.theta0 / 2)) < 1e-12

    wrong = classify_equilibrium(sq, -1.0)
    assert not wrong.is_equilibrium
    assert wrong.max_residual > 1e-2


def test_classify_equilibrium_pentagram(pent52):
    report = classify_equilibrium(pent52, -1 / np.cos(2 * np.pi / 5))
    assert report.is_equilibrium
    assert report.theta0 == pytest.approx(-4 * np.pi / 5, abs=1e-13)
    assert report.winding == -2


def test_classify_equilibrium_kappa_zero(sq):
    with pytest.raises(KappaZero):
        classify_equilibrium(sq, 0.0)


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
def test_classify_equilibrium_rejects_tolerance(sq, tol):
    # with tol = inf the unit square passed at kappa = 5, a residual of 6.4
    with pytest.raises(ValueError, match="tolerance"):
        classify_equilibrium(sq, 5.0, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        second_variation(sq, -SQRT2, np.zeros((4, 2)), tol=tol)


def test_equilibrium_sweep_and_perturbation():
    # both directions of the characterization at desk scale (full sweep in acceptance)
    for n, m in [(3, 1), (5, 2), (8, 3), (12, 7)]:
        poly = regular_polygon(n, m, 1.0)
        kappa = regular_polygon_kappa(n, m, 1.0)
        assert np.max(np.abs(equilibrium_residual(poly, kappa))) < 1e-12
        pts = poly.points.copy()
        pts[0] += (1e-3, 0.0)
        assert np.max(np.abs(equilibrium_residual(poly.with_points(pts), kappa))) > 1e-4


def test_residual_zero_iff_first_variation_vanishes(rng, sq, pent52):
    for curve, kappa in [(sq, -SQRT2), (pent52, -1 / np.cos(2 * np.pi / 5))]:
        for _ in range(20):
            v = project_volume_preserving(curve, rng.normal(size=(curve.n, 2)))
            dv = first_variation(curve, v, "length_plus_kappa_vol", kappa=kappa)
            assert abs(dv) < 1e-9
    rect = make_curve([(0, 0), (2, 0), (2, 1), (0, 1)])
    values = [
        first_variation(rect, project_volume_preserving(rect, rng.normal(size=(4, 2))), "length")
        for _ in range(20)
    ]
    assert max(abs(v) for v in values) > 1e-3


def test_volume_identity_sum_nu_l_zero(rng):
    # translation invariance of the volume gradient: sum R(p_{k+1}-p_{k-1}) = 0
    for _ in range(10):
        curve = random_star_polygon(rng, int(rng.integers(4, 10)))
        assert np.max(np.abs(volume_gradients(curve).sum(axis=0))) < 1e-12
