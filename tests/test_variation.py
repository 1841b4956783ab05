import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polyvar import (
    classify_equilibrium,
    conservation_vectors,
    edge_lengths,
    equilibrium_residual,
    first_variation,
    lagrange_kappa,
    length_gradient,
    length_gradients,
    make_curve,
    regular_polygon,
    turning_angles,
    volume_gradient,
    volume_gradients,
)
from polyvar import variation
from polyvar.errors import InternalInconsistency, KappaZero, OpenCurve
from polyvar.stability import regular_polygon_kappa, second_variation
from polyvar.variation import _residual_conditioning, project_volume_preserving

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


@settings(max_examples=300)
@given(
    st.integers(3, 64),
    st.sampled_from([-1, 1]),
    st.integers(-1000, 1023),
    st.floats(1.0, 2.0, exclude_max=True),
    st.integers(0, 2**32 - 1),
)
@example(n=8, sigma=-1, j=1023, radius=1.669, seed=0)  # about regular_polygon(8, 1, 1.5e308)
@example(n=3, sigma=1, j=1023, radius=1.5, seed=0)
def test_volume_gradients_are_exact_under_a_power_of_two(n, sigma, j, radius, seed):
    """volume_gradients(c 2^j) is ldexp(volume_gradients(c), j) bit for bit wherever that is finite.

    On a perturbed n-gon c of radius in [1, 2) whose points scale by 2^j
    exactly, so that both curves have the same points at their power of two.
    The gradient is half the chords: near the top of the float range a chord
    overflows where the gradient does not.
    """
    rng = np.random.default_rng(seed)
    points = regular_polygon(n, 1, radius).points * (1.0 + 0.1 * rng.standard_normal((n, 2)) / n)
    with np.errstate(over="ignore"):  # inf where a point or a value is beyond the float range
        scaled = np.ldexp(points, j)
        expected = np.ldexp(volume_gradients(make_curve(points, sigma=sigma)), j)
    assume(np.array_equal(np.ldexp(scaled, -j), points))
    held = np.isfinite(expected)
    assert held.any()
    assert volume_gradients(make_curve(scaled, sigma=sigma))[held].tobytes() == expected[held].tobytes()


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


def test_first_variation_unknown_functional(sq):
    with pytest.raises(ValueError, match="unknown functional 'area'"):
        first_variation(sq, np.zeros((4, 2)), "area")


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


@pytest.mark.parametrize("scale", [1e307, 1e308, 1.7e308])
def test_classify_equilibrium_at_the_top_of_the_float_range(scale):
    """|kappa| diameter and l0 are taken at the curve's power of two, so an overflowing diameter certifies nothing."""
    rng = np.random.default_rng(0)
    perturbed = make_curve((regular_polygon(7).points + 0.05 * rng.standard_normal((7, 2)) / 7) * scale)
    assert not classify_equilibrium(perturbed, lagrange_kappa(perturbed)).is_equilibrium
    regular = make_curve(regular_polygon(7).points * scale)
    report = classify_equilibrium(regular, lagrange_kappa(regular))
    assert report.is_equilibrium
    assert report.l0 == pytest.approx(2.0 * np.sin(np.pi / 7) * scale, rel=1e-14)


def _residual_svd(n, m):
    """SVD of the central-difference Jacobian of the residual at the regular (n, m) polygon of radius 1."""
    poly = regular_polygon(n, m, 1.0)
    kappa = regular_polygon_kappa(n, m, 1.0)
    x, h = poly.points.ravel(), 1e-6
    columns = []
    for i in range(2 * n):
        dx = np.zeros(2 * n)
        dx[i] = h
        plus, minus = (equilibrium_residual(make_curve((x + d).reshape(n, 2)), kappa) for d in (dx, -dx))
        columns.append((plus - minus).ravel() / (2 * h))
    _, singular, vt = np.linalg.svd(np.array(columns).T)
    return poly, singular[::-1], vt[::-1]


@pytest.mark.parametrize("n, m", [(4, 1), (8, 1), (16, 1), (32, 1), (5, 2), (7, 3), (12, 5)])
def test_residual_conditioning_closed_form(n, m):
    """The per-harmonic closed form against the singular values of a central-difference Jacobian."""
    singular = _residual_svd(n, m)[1]
    assert np.all(singular[:3] < 1e-8)  # the rigid motions
    assert _residual_conditioning(n, m) == pytest.approx(singular[3], rel=1e-6)


def test_regular_spectrum_marks_exactly_the_three_rigid_motions():
    """The mask holds one eigenvalue at each of j = 0, m and n - m, each zero to round-off and below every other.

    Over criterion 8's range, n <= 64.  A count of negative eigenvalues must
    leave these out: some of them round below zero.
    """
    eps = np.finfo(float).eps
    for n in range(3, 65):
        for m in range(1, (n + 1) // 2):
            eigenvalues, rigid = variation._regular_hessian_spectrum(n, m)[4:]
            size = np.abs(eigenvalues)
            assert rigid.sum() == 3 and np.flatnonzero(rigid.any(axis=0)).tolist() == [0, m, n - m], (n, m)
            assert size[rigid].max() <= 4 * n * eps * size.max(), (n, m)
            assert size[~rigid].min() > size[rigid].max(), (n, m)


def test_residual_conditioning_falls_as_n_cubed():
    sigma = [_residual_conditioning(n, 1) for n in (8, 16, 32, 64)]
    assert sigma == pytest.approx([0.224171, 0.0297007, 0.00376674, 0.000472549], rel=1e-5)


def test_newton_step_of_the_regular_polygon():
    """The stiffest |eigenvalue| of the convex regular n-gon's Hessian is 4 / l for even n, about 4 / l for odd n.

    So the flow's Newton step along its block-preconditioned direction is l / 4 = L / (4n).
    """
    stiffest = {}
    for n in range(3, 4097):
        low, high = variation._regular_hessian_spectrum(n, 1)[4]
        stiffest[n] = max(np.abs(low).max(), np.abs(high).max()) * 2 * np.sin(np.pi / n)  # radius 1
    even = np.array([stiffest[n] for n in range(4, 4097, 2)])
    assert np.abs(even - 4).max() < 1e-14
    odd = np.array([stiffest[n] for n in range(5, 4097, 2)])
    assert stiffest[3] == pytest.approx(4.5, rel=1e-14) and odd[0] == pytest.approx(3.5244, abs=1e-4)
    assert np.all(np.diff(odd) > 0) and odd[-1] < 4 and odd[-1] == pytest.approx(4, rel=1e-6)


@pytest.mark.parametrize("n, least", [(8, 0.5), (16, 0.25)])
def test_classify_slack_is_tight(n, least):
    """Along the slowest mode a just-passing residual spreads the edges by a fair share of the slack."""
    poly, singular, modes = _residual_svd(n, 1)
    curve = make_curve(poly.points + 1e-4 * modes[3].reshape(n, 2) / np.abs(modes[3]).max())
    kappa = lagrange_kappa(curve)
    residual = equilibrium_residual(curve, kappa)
    tol = np.hypot(residual[:, 0], residual[:, 1]).max() / max(1.0, abs(kappa) * curve.diameter()) * (1 + 1e-6)
    report = classify_equilibrium(curve, kappa, tol=tol)  # no InternalInconsistency: within the slack
    assert report.is_equilibrium
    lengths = edge_lengths(curve)
    half_slack = tol * max(1.0, abs(kappa) * curve.diameter()) / (np.sin(np.pi / n) * singular[3])
    assert least < np.abs(lengths - lengths.mean()).max() / (half_slack * lengths.mean()) <= 1.0


@pytest.mark.parametrize("factor, raises", [(0.5, False), (2.0, True)])
def test_classify_slack_bounds_the_edge_spread(monkeypatch, factor, raises):
    """With the residual forced to 0, the edge spread may reach the derived slack and no more."""
    n, tol = 8, 1e-6
    poly, singular, modes = _residual_svd(n, 1)
    mode = modes[3].reshape(n, 2) / np.abs(modes[3]).max()
    probe = edge_lengths(make_curve(poly.points + 1e-4 * mode))
    spread_per_amp = np.abs(probe - probe.mean()).max() / probe.mean() / 1e-4
    kappa = regular_polygon_kappa(n, 1, 1.0)
    half_slack = tol * max(1.0, abs(kappa) * poly.diameter()) / (np.sin(np.pi / n) * singular[3])
    curve = make_curve(poly.points + factor * half_slack / spread_per_amp * mode)
    monkeypatch.setattr(variation, "equilibrium_residual", lambda curve, kappa: np.zeros((curve.n, 2)))
    if raises:
        with pytest.raises(InternalInconsistency, match="not a regular polygon"):
            classify_equilibrium(curve, kappa, tol=tol)
    else:
        assert classify_equilibrium(curve, kappa, tol=tol).is_equilibrium


def test_classify_rejects_turning_of_no_regular_polygon():
    # a figure eight has total turning 0; only a tolerance this loose lets its residual pass
    eight = make_curve([(0, 0), (1, 1), (1, 0), (0, 1)])
    assert abs(turning_angles(eight).sum()) < 1e-12
    with pytest.raises(InternalInconsistency, match="turning"):
        classify_equilibrium(eight, -1.0, tol=1e3)


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
def test_classify_equilibrium_rejects_tolerance(sq, tol):
    # with tol = inf the unit square passed at kappa = 5, a residual of 6.4
    with pytest.raises(ValueError, match="tolerance"):
        classify_equilibrium(sq, 5.0, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        second_variation(sq, -SQRT2, np.zeros((4, 2)), tol=tol)


@pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf])
def test_classify_equilibrium_rejects_kappa_not_finite(sq, kappa):
    with pytest.raises(ValueError, match="kappa"):
        classify_equilibrium(sq, kappa)
    with pytest.raises(ValueError, match="kappa"):
        second_variation(sq, kappa, np.zeros((4, 2)))


def test_classify_equilibrium_kappa_beyond_the_float_range_at_the_curve_scale():
    """kappa 2^e overflows, but kappa times the scaled chords and lengths is scaled back with no warning."""
    report = classify_equilibrium(regular_polygon(5, 2), 1e308)
    assert not report.is_equilibrium and np.isfinite(report.max_residual)
    # every chord is 0.001 long and the residual finite, but |kappa| * diameter
    # overflows: the tolerance is not finite, so the residual does not pass
    zigzag = make_curve([(0, 0), (4, 0), (0, 1e-3), (4, 1e-3)])
    report = classify_equilibrium(zigzag, 1.7e308)
    assert not report.is_equilibrium and report.max_residual == pytest.approx(8.5e304)


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
