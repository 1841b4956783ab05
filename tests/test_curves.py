import warnings

import numpy as np
import pytest

import polyvar as pv
from polyvar import (
    DiscreteCurve,
    cusp_vertices,
    edge_lengths,
    edge_normal,
    edge_normals,
    edge_vectors,
    enclosed_volume,
    make_curve,
    regular_polygon,
    rot90,
    total_length,
    turning_angle,
    turning_angles,
    turning_number,
)
from polyvar.errors import (
    CuspPresent,
    CuspWarning,
    InvalidWinding,
    NonIntegerTurning,
    OpenCurve,
    TooFewVertices,
    ZeroEdge,
)

from helpers import oracle_volume, random_star_polygon

SQRT2 = np.sqrt(2.0)


def test_make_curve_square(sq):
    assert sq.n == 4
    assert sq.closed and sq.sigma == -1
    assert not sq.points.flags.writeable


def test_make_curve_zero_edge():
    with pytest.raises(ZeroEdge) as err:
        make_curve([(0, 0), (0, 0), (1, 0)], closed=False)
    assert err.value.k == 0


def test_make_curve_zero_wrap_edge():
    with pytest.raises(ZeroEdge) as err:
        make_curve([(0, 0), (1, 0), (0, 1), (0, 0)])
    assert err.value.k == 3


# the first edge k with p_{k+1} == p_k, or None where the curve is accepted
@pytest.mark.parametrize("points, closed, k", [
    ([(0, 0), (5e-324, 0), (1, 1)], True, None),  # a subnormal gap is not zero
    ([(0, 0), (1, 0), (1, 1), (1, 1)], False, 2),  # the last edge of an open curve
    ([(0, 0), (1, 0), (1, 0), (0, 0)], True, 1),  # the first of two zero edges
    ([(0.0, 0.0), (-0.0, 0.0), (1, 1)], True, 0),  # -0.0 equals 0.0
    ([(0.0, 0.0), (1, 1), (-0.0, -0.0)], True, 2),  # ... on the closing edge too
    ([(0.0, 0.0), (1, 1), (-0.0, -0.0)], False, None),  # which an open curve lacks
], ids=["subnormal", "open-end", "first-of-two", "signed-zero", "signed-zero-closing", "open-ends-equal"])
def test_make_curve_zero_edge_cases(points, closed, k):
    if k is None:
        assert make_curve(points, closed=closed).n == len(points)
    else:
        with pytest.raises(ZeroEdge) as err:
            make_curve(points, closed=closed)
        assert err.value.k == k


def test_make_curve_too_few_vertices():
    with pytest.raises(TooFewVertices):
        make_curve([(0, 0), (1, 0)], closed=True)
    with pytest.raises(TooFewVertices):
        make_curve([(0, 0)], closed=False)


def test_make_curve_bad_sigma():
    with pytest.raises(ValueError):
        make_curve([(0, 0), (1, 0), (0, 1)], sigma=2)


def test_regular_polygon_square_fixture(sq):
    poly = regular_polygon(4, 1, 1.0)
    assert np.allclose(poly.points, sq.points, atol=1e-15)


def test_regular_polygon_invalid_winding():
    with pytest.raises(InvalidWinding):
        regular_polygon(4, 2)
    with pytest.raises(InvalidWinding):
        regular_polygon(5, 0)
    with pytest.raises(InvalidWinding):
        regular_polygon(5, 5)


def test_regular_polygon_center_phase():
    poly = regular_polygon(6, 1, 2.0, center=(3.0, -1.0), phase=0.25)
    assert np.allclose(poly.points.mean(axis=0), [3.0, -1.0], atol=1e-12)
    assert np.allclose(np.hypot(*(poly.points - [3.0, -1.0]).T), 2.0)


def test_edge_normals_square(sq):
    assert np.allclose(edge_normal(sq, 0), [1 / SQRT2, 1 / SQRT2], atol=1e-15)
    assert np.allclose(edge_normal(sq, 3), [1 / SQRT2, -1 / SQRT2], atol=1e-15)


def test_edge_normals_orthogonal_and_unit(rng):
    for _ in range(20):
        curve = random_star_polygon(rng, int(rng.integers(4, 12)), sigma=int(rng.choice([-1, 1])))
        nu = edge_normals(curve)
        e = edge_vectors(curve)
        assert np.max(np.abs(np.sum(nu * e, axis=1))) < 1e-14 * curve.diameter()
        assert np.allclose(np.hypot(nu[:, 0], nu[:, 1]), 1.0, atol=1e-14)


def test_turning_angles_square(sq):
    assert np.allclose(turning_angles(sq), -np.pi / 2, atol=1e-14)
    assert turning_angle(sq, 2) == pytest.approx(-np.pi / 2)


def test_turning_angle_collinear():
    path = make_curve([(0, 0), (1, 0), (2, 0)], closed=False)
    assert turning_angle(path, 1) == 0.0


def test_turning_angle_pentagram(pent52):
    assert np.allclose(turning_angles(pent52), -4 * np.pi / 5, atol=1e-13)


def test_turning_angle_rotation_property(rng):
    # R_{sigma theta_k}(nu_{k-1}) = nu_k
    for sigma in (-1, 1):
        curve = random_star_polygon(rng, 9, sigma=sigma)
        nu = edge_normals(curve)
        theta = turning_angles(curve)
        for k in range(curve.n):
            ang = sigma * theta[k]
            c, s = np.cos(ang), np.sin(ang)
            rotated = np.array(
                [c * nu[k - 1, 0] - s * nu[k - 1, 1], s * nu[k - 1, 0] + c * nu[k - 1, 1]]
            )
            assert np.allclose(rotated, nu[k], atol=1e-12)


def test_cusp_warning_and_flag():
    with pytest.warns(CuspWarning):
        theta = turning_angles(make_curve([(0, 0), (1, 0), (0.5, 0)], closed=False))
    assert theta[1] == np.pi


def test_total_length(sq):
    assert total_length(sq) == pytest.approx(4 * SQRT2, abs=1e-14)
    assert total_length(make_curve([(0, 0), (3, 4)], closed=False)) == 5.0


def test_total_length_regular_polygon_formula():
    for n, m, a in [(5, 1, 1.0), (5, 2, 1.0), (7, 3, 2.5), (12, 5, 0.3)]:
        poly = regular_polygon(n, m, a)
        assert total_length(poly) == pytest.approx(2 * n * a * np.sin(m * np.pi / n), rel=1e-13)


def test_enclosed_volume_square(sq):
    assert enclosed_volume(sq) == pytest.approx(2.0, abs=1e-14)
    reversed_sq = make_curve(sq.points[::-1], sigma=-1)
    assert enclosed_volume(reversed_sq) == pytest.approx(-2.0, abs=1e-14)


def test_enclosed_volume_open_curve_rejected():
    with pytest.raises(OpenCurve):
        enclosed_volume(make_curve([(0, 0), (1, 0), (1, 1)], closed=False))


def test_enclosed_volume_matches_shoelace(rng):
    for _ in range(100):
        sigma = int(rng.choice([-1, 1]))
        curve = random_star_polygon(rng, int(rng.integers(3, 15)), sigma=sigma)
        assert enclosed_volume(curve) == pytest.approx(
            oracle_volume(curve.points, sigma), abs=1e-12 * curve.diameter() ** 2
        )


def test_enclosed_volume_translation_invariant(rng):
    for _ in range(20):
        curve = random_star_polygon(rng, 8)
        shifted = curve.with_points(curve.points + rng.uniform(-50, 50, size=2))
        assert enclosed_volume(shifted) == pytest.approx(enclosed_volume(curve), abs=1e-10)


def test_turning_numbers(sq, pent52):
    assert turning_number(sq) == -1
    assert turning_number(pent52) == -2
    assert turning_number(DiscreteCurve(sq.points, sigma=1)) == 1
    assert turning_number(DiscreteCurve(pent52.points, sigma=1)) == 2


def test_turning_number_cusp_rejected():
    spike = make_curve([(0, 0), (1, 0), (2, 0), (1, 0.0), (0.5, 1)], closed=True)
    # vertices 1..3 trace out-and-back along the x axis: vertex 2 is a cusp
    with pytest.raises(CuspPresent):
        turning_number(spike)


def test_regular_polygon_uniformity():
    # l_k = 2 a sin(m pi / n) and theta_k = sigma * (2 pi m / n wrapped to (-pi, pi])
    for n, m, a, sigma in [(4, 1, 1.0, -1), (5, 2, 1.0, -1), (7, 3, 2.0, 1), (9, 7, 1.5, -1)]:
        poly = regular_polygon(n, m, a, sigma=sigma)
        lengths = np.hypot(*edge_vectors(poly).T)
        assert np.max(np.abs(lengths - 2 * a * np.sin(m * np.pi / n))) < 1e-12
        step = 2 * np.pi * m / n
        wrapped = step - 2 * np.pi * np.floor((step + np.pi) / (2 * np.pi))
        assert np.max(np.abs(turning_angles(poly) - sigma * wrapped)) < 1e-12


def test_closed_edge_sum_is_zero(rng):
    for _ in range(20):
        curve = random_star_polygon(rng, int(rng.integers(3, 20)))
        assert np.max(np.abs(edge_vectors(curve).sum(axis=0))) < 1e-12 * curve.diameter()


def test_rot90_round_trip(rng):
    v = rng.normal(size=(7, 2))
    assert np.allclose(rot90(rot90(v, 1), -1), v)
    assert np.allclose(rot90(v, 1), -rot90(v, -1))


def test_non_integer_turning_is_internal_guard(monkeypatch, sq):
    # corrupt the angles to exercise the residual check
    import polyvar.curves as curves_mod

    original = curves_mod.turning_angles

    def corrupted(curve):
        return original(curve) + 1e-3

    monkeypatch.setattr(curves_mod, "turning_angles", corrupted)
    with pytest.raises(NonIntegerTurning):
        turning_number(sq)


# ------------------------------------------------------------- cached arrays

def test_cached_arrays_are_read_only(sq):
    lengths = edge_lengths(sq)
    before = lengths.copy()
    with pytest.raises(ValueError):
        lengths[0] = 5.0
    assert np.array_equal(edge_lengths(sq), before)
    assert edge_lengths(sq) is lengths  # computed once per curve
    cached = (sq.points, sq.edge_vectors, sq.tangents, sq.edge_normals, sq.turning_angles, sq.cusp_mask, sq.chords)
    for values in cached:
        assert not values.flags.writeable


def test_chords_skip_one_vertex(rng):
    pts = rng.standard_normal((7, 2))
    closed = make_curve(pts)
    assert np.array_equal(closed.chords, np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0))
    path = make_curve(pts, closed=False)
    assert np.array_equal(path.chords[1:-1], pts[2:] - pts[:-2])
    assert np.all(np.isnan(path.chords[[0, -1]]))


def test_cusp_warning_once_per_curve():
    path = make_curve([(0, 0), (1, 0), (0.5, 0), (0.5, 1)], closed=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cusp_vertices(path).tolist() == [1]  # asking for cusps does not warn
    with pytest.warns(CuspWarning):
        turning_angles(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert turning_angles(path)[1] == np.pi
        pv.vertex_curvatures(path, "half_edge_sum")


# ------------------------------------------------------- single-value lookups

# name -> (accessor(curve, k), indexes edges rather than interior vertices)
ACCESSORS = {
    "line_element": (lambda c, k: pv.line_element(c, "half_edge_sum", k), False),
    "curvature_vector": (lambda c, k: pv.curvature_vector(c, "half_edge_sum", k), False),
    "vertex_curvature": (lambda c, k: pv.vertex_curvature(c, "half_edge_sum", k), False),
    "length_gradient": (pv.length_gradient, False),
    "volume_gradient": (pv.volume_gradient, False),
    "turning_angle": (pv.turning_angle, False),
    "vertex_normal": (pv.vertex_normal, False),
    "vertex_tangent": (pv.vertex_tangent, False),
    "weighted_vertex_normal": (pv.weighted_vertex_normal, False),
    "edge_line_element": (pv.edge_line_element, True),
    "edge_curvature": (pv.edge_curvature, True),
    "edge_normal": (pv.edge_normal, True),
    "frenet_edge_residual": (pv.frenet_edge_residual, True),
}
# on an open curve these need a value at the end vertex of a boundary edge
ENDS_UNDEFINED = {"edge_line_element", "edge_curvature", "frenet_edge_residual"}


@pytest.mark.parametrize(
    "name, closed",
    [(name, closed) for name in ACCESSORS for closed in (True, False) if closed or name != "volume_gradient"],
)
def test_accessor_rejects_index_out_of_range(name, closed):
    accessor, edge = ACCESSORS[name]
    curve = make_curve([(0, 0), (2, 0), (3, 1), (2, 3), (0, 2)], closed=closed)
    if edge:
        past = curve.edge_count
    else:
        past = curve.n if closed else curve.n - 1
    outside = [-1, past]
    if not closed and name in ENDS_UNDEFINED:
        outside += [0, curve.edge_count - 1]
    for k in outside:
        with pytest.raises(IndexError):
            accessor(curve, k)


# ----------------------------------------------------- the neighbour convention

def _open_unit_path():
    """Cusp-free open path with unit edges, so that every scheme applies."""
    directions = np.cumsum([0.0, 0.5, 0.7, -0.3, 0.8, 0.6])
    steps = np.column_stack([np.cos(directions), np.sin(directions)])
    return make_curve(np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)]), closed=False)


def _per_vertex_quantities():
    psi = np.linspace(-1.0, 2.0, 7) ** 2
    quantities = {
        "turning_angles": pv.turning_angles,
        "chords": lambda c: c.chords,
        "length_gradients": pv.length_gradients,
        "vertex_normals": pv.vertex_normals,
        "vertex_tangents": pv.vertex_tangents,
        "weighted_vertex_normals": pv.weighted_vertex_normals,
    }
    for scheme in (*pv.SCHEMES, np.linspace(0.5, 1.5, 7)):
        label = scheme if isinstance(scheme, str) else "custom"
        quantities[f"line_elements[{label}]"] = lambda c, s=scheme: pv.line_elements(c, s)
        quantities[f"curvature_vectors[{label}]"] = lambda c, s=scheme: pv.curvature_vectors(c, s)
        quantities[f"vertex_curvatures[{label}]"] = lambda c, s=scheme: pv.vertex_curvatures(c, s)
        quantities[f"discrete_laplacian[{label}]"] = lambda c, s=scheme: pv.discrete_laplacian(c, s, psi)
    return quantities


PER_VERTEX = _per_vertex_quantities()

# per-edge quantities: on an open curve, those built from a value at both end
# vertices are undefined on the two boundary edges
PER_EDGE = {
    "edge_vectors": (pv.edge_vectors, False),
    "edge_lengths": (pv.edge_lengths, False),
    "tangents": (lambda c: c.tangents, False),
    "edge_normals": (pv.edge_normals, False),
    "discrete_gradient": (lambda c: pv.discrete_gradient(c, np.arange(7.0) ** 2), False),
    "edge_line_elements": (pv.edge_line_elements, True),
    "edge_curvatures": (pv.edge_curvatures, True),
    "frenet_edge_residuals": (pv.frenet_edge_residuals, True),
}


@pytest.mark.parametrize("name", list(PER_VERTEX))
def test_open_curve_per_vertex_nan_exactly_at_the_ends(name):
    path = _open_unit_path()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = PER_VERTEX[name](path)
    assert len(values) == path.n
    assert np.all(np.isnan(values[[0, -1]]))
    assert np.all(np.isfinite(values[1:-1]))


@pytest.mark.parametrize("name", list(PER_EDGE))
def test_open_curve_per_edge_values(name):
    path = _open_unit_path()
    quantity, ends_undefined = PER_EDGE[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = quantity(path)
    assert len(values) == path.edge_count
    if ends_undefined:
        assert np.all(np.isnan(values[[0, -1]]))
        assert np.all(np.isfinite(values[1:-1]))
    else:
        assert np.all(np.isfinite(values))
