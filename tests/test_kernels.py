"""The (n, 2) array kernels against the expressions they replace, bit for bit.

Each kernel runs one column at a time along the long axis (curves._by_rows)
or subtracts slices into one output.  The oracles below are the plain numpy
expressions, broadcasting across the short axis; every result, NaN rows and
signed zeros included, must be the same bytes.  The source scan keeps the
broadcast idiom out of the package.
"""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import polyvar
from polyvar import (
    DiscreteCurve,
    curvature_vectors,
    dirichlet_energy,
    discrete_gradient,
    fourier_decompose,
    frenet_edge_residuals,
    length_gradients,
    make_curve,
    ql_form,
    reconstruct_field,
    regular_polygon,
    steiner_report,
    vertex_normals,
    vertex_tangents,
    weighted_vertex_normals,
)
from polyvar.curvature import SCHEMES, _line_elements
from polyvar.curves import _at_vertices, _chords, _edge_vectors, _unscaled, rot90
from polyvar.errors import SchemeInapplicable
from polyvar.flow import _along_chords


def _star4096():
    star = regular_polygon(4096, 7, a=1.3, phase=0.3)
    noise = np.random.default_rng([4096, 7]).standard_normal((4096, 2))
    return star.points + 1e-5 * noise


def _curves(closed_only=False, cusp=True):
    rng = np.random.default_rng(26)
    path = np.cumsum(rng.uniform(0.2, 1.0, (9, 2)) * [1.0, -1.0] ** np.arange(9)[:, None], axis=0)
    shapes = {
        "triangle": (regular_polygon(3).points, True),
        "star4096": (_star4096(), True),
        "open": (path, False),
        # vertex 2 turns back along the x axis: a cusp
        "cusp": (np.array([(0.0, 0.0), (2.0, 0.0), (3.0, 0.0), (2.5, 0.0), (2.0, 2.0), (0.0, 2.0)]), True),
    }
    return [
        pytest.param((points, closed, sigma), id=f"{name}-sigma{sigma:+d}")
        for name, (points, closed) in shapes.items()
        if (closed or not closed_only) and (cusp or name != "cusp")
        for sigma in (-1, 1)
    ]


ALL = _curves()
CUSP_FREE = _curves(cusp=False)
CLOSED = _curves(closed_only=True)
CLOSED_CUSP_FREE = _curves(closed_only=True, cusp=False)


@pytest.fixture
def curve(request):
    points, closed, sigma = request.param
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", polyvar.errors.CuspWarning)
        curve = DiscreteCurve(points, closed=closed, sigma=sigma)
        curve.turning_angles  # warns once, here, on the cusp curve
    return curve


def on(curves):
    return pytest.mark.parametrize("curve", curves, indirect=True)


def _same_bytes(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _old_rot90(vectors, sigma):
    v = np.asarray(vectors, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = -sigma * v[..., 1]
    out[..., 1] = sigma * v[..., 0]
    return out


def _old_vertex_normals(curve):
    nu_prev, nu = _at_vertices(curve.closed, curve.edge_normals)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (nu + nu_prev) / (1.0 + np.cos(curve.turning_angles))[:, None]
    out[~np.isfinite(out)] = np.nan
    return out


def _field(curve):
    return np.random.default_rng([curve.n, 2]).standard_normal((curve.n, 2))


@on(ALL)
def test_edge_vectors_and_chords(curve):
    x = curve._scaled[0]
    if curve.closed:
        nxt, prev = np.roll(x, -1, axis=0), np.roll(x, 1, axis=0)
        chords = nxt - prev
    else:
        nxt = x[1:]
        chords = np.full_like(x, np.nan)
        chords[1:-1] = x[2:] - x[:-2]
    _same_bytes(_edge_vectors(x, curve.closed), nxt - x[: len(nxt)])
    _same_bytes(_chords(x, curve.closed), chords)


@on(ALL)
def test_rot90(curve):
    for sigma in (-1, 1):
        _same_bytes(rot90(curve.tangents, sigma), _old_rot90(curve.tangents, sigma))
        _same_bytes(rot90(curve.vertex_normals, sigma), _old_rot90(curve.vertex_normals, sigma))
        _same_bytes(rot90(curve.tangents[0], sigma), _old_rot90(curve.tangents[0], sigma))


@on(ALL)
def test_tangents(curve):
    _, edges, lengths = curve._scaled
    _same_bytes(curve.tangents, edges / lengths[:, None])


@on(ALL)
def test_vertex_normals_and_tangents(curve):
    normals = _old_vertex_normals(curve)
    _same_bytes(vertex_normals(curve), normals)
    _same_bytes(vertex_tangents(curve), -_old_rot90(normals, curve.sigma))


@on(ALL)
def test_frenet_edge_residuals(curve):
    N, N_next = polyvar.curves._at_edges(curve.closed, _old_vertex_normals(curve))
    expected = (N_next - N) / curve.edge_lengths[:, None] + curve.edge_curvatures[:, None] * curve.tangents
    _same_bytes(frenet_edge_residuals(curve), expected)


@on(CUSP_FREE)
def test_reconstruct_field(curve):
    psi, eta = _field(curve).T
    N, T = curve.vertex_normals, curve.vertex_tangents
    _same_bytes(reconstruct_field(curve, psi), psi[:, None] * N)
    _same_bytes(reconstruct_field(curve, psi, eta), psi[:, None] * N + eta[:, None] * T)


@on(ALL)
def test_curvature_vectors(curve):
    for scheme in SCHEMES:
        try:
            values, e = _line_elements(curve, scheme)
        except SchemeInapplicable:
            continue
        expected = _unscaled(-length_gradients(curve) / values[:, None], -e)
        _same_bytes(curvature_vectors(curve, scheme), expected)


@on(ALL)
def test_weighted_vertex_normals(curve):
    nu_prev, nu = _at_vertices(curve.closed, curve.edge_normals)
    l_prev, l = _at_vertices(curve.closed, curve.edge_lengths)
    expected = (l[:, None] * nu + l_prev[:, None] * nu_prev) / (l + l_prev)[:, None]
    _same_bytes(weighted_vertex_normals(curve), expected)


@on(CLOSED)
def test_ql_form(curve):
    v = _field(curve)
    dv = np.roll(v, -1, axis=0) - v
    normal = dv[:, 0] * curve.edge_normals[:, 0] + dv[:, 1] * curve.edge_normals[:, 1]
    assert ql_form(curve, v).hex() == float(np.sum(normal * normal / curve.edge_lengths)).hex()


@on(CLOSED_CUSP_FREE)
def test_steiner_actual_lengths(curve):
    t = 0.1 / float(np.max(np.abs(curve.edge_curvatures)))
    for s in (t, -t):
        expected = curve.with_points(curve.points + s * curve.vertex_normals).edge_lengths
        _same_bytes(steiner_report(curve, s).actual_lengths, expected)


def test_steiner_rejects_offset_points_that_overflow():
    """As the curve of the offset points would: a point that is not finite is a ValueError."""
    square = make_curve(np.array([(1, 0), (0, 1), (-1, 0), (0, -1)]) * 1e308)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="vertex coordinates must be finite"):
        steiner_report(square, 1e308)  # 1 - t kappa(e_k) is about 2.4, but p_k + t N_k overflows


@on(CLOSED)
def test_fourier_decompose(curve):
    x, y = curve.points.T
    _same_bytes(fourier_decompose(curve), np.fft.fft(x + 1j * y) / curve.n)


@on(ALL)
def test_along_chords(curve):
    g, u = curve.tangents, rot90(curve.tangents, 1)
    u[1] = 0.0  # a zero area gradient leaves g_k as it is
    alpha = 1.0 / np.tan(np.pi / curve.n) ** 2
    norm = np.hypot(u[:, 0], u[:, 1])
    c = np.divide(rot90(u, 1), norm[:, None], out=np.zeros_like(u), where=norm[:, None] > 0)
    dot = g[:, 0] * c[:, 0] + g[:, 1] * c[:, 1]
    _same_bytes(_along_chords(g, u, alpha), g + ((alpha - 1.0) * dot)[:, None] * c)


def test_points_are_kept_row_major_whatever_the_input_layout():
    """The DFT and the flow's step read each (n, 2) array as n complex numbers, which needs rows in memory order."""
    points = regular_polygon(8).points + 0.01 * np.random.default_rng(8).standard_normal((8, 2))
    curve = make_curve(np.asfortranarray(points))
    assert curve.points.flags.c_contiguous
    _same_bytes(fourier_decompose(curve), fourier_decompose(make_curve(points)))
    assert polyvar.run_flow(curve).verdict == "converged"


# ------------------------------------------------ edges that overflow

WIDE = [(-1.7e308, 0.0), (1.7e308, 0.0), (0.0, 1e308)]


def test_gradient_energy_and_frenet_where_edges_overflow():
    """Taken at the curve's power of two: the unit-size triangle's values times 1e-308, with no warning."""
    wide = make_curve(WIDE)
    psi = [0.0, 1.0, 2.0]
    unit = make_curve(np.array(WIDE) / 1e308)
    assert np.isinf(wide.edge_lengths).all()
    gradient = discrete_gradient(wide, psi)
    assert gradient.tolist() == pytest.approx([2.94e-309, 5.07e-309, -1.014e-308], rel=1e-3)
    assert gradient.tolist() == pytest.approx((discrete_gradient(unit, psi) / 1e308).tolist(), rel=1e-12)
    assert dirichlet_energy(wide, psi) == pytest.approx(1.4146e-308, rel=1e-4)
    assert dirichlet_energy(wide, psi) == pytest.approx(dirichlet_energy(unit, psi) / 1e308, rel=1e-12)
    # identically zero in exact arithmetic; about 2e-308, the size of kappa(e_k), when taken at full scale
    assert np.max(np.abs(frenet_edge_residuals(wide))) <= 1e-322


def test_gradient_and_energy_match_full_scale_away_from_overflow():
    rng = np.random.default_rng(2026)
    for scale in 10.0 ** rng.uniform(-100, 100, 30):
        curve = make_curve(rng.standard_normal((int(rng.integers(3, 12)), 2)) * scale)
        psi = rng.standard_normal(curve.n)
        gradient = (np.roll(psi, -1) - psi) / curve.edge_lengths
        _same_bytes(discrete_gradient(curve, psi), gradient)
        energy = 0.5 * float(np.sum(gradient * gradient * curve.edge_lengths))
        assert dirichlet_energy(curve, psi).hex() == energy.hex()


# ------------------------------------------------ the source scan

# a broadcast of an (m,) array across the short axis of an (m, 2) one
SHORT_AXIS_BROADCAST = re.compile(r"\[\s*:\s*,\s*None\s*\]|\[\s*\.\.\.\s*,\s*None\s*\]|np\.newaxis")


def test_no_short_axis_broadcast_in_the_package():
    """Every (n, 2) kernel goes through curves._by_rows; the slow idiom must not come back."""
    package = Path(polyvar.__file__).parent
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if SHORT_AXIS_BROADCAST.search(line)
    ]
    assert found == []


def test_the_source_scan_sees_the_idiom():
    for line in ("edges / lengths[:, None]", "x[..., None] * y", "a[:,None]", "v[:, np.newaxis]"):
        assert SHORT_AXIS_BROADCAST.search(line), line
    assert not SHORT_AXIS_BROADCAST.search("[None] * (curve.n - curve.edge_count)")


LDEXP = re.compile(r"\bldexp\b")
# variation._kappa: math.ldexp's OverflowError is how a vanishing area gradient is detected
LDEXP_ALLOWED = {("variation.py", "return -math.ldexp(c, -e)")}


def test_only_curves_and_flow_scale_by_a_power_of_two():
    """Every other module computes on a curve's scaled arrays and scales back through curves._unscaled."""
    package = Path(polyvar.__file__).parent
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name not in ("curves.py", "flow.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if LDEXP.search(line) and (path.name, line.strip()) not in LDEXP_ALLOWED
    ]
    assert found == []


def test_the_ldexp_scan_sees_every_spelling():
    for line in ("np.ldexp(kappa, e)", "math.ldexp(c, -e)", "from numpy import ldexp", "scale = np.ldexp"):
        assert LDEXP.search(line), line
    assert not LDEXP.search("math.frexp(diameter)") and not LDEXP.search("_unscaled(values, e)")


FREXP = re.compile(r"\bfrexp\b")
# the curve's power of two (curves._scale_of), a field's (curves._field_scale) and kappa's (variation._times_kappa)
FREXP_ALLOWED = [
    ("curves.py", "return math.frexp(diameter)"),
    ("curves.py", "f = math.frexp(float(np.fmax.reduce(np.abs(values), axis=None, initial=0.0)))[1]"),
    ("variation.py", "k, g = math.frexp(kappa)"),
]


def test_only_three_helpers_take_a_power_of_two():
    """Every other reader takes its operand's power of two through one of these three helpers."""
    package = Path(polyvar.__file__).parent
    found = [
        (path.name, line.strip())
        for path in sorted(package.glob("*.py"))
        for line in path.read_text().splitlines()
        if FREXP.search(line)
    ]
    assert found == FREXP_ALLOWED


def test_the_frexp_scan_sees_every_spelling():
    for line in ("k, g = math.frexp(kappa)", "np.frexp(values)", "from math import frexp", "split = np.frexp"):
        assert FREXP.search(line), line
    assert not FREXP.search("math.ldexp(c, -e)") and not FREXP.search("_field_scale(values)")


# ------------------------------------------------ the area gradient's one owner


def _callers(source: str, name: str) -> list[str]:
    """The function around every call of name in the source, "<module>" outside any."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    found.append(scope)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_owner_and_the_flow_step_build_the_area_gradient():
    """variation._scaled_volume_gradients builds a curve's area gradient; flow._step builds it on its own points."""
    package = Path(polyvar.__file__).parent
    found = [
        (path.name, caller)
        for path in sorted(package.glob("*.py"))
        for caller in _callers(path.read_text(), "_volume_gradients")
    ]
    assert found == [("flow.py", "_step"), ("variation.py", "_scaled_volume_gradients")]


def test_the_area_gradient_scan_sees_every_call():
    source = """
u = _volume_gradients(chords, 1)

def outer(curve):
    def inner():
        return variation._volume_gradients(curve._scaled_chords, curve.sigma)
    return [_volume_gradients(c, s) for c, s in inner()]

def reader(curve):
    return _scaled_volume_gradients(curve)
"""
    assert _callers(source, "_volume_gradients") == ["<module>", "inner", "outer"]
