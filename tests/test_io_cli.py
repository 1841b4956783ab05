import csv
import hashlib
import json
import warnings

import numpy as np
import pytest

import polyvar.flow
from polyvar import cli, errors, make_curve, regular_polygon
from polyvar.cli import main
from polyvar.io import (
    analyze_table,
    csv_table,
    curve_from_json,
    curve_to_json,
    fmt17,
    read_curve,
    write_curve,
)

from helpers import random_star_polygon


# ------------------------------------------------------------------ curve files

def test_curve_file_round_trip(tmp_path, rng):
    for _ in range(10):
        curve = random_star_polygon(rng, int(rng.integers(3, 9)), sigma=int(rng.choice([-1, 1])))
        path = tmp_path / "curve.json"
        write_curve(curve, path)
        back = read_curve(path)
        assert np.array_equal(back.points, curve.points)  # exact, not approximate
        assert back.closed == curve.closed and back.sigma == curve.sigma


def test_curve_file_field_errors():
    good = json.loads(curve_to_json(regular_polygon(4, 1)))
    for field, value, fragment in [
        ("sigma", 0, "sigma"),
        ("closed", "yes", "closed"),
        ("version", 99, "version"),
        ("points", [[1.0]], "points[0]"),
        ("points", "nope", "points"),
        # a bad pair in the middle is named by its own index
        *(("points", [[0, 0], [1, 0], pair, [0, 1]], "points[2]") for pair in (
            [True, 1], [1, "2"], [1, None], [1, 2, 3], [[1, 2], 3], [[1, 2], [3, 4]], None, 7,
        )),
    ]:
        bad = dict(good)
        bad[field] = value
        with pytest.raises(ValueError) as err:
            curve_from_json(json.dumps(bad))
        assert fragment in str(err.value)
    with pytest.raises(ValueError) as err:
        curve_from_json(json.dumps({k: v for k, v in good.items() if k != "sigma"}))
    assert "sigma" in str(err.value)
    with pytest.raises(json.JSONDecodeError):
        curve_from_json("{not json")


def test_fmt17_round_trips(rng):
    for x in rng.normal(size=50) * 10.0 ** rng.integers(-12, 12, size=50):
        assert float(fmt17(x)) == x


def test_csv_table_cell_rule():
    cells = {
        "status": ("edge_collapse", "edge_collapse"),
        "int": (12, "12"),
        "np_int": (np.int64(3), "3"),
        "big_int": (10**17 + 1, "100000000000000001"),
        "float": (0.1, "0.10000000000000001"),
        "tiny": (np.float64(-2.5e-300), "-2.5e-300"),
        "none": (None, ""),
        "nan": (np.nan, ""),
        "inf": (np.inf, ""),
        "-inf": (-np.inf, ""),
    }
    header = list(cells)
    row = [value for value, _ in cells.values()]
    expected = ",".join(text for _, text in cells.values())
    assert csv_table(header, [row, row]) == f"{','.join(header)}\n{expected}\n{expected}\n"
    assert csv_table(["only"], []) == "only\n"


def test_analyze_table_square(sq):
    table = analyze_table(sq)
    lines = table.strip().split("\n")
    assert lines[0].split(",")[:3] == ["k", "l_k", "theta_k"]
    assert len(lines) == 5
    arclength_col = lines[0].split(",").index("kappa_arclength")
    values = [float(line.split(",")[arclength_col]) for line in lines[1:]]
    assert np.allclose(values, -np.sqrt(2.0), atol=1e-12)


def test_analyze_table_arclength_empty_on_rectangle():
    rect = make_curve([(0, 0), (2, 0), (2, 1), (0, 1)])
    lines = analyze_table(rect).strip().split("\n")
    col = lines[0].split(",").index("kappa_arclength")
    assert all(line.split(",")[col] == "" for line in lines[1:])


# -------------------------------------------------------------------------- CLI

def run_cli(*argv):
    return main(list(argv))


def test_cli_generate_and_analyze(tmp_path, capsys):
    curve_path = str(tmp_path / "sq.json")
    assert run_cli("generate", "--n", "4", "--m", "1", "--out", curve_path) == 0
    curve = read_curve(curve_path)
    assert curve.n == 4

    prefix = str(tmp_path / "report")
    assert run_cli("analyze", "--in", curve_path, "--kappa", "-1.4142135623730951",
                   "--out", prefix) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["equilibrium"]["is_equilibrium"] is True
    assert report["turning_number"] == -1
    err = capsys.readouterr().err
    assert "equilibrium: yes" in err


def test_cli_analyze_estimates_kappa(tmp_path):
    curve_path = str(tmp_path / "p5.json")
    run_cli("generate", "--n", "5", "--m", "1", "--out", curve_path)
    prefix = str(tmp_path / "p5_report")
    assert run_cli("analyze", "--in", curve_path, "--out", prefix) == 0
    report = json.loads((tmp_path / "p5_report.json").read_text())
    block = report["equilibrium"]
    assert block["kappa_source"] == "estimated"
    assert block["kappa"] == pytest.approx(-1 / np.cos(np.pi / 5), rel=1e-12)
    assert block["is_equilibrium"] is True


def test_cli_analyze_rectangle_not_equilibrium(tmp_path, capsys):
    path = tmp_path / "rect.json"
    write_curve(make_curve([(0, 0), (2, 0), (2, 1), (0, 1)]), path)
    prefix = str(tmp_path / "rect_report")
    assert run_cli("analyze", "--in", str(path), "--kappa", "-1.4142135623730951",
                   "--out", prefix) == 0
    report = json.loads((tmp_path / "rect_report.json").read_text())
    assert report["equilibrium"]["is_equilibrium"] is False
    assert report["equilibrium"]["max_residual"] > 0.01
    assert "equilibrium: no" in capsys.readouterr().err


def test_cli_offset_includes_identity_row(tmp_path):
    curve_path = str(tmp_path / "sq.json")
    run_cli("generate", "--n", "4", "--m", "1", "--out", curve_path)
    prefix = str(tmp_path / "off0")
    assert run_cli("offset", "--in", curve_path, "--t", "0", "--out", prefix) == 0
    cells = (tmp_path / "off0.csv").read_text().strip().split("\n")[1].split(",")
    assert float(cells[1]) == float(cells[2]) == pytest.approx(4 * np.sqrt(2), rel=1e-15)


def test_cli_invalid_winding_exits_2(capsys, tmp_path):
    assert run_cli("generate", "--n", "4", "--m", "2", "--out", str(tmp_path / "x.json")) == 2
    assert "m/n = 1/2 rejected" in capsys.readouterr().err


def test_cli_missing_output_exits_2(tmp_path):
    assert run_cli("generate", "--n", "4", "--m", "1") == 2


def test_cli_unreadable_file_exits_2(tmp_path):
    assert run_cli("analyze", "--in", str(tmp_path / "absent.json"), "--stdout") == 2


def _analyze_file_with(text, tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(text)
    assert run_cli("analyze", "--in", str(path), "--stdout") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return err


def test_cli_bad_json_exits_2(tmp_path, capsys):
    assert _analyze_file_with("{]", tmp_path, capsys).startswith("polyvar: error: ")


def test_cli_non_object_json_exits_2(tmp_path, capsys):
    err = _analyze_file_with("[1, 2]", tmp_path, capsys)
    assert err == "polyvar: error: curve file must be a JSON object\n"


def test_cli_wedge_on_cusp_curve_exits_3(tmp_path):
    path = tmp_path / "cusp.json"
    write_curve(make_curve([(0, 0), (1, 0), (0, 0), (1, 0.0)]), path)
    assert run_cli("offset", "--in", str(path), "--t", "0.1", "--variant", "wedge",
                   "--out", str(tmp_path / "off")) == 3


# the CLI reports a cusp through its outputs or its exit code, never as a warning
@pytest.mark.parametrize("command, code", [
    (("offset", "--t", "0.1", "--variant", "wedge"), 3),
    (("offset", "--t", "0.1", "--variant", "segment"), 0),
    (("offset", "--t", "0.1", "--variant", "arc"), 0),
    (("analyze",), 0),
], ids=["wedge", "segment", "arc", "analyze"])
def test_cli_cusp_curve_prints_no_warning(command, code, tmp_path, capsys):
    path = tmp_path / "cusp.json"
    write_curve(make_curve([(0, 0), (2, 0), (3, 0), (2.5, 0), (2, 2), (0, 2)]), path)
    prefix = str(tmp_path / "out")
    assert run_cli(command[0], "--in", str(path), *command[1:], "--out", prefix) == code
    err = capsys.readouterr().err
    if command[0] == "analyze":
        assert "Warning" not in err
        report = json.loads((tmp_path / "out.json").read_text())
        assert report["cusp_vertices"] == [2] and report["turning_number"] is None
    elif code:
        assert err.startswith("polyvar: error: vertex 2 is a cusp") and err.count("\n") == 1
    else:  # the cusp turns toward the offset, which the segment and arc formulas do not describe
        assert err == f"t=0.1: corner 2 turns toward the offset; the {command[-1]} length formula does not hold\n"


EXIT_CODES = {
    "TooFewVertices": 2,
    "ZeroEdge": 2,
    "InvalidWinding": 2,
    "OpenCurve": 2,
    "SchemeInapplicable": 2,
    "KappaZero": 2,
    "MeanNotZero": 2,
    "CuspVertex": 3,
    "CuspAdjacent": 3,
    "CuspPresent": 3,
    "EdgeCollapse": 3,
    "ZeroVolumeGradient": 3,
    "NonIntegerTurning": 3,
    "InternalInconsistency": 3,
    "NotEquilibrium": 3,
}


@pytest.mark.parametrize("name, code", EXIT_CODES.items())
def test_cli_exit_code_of_each_error_class(name, code, monkeypatch, capsys):
    error = getattr(errors, name)

    def command(args):
        raise error(0)

    monkeypatch.setattr(cli, "cmd_stability", command)
    assert run_cli("stability", "--n", "5", "--stdout") == code
    assert capsys.readouterr().err.startswith("polyvar: error: ")


# a number or a name outside its domain exits 2 with one error line that names it
@pytest.mark.parametrize("command, name", [
    (("analyze", "--scheme", "foo"),
     "unknown scheme 'foo'; choose from vertex_osculating, arclength, hatakeyama, half_edge_sum"),
    (("flow", "--max-steps", "-1"), "max_steps"),
    (("flow", "--tol", "nan"), "grad_tolerance"),
    (("analyze", "--tol", "-1"), "tolerance"),
    (("analyze", "--tol", "inf", "--kappa", "5"), "tolerance"),
    (("analyze", "--kappa", "nan"), "kappa"),
    (("offset", "--t", "nan"), "distance t"),
    (("stability", "--n", "5", "--m", "2", "--a", "-1"), "radius a"),
    (("stability", "--n", "5", "--m", "2", "--a", "0"), "radius a"),
], ids=["analyze-scheme", "flow-max-steps", "flow-tol", "analyze-tol-negative", "analyze-tol-inf", "analyze-kappa-nan", "offset-t",
        "stability-a-negative", "stability-a-zero"])
def test_cli_rejects_number_out_of_domain(command, name, tmp_path, capsys):
    path = tmp_path / "sq.json"
    write_curve(regular_polygon(4), path)
    source = () if command[0] == "stability" else ("--in", str(path))
    out = tmp_path / "out"
    assert run_cli(command[0], *source, *command[1:], "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("polyvar: error:") and err.count("\n") == 1
    assert name in err
    assert not list(tmp_path.glob("out*"))


# a small degenerate curve file ends each command with 0, 2 or 3 and one clean stderr
DEGENERATE_CURVES = {
    "fold": ([(0, 0), (1, 0), (0, 0), (1, 0)], True),  # every chord is zero
    "back-and-forth": ([(0, 0), (2, 0), (1, 0), (3, 0)], False),
    "cusp": ([(0, 0), (2, 0), (3, 0), (2.5, 0), (2, 2), (0, 2)], True),
    "open": ([(0, 0), (1, 0), (1, 1)], False),
    "not-finite": ([(0, 0), (1, float("nan")), (float("inf"), 1)], True),  # the JSON literals NaN and Infinity
}


@pytest.mark.parametrize("command", [
    ("analyze",), ("offset", "--t", "0.1"), ("flow", "--max-steps", "50"),
], ids=["analyze", "offset", "flow"])
@pytest.mark.parametrize("name", DEGENERATE_CURVES)
def test_cli_degenerate_curve_exits_cleanly(name, command, tmp_path, capsys):
    points, closed = DEGENERATE_CURVES[name]
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"version": 1, "closed": closed, "sigma": -1, "points": points}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning that reaches the CLI fails the call
        code = run_cli(command[0], "--in", str(path), *command[1:], "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert "Traceback" not in err and "Warning" not in err
    if code:
        assert err.startswith("polyvar: error:") and err.count("\n") == 1


# a run that does not converge ends with the line of its verdict, and exit 0
@pytest.mark.parametrize("max_steps, reject, line", [
    ("0", False, "not converged after 0 steps\n"),
    ("10", True, "degenerated: no acceptable step at step 0 "),
], ids=["max-steps", "degenerated"])
def test_cli_flow_verdict_line(max_steps, reject, line, monkeypatch, tmp_path, capsys):
    if reject:
        monkeypatch.setattr(polyvar.flow, "_accepted", lambda *args: None)
    path = tmp_path / "rect.json"
    write_curve(make_curve([(0, 0), (2, 0), (2, 1), (0, 1)]), path)
    assert run_cli("flow", "--in", str(path), "--max-steps", max_steps, "--out", str(tmp_path / "f")) == 0
    assert capsys.readouterr().err.startswith(line)


def test_cli_flow_overflowing_step_converges_quietly(tmp_path, capsys):
    """Every first trial is clipped to the Newton step L / (4n), so --step 1e200 runs as --step 1 does."""
    rng = np.random.default_rng(0)
    path = tmp_path / "hept.json"
    write_curve(make_curve(regular_polygon(7).points + 0.05 * rng.standard_normal((7, 2)) / 7), path)
    outputs = []
    for step in ("1e200", "1"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("flow", "--in", str(path), "--step", step, "--out", str(tmp_path / step)) == 0
        err = capsys.readouterr().err
        assert err.startswith("converged after") and "equilibrium=yes" in err and "Warning" not in err
        outputs.append([err] + [(tmp_path / f"{step}{suffix}").read_bytes() for suffix in (".csv", ".svg")])
    assert outputs[0] == outputs[1]


def _square_file(tmp_path, side):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"version": 1, "closed": True, "sigma": -1,
                                "points": [[0, 0], [side, 0], [side, side], [0, side]]}))
    return str(path)


@pytest.mark.parametrize("side", [1e-300, 1e200])
def test_cli_square_at_float_range_ends(side, tmp_path, capsys):
    # |gradVol|^2 underflowed to 0 (a false ZeroVolumeGradient), or overflowed (a false
    # KappaZero from analyze, and an OverflowError traceback from flow in the floor's ** 2)
    path = _square_file(tmp_path, side)
    # the area 1e400 of a square of side 1e200 overflows; analyze writes null and warns nowhere
    # (pyproject.toml turns any RuntimeWarning into a test failure)
    assert run_cli("analyze", "--in", path, "--out", str(tmp_path / "a")) == 0
    block = json.loads((tmp_path / "a.json").read_text())["equilibrium"]
    assert block["is_equilibrium"] is True
    assert block["kappa"] == pytest.approx(-2.0 / side, rel=1e-14)
    # the flow takes the area under its own errstate, so its overflow warns nowhere
    assert run_cli("flow", "--in", path, "--out", str(tmp_path / "f")) == 0
    err = capsys.readouterr().err
    assert f"converged after 0 steps: equilibrium=yes kappa={-2.0 / side:g}" in err
    assert "Traceback" not in err


def test_cli_triangle_with_edges_beyond_float_range(tmp_path, capsys):
    # its edges overflow, but not its angles or curvatures; its length, area and l0 are beyond the float range
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"version": 1, "closed": True, "sigma": -1,
                                "points": [[-1.7e308, 0], [1.7e308, 0], [0, 1e308]]}))
    assert run_cli("analyze", "--in", str(path), "--out", str(tmp_path / "a")) == 0
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["turning_number"] == -1
    assert doc["total_length"] is doc["enclosed_volume"] is doc["equilibrium"]["l0"] is None
    err = capsys.readouterr().err
    assert err.startswith("equilibrium: no") and err.count("\n") == 1
    # the curvatures, about -1e-308, are taken at the curve's power of two; its
    # lengths at that scale are not uniform, so the arclength scheme is inapplicable
    with open(tmp_path / "a.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3
    for row in rows:
        assert row["kappa_arclength"] == ""
        for name in ("kappa_vertex_osculating", "kappa_hatakeyama", "kappa_half_edge_sum", "kappa_edge"):
            assert -np.inf < float(row[name]) < 0.0
    # the flow converges, but the picture's box is inf by inf: no SVG number can draw it
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning that reaches the CLI fails the call
        assert run_cli("flow", "--in", str(path), "--out", str(tmp_path / "f")) == 3
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("polyvar: error:") and err.count("polyvar: error:") == 1
    assert "Warning" not in err and "Traceback" not in err
    assert not (tmp_path / "f.svg").exists()


def test_cli_square_below_float_range_fails_cleanly(tmp_path, capsys):
    # at side 1e-308 the curvatures overflow to inf (empty cells) and kappa overflows
    path = _square_file(tmp_path, 1e-308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning that reaches the CLI fails the call
        assert run_cli("analyze", "--in", path, "--out", str(tmp_path / "a")) == 3
    err = capsys.readouterr().err
    assert err.startswith("polyvar: error:") and err.count("\n") == 1


def test_cli_analyze_report_is_strict_json(tmp_path):
    # the area 1e400 of a square of side 1e200 is not a JSON number; the report writes null
    assert run_cli("analyze", "--in", _square_file(tmp_path, 1e200), "--out", str(tmp_path / "a")) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads((tmp_path / "a.json").read_text(), parse_constant=reject)
    assert doc["enclosed_volume"] is None and doc["total_length"] == 4e200


def test_cli_offset_flags_collapse_rows(tmp_path, capsys):
    curve_path = str(tmp_path / "sq.json")
    run_cli("generate", "--n", "4", "--m", "1", "--out", curve_path)
    prefix = str(tmp_path / "off")
    # t = -1/sqrt(2) collapses every edge of the unit square
    assert run_cli("offset", "--in", curve_path, "--t", "0.2,-0.70710678118654752",
                   "--variant", "wedge", "--out", prefix) == 0
    lines = (tmp_path / "off.csv").read_text().strip().split("\n")
    assert lines[1].endswith("ok")
    assert lines[2].endswith("edge_collapse")


def test_cli_offset_flags_reversed_edges(tmp_path, capsys):
    curve_path = str(tmp_path / "tri.json")
    run_cli("generate", "--n", "3", "--m", "1", "--out", curve_path)
    prefix = str(tmp_path / "off")
    # at t = -5 every factor 1 - t*kappa(e_k) of the unit triangle is -9
    assert run_cli("offset", "--in", curve_path, "--t=-5,0.3", "--variant", "wedge", "--out", prefix) == 0
    lines = (tmp_path / "off.csv").read_text().strip().split("\n")
    assert [line.split(",")[-1] for line in lines[1:]] == ["edge_collapse", "ok"]
    assert capsys.readouterr().err.endswith("t=-5: offset collapses edge 0\n")


@pytest.mark.parametrize("variant, t, statuses", [
    ("segment", "-0.2,0.3", ["corner_overlap", "ok"]),
    ("arc", "-1,-5,0.3", ["corner_overlap", "corner_overlap", "ok"]),
    ("wedge", "-0.2,0.3", ["ok", "ok"]),
], ids=["segment", "arc", "wedge"])
def test_cli_offset_flags_corner_overlap(variant, t, statuses, tmp_path, capsys):
    curve_path = str(tmp_path / "tri.json")
    run_cli("generate", "--n", "3", "--m", "1", "--out", curve_path)
    capsys.readouterr()
    # every corner of the unit triangle turns by -2pi/3: t < 0 offsets it toward the corners
    assert run_cli("offset", "--in", curve_path, f"--t={t}", "--variant", variant,
                   "--out", str(tmp_path / "off")) == 0
    rows = [line.split(",") for line in (tmp_path / "off.csv").read_text().strip().split("\n")[1:]]
    assert [row[-1] for row in rows] == statuses
    assert all(row[1] for row in rows if row[-1] == "ok")  # the predicted length is written where it holds
    overlaps = [row for row in rows if row[-1] == "corner_overlap"]
    assert all(row[1] == row[2] == row[3] == "" for row in overlaps)
    err = capsys.readouterr().err
    assert err == "".join(
        f"t={float(row[0]):g}: corner 0 turns toward the offset; the {variant} length formula does not hold\n"
        for row in overlaps
    )


@pytest.mark.parametrize("variant, code", [("arc", 2), ("wedge", 2), ("segment", 3)])
def test_cli_offset_beyond_the_float_range_prints_one_line(variant, code, tmp_path, capsys):
    # t kappa(e_k) and the offset points overflow: wedge's points are not finite, segment's picture has no box,
    # arc's length is beyond the float range
    curve_path = str(tmp_path / "sq.json")
    run_cli("generate", "--n", "4", "--out", curve_path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning that reaches the CLI fails the call
        assert run_cli("offset", "--in", curve_path, "--t", "1.5e308", "--variant", variant,
                       "--out", str(tmp_path / "off")) == code
    err = capsys.readouterr().err
    assert err.startswith("polyvar: error:") and err.count("\n") == 1


def test_cli_offset_arc_lengths_only(tmp_path):
    curve_path = str(tmp_path / "sq.json")
    run_cli("generate", "--n", "4", "--m", "1", "--out", curve_path)
    prefix = str(tmp_path / "arc")
    assert run_cli("offset", "--in", curve_path, "--t", "1.0", "--variant", "arc",
                   "--out", prefix) == 0
    lines = (tmp_path / "arc.csv").read_text().strip().split("\n")
    cells = lines[1].split(",")
    assert float(cells[1]) == pytest.approx(4 * np.sqrt(2) + 2 * np.pi, rel=1e-12)
    assert cells[2] == ""  # no polygonal realization
    assert "not polygonal" in (tmp_path / "arc.svg").read_text()


def test_cli_stability_table(tmp_path, capsys):
    out = str(tmp_path / "stab.csv")
    assert run_cli("stability", "--n", "5..6", "--out", out) == 0
    err = capsys.readouterr().err
    assert "skipping n=6 m=3" in err
    lines = (tmp_path / "stab.csv").read_text().strip().split("\n")
    rows = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
    assert ("6", "3") not in rows
    row52 = rows[("5", "2")]
    assert int(row52[4]) == 2
    assert float(row52[5]) == pytest.approx(-5.428824546345143, abs=1e-9)
    assert all(int(rows[key][4]) == 0 for key in rows if key[1] == "1")


def test_cli_flow_pipeline(tmp_path, capsys, rng):
    hexa = regular_polygon(6, 1, 1.0)
    perturbed = make_curve(hexa.points + rng.normal(size=(6, 2)) * 0.02)
    curve_path = tmp_path / "hex.json"
    write_curve(perturbed, curve_path)
    prefix = str(tmp_path / "flow")
    assert run_cli("flow", "--in", str(curve_path), "--step", "0.2", "--out", prefix) == 0
    assert "converged" in capsys.readouterr().err
    lines = (tmp_path / "flow.csv").read_text().strip().split("\n")
    assert lines[0] == "step,length,volume,max_projected_gradient"
    assert float(lines[-1].split(",")[3]) < 1e-8
    assert (tmp_path / "flow.svg").read_text().startswith("<?xml")


def test_cli_stdout_only(tmp_path, capsys):
    curve_path = str(tmp_path / "sq.json")
    run_cli("generate", "--n", "4", "--m", "1", "--out", curve_path)
    capsys.readouterr()
    assert run_cli("analyze", "--in", curve_path, "--stdout") == 0
    out = capsys.readouterr().out
    assert out.startswith("k,l_k,theta_k")


def test_svg_output_is_well_formed_xml(tmp_path):
    import xml.etree.ElementTree as ET

    curve_path = str(tmp_path / "p7.json")
    run_cli("generate", "--n", "7", "--m", "3", "--out", curve_path)
    run_cli("offset", "--in", curve_path, "--t=-0.02,0.05", "--out", str(tmp_path / "o"))
    root = ET.fromstring((tmp_path / "o.svg").read_text())
    assert root.tag.endswith("svg")
    assert "viewBox" in root.attrib


def test_cli_deterministic_across_runs(tmp_path):
    curve_path = str(tmp_path / "p7.json")
    run_cli("generate", "--n", "7", "--m", "2", "--out", curve_path)
    outputs = []
    for tag in ("one", "two"):
        prefix = str(tmp_path / f"an_{tag}")
        run_cli("analyze", "--in", curve_path, "--out", prefix)
        run_cli("offset", "--in", curve_path, "--t", "0.05,0.1", "--out", str(tmp_path / f"of_{tag}"))
        outputs.append(
            (tmp_path / f"an_{tag}.csv").read_bytes()
            + (tmp_path / f"of_{tag}.csv").read_bytes()
            + (tmp_path / f"of_{tag}.svg").read_bytes()
        )
    assert outputs[0] == outputs[1]


# SHA-256 of CLI outputs that no golden file covers: an open path, NaN cells at
# a cusp, an empty arclength column, the opacity layers of a flow SVG, the arc
# SVG's comment and a 4,096-vertex curve file.  Captured from the writers that
# formatted one numpy scalar at a time, so the column-wise writers must match.
OUTPUT_PINS = {
    "big.json": "a1838243237a308ec05b38b60455faf07bf9f0e737749114afa658e21f02c075",
    "cusp_analyze.csv": "4179e3a69598ea48e610dd2eeb661b7a97f9d9ff65e2eed5c8e54fb2750dac71",
    "cusp_analyze.json": "b1c1d46b8becde064150095485ae2c477356276adb9fce2b33b9d06564ae25e7",
    "hept_arc.csv": "235df5cf686b6ccb180bb55ee2ac46a7dcf5e6553635e2841ee1546d56c4031b",
    "hept_arc.svg": "d3c4a25ce0893a45fbee8e659cd59a1a45b7ae6dc78e13997b32a52e46097494",
    "hept_flow.csv": "5b3605a41251c3119091d77c850c7ad8656fa71ac27716a450c136950b971d6b",
    "hept_flow.svg": "9d2a264589cc08dbf18e9dec6e702e325e47db0051f27cac3c7ccbfa39aed715",
    "open_analyze.csv": "19ae8f794356ca6a3439365c4d5a2695399f09a83b87bee46de3140f8d2d56d3",
    "open_analyze.json": "3a4f5a93d3767967059680dea15452b144a7d781985c520e4e9f91c73bae93e5",
    "rect_analyze.csv": "125450a04f720eb39d8628720bbac4eb123df6d6f87c8554251fc5a39379b439",
    "rect_analyze.json": "80d59f0892c89753c8daf4e2d1160805b48a68734b3da37b27403d6db6c16794",
}

PIN_INPUTS = {
    "open": ([(0, 0), (1, 0), (1.5, 0.8), (1.2, 1.9), (0.3, 2.4)], False),
    "cusp": ([(0, 0), (2, 0), (3, 0), (2.5, 0), (2, 2), (0, 2)], True),
    "rect": ([(0, 0), (2, 0), (2, 1), (0, 1)], True),
    "hept": ((regular_polygon(7).points + 0.05 * np.random.default_rng(0).standard_normal((7, 2)) / 7).tolist(), True),
}

PIN_CALLS = [
    ("analyze", "--in", "open.json", "--out", "open_analyze"),
    ("analyze", "--in", "cusp.json", "--out", "cusp_analyze"),
    ("analyze", "--in", "rect.json", "--out", "rect_analyze"),
    ("flow", "--in", "hept.json", "--step", "0.01", "--out", "hept_flow"),
    ("offset", "--in", "hept.json", "--t", "0.1,0.3", "--variant", "arc", "--out", "hept_arc"),
    ("generate", "--n", "4096", "--m", "3", "--phase", "0.3", "--out", "big.json"),
]


def test_cli_output_bytes_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, (points, closed) in PIN_INPUTS.items():
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"version": 1, "closed": closed, "sigma": -1, "points": points})
        )
    for argv in PIN_CALLS:
        assert run_cli(*argv) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
        if path.stem not in PIN_INPUTS
    }
    assert digests == OUTPUT_PINS
