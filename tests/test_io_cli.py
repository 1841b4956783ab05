import json

import numpy as np
import pytest

from polyvar import cli, errors, make_curve, regular_polygon
from polyvar.cli import main
from polyvar.io import analyze_table, curve_from_json, curve_to_json, fmt17, read_curve, write_curve

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


def test_cli_bad_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    assert run_cli("analyze", "--in", str(path), "--stdout") == 2


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
        assert json.loads((tmp_path / "out.json").read_text())["cusp_vertices"] == [2]
    elif code:
        assert err.startswith("polyvar: error: vertex 2 is a cusp") and err.count("\n") == 1
    else:
        assert err == ""


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


# a number outside its domain exits 2 with one error line that names it
@pytest.mark.parametrize("command, name", [
    (("flow", "--max-steps", "-1"), "max_steps"),
    (("flow", "--tol", "nan"), "grad_tolerance"),
    (("analyze", "--tol", "-1"), "tolerance"),
    (("analyze", "--tol", "inf", "--kappa", "5"), "tolerance"),
    (("offset", "--t", "nan"), "distance t"),
    (("stability", "--n", "5", "--m", "2", "--a", "-1"), "radius a"),
    (("stability", "--n", "5", "--m", "2", "--a", "0"), "radius a"),
], ids=["flow-max-steps", "flow-tol", "analyze-tol-negative", "analyze-tol-inf", "offset-t",
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
