"""What each import and each CLI call loads, observed in a fresh interpreter.

In-process tests share sys.modules, so an import that works only because an
earlier test loaded its module would pass there; a child process starts
with nothing loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyvar

# what `from polyvar import *` bound when polyvar/__init__.py imported every module eagerly
EAGER_NAMES = {
    "CertificateResult", "DiscreteCurve", "EquilibriumReport", "FlowConfig", "FlowSnapshot",
    "FlowTrajectory", "NormalTangentField", "OFFSET_VARIANTS", "SCHEMES", "SpectrumReport",
    "SteinerReport", "certificate_coefficient", "classify_equilibrium", "conservation_vectors",
    "curvature", "curvature_vector", "curvature_vectors", "curves", "cusp_vertices",
    "decompose_field", "dirichlet_energy", "discrete_gradient", "discrete_laplacian",
    "edge_curvature", "edge_curvatures", "edge_lengths", "edge_line_element", "edge_line_elements",
    "edge_normal", "edge_normals", "edge_vectors", "enclosed_volume", "equilibrium_residual",
    "errors", "first_variation", "flow", "flow_step", "fourier_decompose", "fourier_reconstruct",
    "frenet_edge_residual", "frenet_edge_residuals", "harmonic_field", "instability_certificate",
    "jacobi_matrix", "jacobi_spectrum", "lagrange_kappa", "length_gradient", "length_gradients",
    "line_element", "line_elements", "make_curve", "morse_index", "offset_length", "offset_polygon",
    "offsets", "parallel_curve", "project_volume_preserving", "ql_form", "qv_form",
    "reconstruct_field", "regular_polygon", "regular_polygon_kappa", "rot90", "run_flow",
    "second_variation", "second_variation_regular", "stability", "steiner_report", "total_length",
    "turning_angle", "turning_angles", "turning_number", "variation", "vertex_curvature",
    "vertex_curvatures", "vertex_normal", "vertex_normals", "vertex_tangent", "vertex_tangents",
    "volume_gradient", "volume_gradients", "weighted_vertex_normal", "weighted_vertex_normals",
    "wirtinger_gap",
}


def _child(argv, cwd=None) -> subprocess.CompletedProcess:
    source_dir = str(Path(polyvar.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [source_dir, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return result


def _run_python(code: str):
    return json.loads(_child(["-c", code]).stdout)


def test_import_polyvar_loads_no_submodule_and_no_numpy():
    loaded = _run_python(
        "import json, sys; import polyvar; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('polyvar', 'numpy')))))"
    )
    assert loaded == ["polyvar"]


def test_every_public_name_resolves_and_is_listed():
    report = _run_python(
        """
import importlib, json, sys
import polyvar
listed = set(dir(polyvar))  # before any module is loaded
namespace = {}
exec("from polyvar import *", namespace)
bound = set(namespace) - {"__builtins__"}
wrong = []
for name in bound:
    owner = name if name in polyvar._EXPORTS else polyvar._OWNER[name]
    module = importlib.import_module(f"polyvar.{owner}")
    if namespace[name] is not (module if owner == name else getattr(module, name)):
        wrong.append(name)
print(json.dumps({
    "all": sorted(polyvar.__all__),
    "bound": sorted(bound),
    "unlisted": sorted(bound - listed),
    "wrong": sorted(wrong),
    "unknown": hasattr(polyvar, "no_such_name"),
}))
"""
    )
    assert report["bound"] == report["all"] == sorted(EAGER_NAMES)
    assert report["unlisted"] == [] and report["wrong"] == []
    assert report["unknown"] is False


# the polyvar modules that importing each library module alone loads, itself included:
# a module imports the modules that own what it reads, and no other
MODULE_GRAPH = {
    "curves": {"curves", "errors"},
    "variation": {"curves", "errors", "variation"},
    "curvature": {"curves", "errors", "variation", "curvature"},
    "offsets": {"curves", "errors", "offsets"},
    "stability": {"curves", "errors", "variation", "stability"},
    "flow": {"curves", "errors", "variation", "flow"},
    "io": {"curves", "errors", "io"},
}


@pytest.mark.parametrize("module", MODULE_GRAPH)
def test_library_module_loads_only_its_imports(module):
    loaded = _run_python(
        f"import json, sys; import polyvar.{module}; "
        "print(json.dumps([m for m in sys.modules if m.startswith('polyvar.')]))"
    )
    assert {name.split(".", 1)[1] for name in loaded} == MODULE_GRAPH[module]


# the polyvar modules each subcommand loads (the CLI itself runs as __main__)
BASE = {"polyvar", "polyvar.curves", "polyvar.errors", "polyvar.io"}
SUBCOMMAND_MODULES = {
    "generate": (["--n", "4"], BASE),
    "analyze": (["--in", "sq.json"], BASE | {"polyvar.curvature", "polyvar.variation"}),
    "offset": (["--in", "sq.json", "--t", "0.1"], BASE | {"polyvar.offsets", "polyvar.svg"}),
    "stability": (["--n", "5"], BASE | {"polyvar.variation", "polyvar.stability"}),
    "flow": (["--in", "sq.json"], BASE | {"polyvar.variation", "polyvar.flow", "polyvar.svg"}),
}


@pytest.mark.parametrize("command", SUBCOMMAND_MODULES)
def test_cli_subcommand_loads_only_its_modules(command, tmp_path):
    arguments, expected = SUBCOMMAND_MODULES[command]
    (tmp_path / "sq.json").write_text(
        json.dumps({"version": 1, "closed": True, "sigma": -1, "points": [[0, 0], [1, 0], [1, 1], [0, 1]]})
    )
    result = _child(["-X", "importtime", "-m", "polyvar.cli", command, *arguments, "--out", "out"], cwd=tmp_path)
    # -X importtime writes one "import time: self | cumulative | name" line per module loaded
    names = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines() if line.startswith("import time:")}
    assert {name for name in names if name.split(".")[0] == "polyvar"} == expected
