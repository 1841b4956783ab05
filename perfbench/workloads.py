"""The three benchmark workloads: flow_converge, analyze_batch, cli_pipeline.

A workload builds its inputs from the seed, yields its operations in a fixed
order, and checks every result.  An operation returns an Outcome: when its
call into polyvar started and ended (checks excluded) and its status:

  ok        finished, and every correctness check passed
  unsolved  the flow returned "max_steps" or "degenerated": a documented
            result, not an error, but not a solution either
  failed    raised, exited nonzero, or failed a correctness check
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = ROOT / ".perfbench_out"

# An absolute source path, so that a child started in another working
# directory still imports this checkout's polyvar.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

EPS = float(np.finfo(float).eps)


@dataclass
class Outcome:
    kind: str
    window: tuple[float, float]  # perf_counter() at the start and end of the timed call
    status: str  # "ok" | "unsolved" | "failed"
    note: str = ""

    @property
    def seconds(self) -> float:
        return self.window[1] - self.window[0]


@dataclass
class Op:
    kind: str
    run: object  # callable(traced: bool) -> Outcome
    required: bool = False  # run even after the deadline


def _failed(kind: str, window: tuple[float, float], note: str) -> Outcome:
    return Outcome(kind, window, "failed", note)


def _error_note(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def perturbed_polygon(n: int, rng, m: int = 1, a: float = 1.0, phase: float = 0.0):
    """Regular (n, m) polygon of radius a with every vertex moved by 0.05 a N(0,1) / n."""
    import polyvar as pv

    base = pv.regular_polygon(n, m, a=a, phase=phase)
    return pv.make_curve(base.points + 0.05 * a * rng.standard_normal((n, 2)) / n)


class FlowConverge:
    """run_flow(FlowConfig(step_size=0.2)) on perturbed regular n-gons, n in {8, 16, 32, 64}.

    Instance i of size n is drawn from default_rng([seed, n, i]), so an
    instance does not depend on how many instances ran before it.  The run
    always makes two n = 64 and two n = 32 solves (their step counts and
    backtracking depend on the instance, so one of each moved pass_cost by
    9 % from seed to seed), 100 n = 8 solves (the latency sample) and at
    least five n = 16 solves, then adds n = 16 solves until the deadline.  How long an n = 16 solve takes depends on the
    instance (1,900 to 5,400 steps, or 20,000 when it fails), so a run's
    median moves by 2x from seed to seed: n = 16 counts in ok_frac and is
    printed, and pass_cost covers n = 8, 32 and 64.
    """

    name = "flow_converge"
    prim_n = 16
    latency_kinds = ("n8",)

    def __init__(self, seed: int):
        self.seed = seed
        self._cache: dict[tuple[int, int], object] = {}

    def instance(self, n: int, i: int):
        key = (n, i)
        if key not in self._cache:
            self._cache[key] = perturbed_polygon(n, np.random.default_rng([self.seed, n, i]))
        return self._cache[key]

    def setup(self):
        self._cache.clear()
        for n, count in ((64, 2), (32, 2), (8, 100), (16, 5)):
            for i in range(count):
                self.instance(n, i)

    def _solve(self, n: int, i: int) -> Outcome:
        import polyvar as pv

        kind = f"n{n}"
        curve = self.instance(n, i)
        volume0 = pv.enclosed_volume(curve)
        started = time.perf_counter()
        try:
            trajectory = pv.run_flow(curve, pv.FlowConfig(step_size=0.2))
        except Exception as exc:
            return _failed(kind, (started, time.perf_counter()), f"n={n} i={i}: {_error_note(exc)}")
        window = (started, time.perf_counter())
        note = f"n={n} i={i} steps={trajectory.steps_taken}"
        if trajectory.verdict != "converged":
            return Outcome(kind, window, "unsolved", f"{note} verdict={trajectory.verdict}")
        report = trajectory.report
        # the bounds of acceptance criterion 9
        a_fit = report.l0 / (2.0 * math.sin(math.pi / n))
        kappa_ref = -1.0 / (a_fit * math.cos(math.pi / n))
        drift = max(abs(s.volume - volume0) for s in trajectory.snapshots)
        if not report.is_equilibrium:
            return _failed(kind, window, f"{note}: converged but not classified as an equilibrium")
        if not abs(trajectory.kappa_estimate - kappa_ref) < 1e-4:
            return _failed(kind, window, f"{note}: kappa {trajectory.kappa_estimate!r} != {kappa_ref!r}")
        if not drift < 1e-8 * abs(volume0):
            return _failed(kind, window, f"{note}: volume drift {drift:.3e}")
        return Outcome(kind, window, "ok", note)

    def _op(self, n: int, i: int, required: bool) -> Op:
        return Op(f"n{n}", lambda traced: self._solve(n, i), required)

    def operations(self):
        # the n = 8 solves come in four batches between the long solves, so
        # that their sample spans the whole run rather than a few seconds of it
        batches = [[self._op(8, i, True) for i in range(k, 100, 4)] for k in range(4)]
        yield from batches[0]
        yield self._op(64, 0, True)
        yield self._op(32, 0, True)
        yield from batches[1]
        yield self._op(16, 0, True)
        yield from batches[2]
        yield self._op(64, 1, True)
        yield self._op(32, 1, True)
        yield from batches[3]
        yield self._op(16, 1, True)
        i = 2
        while True:
            yield self._op(16, i, i < 5)
            i += 1

    def trace_plan(self) -> list[Op]:
        return [self._op(n, 0, True) for n in (64, 32, 16)] + [self._op(8, i, True) for i in range(10)]

    def pass_kinds(self) -> list[str]:
        return ["n8", "n32", "n64"]

    def close(self):
        pass


class AnalyzeBatch:
    """One analysis bundle per curve on a batch of twelve n = 4096 curves.

    A bundle starts from the vertex coordinates, so it builds its curve.

    Curves 0-3 are exact regular and star polygons (m = 1, 3, 5, 7), which
    must be certified as equilibria; curves 4-11 are perturbed copies of
    them, which must not.  Radii and phases come from the seed.
    """

    name = "analyze_batch"
    prim_n = 4096
    n = 4096
    windings = (1, 3, 5, 7)
    latency_kinds = None  # every bundle

    def __init__(self, seed: int):
        self.seed = seed
        self.batch: list[dict] = []

    def setup(self):
        import polyvar as pv

        rng = np.random.default_rng([self.seed, self.n])
        self.batch = []
        for j in range(12):
            m = self.windings[j % 4]
            a = float(rng.uniform(0.5, 2.0))
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            if j < 4:
                curve = pv.regular_polygon(self.n, m, a=a, phase=phase)
            else:
                curve = perturbed_polygon(self.n, rng, m=m, a=a, phase=phase)
            self.batch.append(
                {
                    "points": curve.points,
                    "exact": j < 4,
                    "m": m,
                    "a": a,
                    # max |t * kappa(e_k)| = 0.1, far from an edge collapse
                    "t": 0.1 / float(np.max(np.abs(pv.edge_curvatures(curve)))),
                    "field": rng.standard_normal((self.n, 2)),
                }
            )

    def _bundle(self, j: int) -> Outcome:
        import polyvar as pv

        item = self.batch[j]
        t = item["t"]
        schemes = pv.SCHEMES if item["exact"] else tuple(s for s in pv.SCHEMES if s != "arclength")
        kind = f"curve{j}"
        started = time.perf_counter()
        try:
            curve = pv.make_curve(item["points"])
            for scheme in schemes:
                pv.vertex_curvatures(curve, scheme)
            pv.edge_curvatures(curve)
            kappa = pv.lagrange_kappa(curve)
            report = pv.classify_equilibrium(curve, kappa)
            steiner = [pv.steiner_report(curve, t), pv.steiner_report(curve, -t)]
            wedge = pv.offset_polygon(curve, t, "wedge")
            pv.offset_length(curve, t, "arc")
            pv.frenet_edge_residuals(curve)
            pv.fourier_decompose(curve)
            parts = pv.decompose_field(curve, item["field"])
            rebuilt = pv.reconstruct_field(curve, parts.psi, parts.eta)
        except Exception as exc:
            return _failed(kind, (started, time.perf_counter()), f"curve {j}: {_error_note(exc)}")
        window = (started, time.perf_counter())

        n, diameter = curve.n, curve.diameter()
        # the Steiner identity and the least-squares kappa are exact up to
        # round-off, which grows at most linearly with n
        steiner_tol = n * EPS * diameter
        steiner_error = max(s.max_abs_error for s in steiner)
        if not steiner_error <= steiner_tol:
            return _failed(kind, window, f"curve {j}: Steiner error {steiner_error:.3e} > {steiner_tol:.3e}")
        field_error = float(np.max(np.abs(rebuilt - item["field"])))
        if not field_error <= 64.0 * EPS * float(np.max(np.abs(item["field"]))):
            return _failed(kind, window, f"curve {j}: field round trip error {field_error:.3e}")
        if wedge.n != n:
            return _failed(kind, window, f"curve {j}: wedge offset has {wedge.n} vertices")
        if item["exact"]:
            kappa_ref = pv.regular_polygon_kappa(n, item["m"], item["a"])
            if not report.is_equilibrium:
                return _failed(kind, window, f"curve {j}: exact (n, m) = ({n}, {item['m']}) not an equilibrium")
            if not abs(kappa - kappa_ref) <= n * EPS * abs(kappa_ref):
                return _failed(kind, window, f"curve {j}: kappa {kappa!r} != {kappa_ref!r}")
            if report.winding != curve.sigma * item["m"]:
                return _failed(kind, window, f"curve {j}: winding {report.winding} for m = {item['m']}")
        elif report.is_equilibrium:
            return _failed(kind, window, f"curve {j}: perturbed curve classified as an equilibrium")
        return Outcome(kind, window, "ok")

    def operations(self):
        k = 0
        while True:
            j = k % len(self.batch)
            yield Op(f"curve{j}", lambda traced, j=j: self._bundle(j), k < 100)
            k += 1

    def trace_plan(self) -> list[Op]:
        return [Op(f"curve{j}", lambda traced, j=j: self._bundle(j), True) for j in range(len(self.batch))] * 3

    def pass_kinds(self) -> list[str]:
        return [f"curve{j}" for j in range(len(self.batch))]

    def close(self):
        pass


# The pipeline script: (argv, golden files it must reproduce).  The first seven
# calls are the golden pipeline of acceptance criterion 10.
GOLDEN_CALLS = [
    (["generate", "--n", "4", "--m", "1", "--a", "1", "--out", "sq.json"], ["sq.json"]),
    (["generate", "--n", "5", "--m", "2", "--a", "1", "--out", "pent52.json"], ["pent52.json"]),
    (
        ["analyze", "--in", "sq.json", "--kappa", "-1.4142135623730951", "--out", "sq_analyze"],
        ["sq_analyze.csv", "sq_analyze.json"],
    ),
    (
        ["analyze", "--in", "pent52.json", "--kappa", "-3.2360679774997894", "--out", "pent52_analyze"],
        ["pent52_analyze.csv", "pent52_analyze.json"],
    ),
    (
        ["offset", "--in", "sq.json", "--t", "0.2,0.4,0.6", "--variant", "wedge", "--out", "sq_offset"],
        ["sq_offset.csv", "sq_offset.svg"],
    ),
    (
        ["offset", "--in", "pent52.json", "--t", "0.1,0.2", "--variant", "wedge", "--out", "pent52_offset"],
        ["pent52_offset.csv", "pent52_offset.svg"],
    ),
    (["stability", "--n", "5..8", "--out", "stability_5_8.csv"], ["stability_5_8.csv"]),
]

STABILITY_RANGE = (3, 64)

# far above the slowest call (about 0.5 s), far below the run's time limit
CALL_TIMEOUT_S = 30


class CliPipeline:
    """A fixed script of `python -m polyvar.cli` calls, each in a fresh interpreter.

    Small calls (the golden fixtures, the stability sweep) cost the
    interpreter and the import; the n = 4096 analyze and offset calls are
    bound by CSV and SVG formatting.  The seed sets the phase of the
    n = 4096 polygon and the perturbation of the octagon handed to `flow`.
    """

    name = "cli_pipeline"
    prim_n = 4096
    latency_kinds = None  # every call

    def __init__(self, seed: int):
        self.seed = seed
        self.workdir: Path | None = None
        self.trace_files: list[Path] = []

    def setup(self):
        from polyvar import io as pio

        self.close()
        OUT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        rng = np.random.default_rng([self.seed, 8])
        pio.write_curve(perturbed_polygon(8, rng), self.workdir / "oct.json")
        self.phase = float(rng.uniform(0.0, 2.0 * math.pi))
        # (kind, arguments, files written, check of the result)
        self.script = [
            (f"golden{i}", argv, files, self._golden(files)) for i, (argv, files) in enumerate(GOLDEN_CALLS)
        ] + [
            (
                "generate4096",
                ["generate", "--n", "4096", "--phase", repr(self.phase), "--out", "big.json"],
                ["big.json"],
                None,
            ),
            (
                "analyze4096",
                ["analyze", "--in", "big.json", "--out", "big_analyze"],
                ["big_analyze.csv", "big_analyze.json"],
                self._check_analyze,
            ),
            (
                "offset4096",
                ["offset", "--in", "big.json", "--t", "0.05,0.1", "--variant", "wedge", "--out", "big_offset"],
                ["big_offset.csv", "big_offset.svg"],
                self._check_offset,
            ),
            (
                "flow8",
                ["flow", "--in", "oct.json", "--step", "0.2", "--out", "oct_flow"],
                ["oct_flow.csv", "oct_flow.svg"],
                self._check_flow,
            ),
            (
                "stability3_64",
                ["stability", "--n", f"{STABILITY_RANGE[0]}..{STABILITY_RANGE[1]}", "--out", "stability_3_64.csv"],
                ["stability_3_64.csv"],
                self._check_stability,
            ),
        ]

    def _golden(self, files: list[str]):
        def check(result) -> str | None:
            for name in files:
                if (self.workdir / name).read_bytes() != (GOLDEN / name).read_bytes():
                    return f"{name} differs from tests/golden/{name}"
            return None

        return check

    def _check_analyze(self, result) -> str | None:
        doc = json.loads((self.workdir / "big_analyze.json").read_text())
        if not doc["equilibrium"]["is_equilibrium"]:
            return "exact 4096-gon not certified as an equilibrium"
        rows = (self.workdir / "big_analyze.csv").read_text().count("\n")
        return None if rows == 4097 else f"analyze CSV has {rows} lines"

    def _check_offset(self, result) -> str | None:
        rows = [line.split(",") for line in (self.workdir / "big_offset.csv").read_text().splitlines()[1:]]
        if len(rows) != 2 or any(row[4] != "ok" for row in rows):
            return f"offset CSV rows {rows!r}"
        # the Steiner identity is exact: predicted and actual lengths, sums of
        # n terms, agree to round-off
        worst = max(float(row[3]) / float(row[1]) for row in rows)
        return None if worst <= 4096 * EPS else f"relative offset length error {worst:.3e}"

    def _check_flow(self, result) -> str | None:
        if "converged after" not in result.stderr:
            return "unsolved"
        return None if "equilibrium=yes" in result.stderr else "converged but not an equilibrium"

    def _check_stability(self, result) -> str | None:
        lo, hi = STABILITY_RANGE
        expected = 1 + sum(n - 1 - (n % 2 == 0) for n in range(lo, hi + 1))
        rows = (self.workdir / "stability_3_64.csv").read_text().count("\n")
        return None if rows == expected else f"stability CSV has {rows} lines, expected {expected}"

    def _call(self, index: int, traced: bool) -> Outcome:
        kind, argv, outputs, check = self.script[index]
        for name in outputs:
            (self.workdir / name).unlink(missing_ok=True)
        if traced:
            spans = self.workdir / f"spans-{len(self.trace_files)}.npz"
            self.trace_files.append(spans)
            command = [sys.executable, str(HERE / "cli_traced.py"), str(spans), *argv]
        else:
            command = [sys.executable, "-m", "polyvar.cli", *argv]
        started = time.perf_counter()
        try:
            result = subprocess.run(
                command, cwd=self.workdir, env=CHILD_ENV, capture_output=True, text=True, timeout=CALL_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return _failed(kind, (started, time.perf_counter()), f"{kind}: no exit within {CALL_TIMEOUT_S} s")
        window = (started, time.perf_counter())
        if result.returncode != 0:
            return _failed(kind, window, f"{kind}: exit {result.returncode}: {result.stderr.strip()[-300:]}")
        missing = [name for name in outputs if not (self.workdir / name).is_file()]
        if missing:
            return _failed(kind, window, f"{kind}: did not write {', '.join(missing)}")
        problem = check(result) if check else None
        if problem == "unsolved":
            return Outcome(kind, window, "unsolved", f"{kind}: flow did not converge")
        if problem:
            return _failed(kind, window, f"{kind}: {problem}")
        return Outcome(kind, window, "ok")

    def _op(self, index: int, required: bool) -> Op:
        return Op(self.script[index][0], lambda traced: self._call(index, traced), required)

    def operations(self):
        k = 0
        while True:
            # nine whole passes (108 calls), so that each call's median is
            # steady although process start-up varies
            yield self._op(k % len(self.script), k < 9 * len(self.script))
            k += 1

    def trace_plan(self) -> list[Op]:
        return [self._op(i, True) for i in range(len(self.script))]

    def pass_kinds(self) -> list[str]:
        return [entry[0] for entry in self.script]

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


WORKLOADS = {cls.name: cls for cls in (FlowConverge, AnalyzeBatch, CliPipeline)}
