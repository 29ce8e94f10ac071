"""Structural counts of ROADMAP aim 2, read from the source.

The knob inventory is, over every ``def`` in ``src/magflow/*.py``, the
parameters with a default plus any ``**kwargs``, plus the fields of
``SamplingConfig``. A new default changes the count, and with it the
figure ROADMAP records; so does a new run-config key (``cli.CONFIG_KEYS``
plus every ``SECTION_KEYS`` and ``MODEL_KEYS`` entry). The model-class
dispatches in the modules that consume surface models and the
``solve_ivp`` call sites are pinned at zero, the step control of the two
DOP853 loops at one copy, and the tableau and its dense-output reader at
one each. Every export, and every public method
or property of an exported class, has a reader in the program: the
package, the demos, the benchmark or the acceptance criteria.
``SurfaceModel`` holds the members the certifier reads and no other. scipy
is imported only inside the two functions that use it, so no other path
loads it.
"""

import ast
import functools
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import magflow
from magflow import CurvatureProfile, FourierSeries1D, _dop853, cli, flow, jacobi

ROOT = Path(__file__).resolve().parents[1]

INVENTORY = 13
EXPORTS = 39
CONFIG_KEYS = 20


def knob_inventory(package_dir: Path) -> int:
    total = 0
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                total += len(args.defaults) + (args.kwarg is not None)
                total += sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and node.name == "SamplingConfig":
                total += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return total


def test_knob_inventory():
    assert knob_inventory(Path(magflow.__file__).parent) == INVENTORY


def test_config_key_count():
    # a key whose value the code derives (a profile's k_bound) or that no
    # program caller sets (export_orbit_limit) is not one
    keys = [cli.CONFIG_KEYS, *cli.SECTION_KEYS.values(), *cli.MODEL_KEYS.values()]
    assert sum(map(len, keys)) == CONFIG_KEYS


def test_no_module_decides_by_the_class_of_a_model():
    # every per-kind answer is a method of the model (geometry.SurfaceModel)
    package = Path(magflow.__file__).parent
    for name in ("geometry", "flow", "anosov"):
        assert (package / (name + ".py")).read_text().count("isinstance(model") == 0


def test_no_module_calls_solve_ivp():
    # orbits run in flow._integrate, Jacobi launches in jacobi._launch
    for path in Path(magflow.__file__).parent.glob("*.py"):
        assert "solve_ivp" not in path.read_text(), path.name


def _scipy_imports(tree) -> list:
    """(enclosing def or class path, module) of every scipy import in a
    module, the path being "" at module level."""
    found = []

    def visit(node, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            path = (path + "." if path else "") + node.name
        if isinstance(node, ast.Import):
            found.extend((path, a.name) for a in node.names if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found.append((path, node.module))
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    visit(tree, "")
    return found


def test_scipy_is_imported_only_where_it_runs():
    # the cross-check quadrature of criterion 06 and the version string of
    # a written report; the DOP853 tableau (_dop853), Brent's root finder
    # (jacobi._brent) and the spline through an orbit's samples
    # (flow._Spline) are the package's own
    package = Path(magflow.__file__).parent
    found = sorted((path.name, where, module) for path in package.glob("*.py")
                   for where, module in _scipy_imports(ast.parse(path.read_text())))
    assert found == [("anosov.py", "AnosovReport.to_dict", "scipy"),
                     ("jacobi.py", "solve_boundary", "scipy.integrate")]


def test_cold_paths_load_no_scipy(tmp_path):
    # the CLI's import, classifications on a Fourier profile, a callable,
    # a constant model and a torus (spline profiles), a constant sweep with
    # b > 1 (conjugate points, so Brent's root finder runs) and the
    # invariance residual
    code = (
        "import math, sys\n"
        "import magflow.cli\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'import'\n"
        "from magflow import (AbstractProfile, ConformalTorus, ConstantCurvature,\n"
        "                     CurvatureProfile, FourierSeries1D, FourierSeries2D,\n"
        "                     SamplingConfig, classify, invariance_residual)\n"
        "series = FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3})\n"
        "cfg = SamplingConfig(ensemble_count=2)\n"
        "assert classify(AbstractProfile(kappa=series, k_bound=1.2), cfg).verdict == 'NumericallyAnosov'\n"
        "half_wave = AbstractProfile(kappa=lambda t: -max(0.0, math.sin(t)) ** 2, k_bound=1.0)\n"
        "classify(half_wave, cfg)\n"
        "classify(ConstantCurvature(K=-1.0, b=0.5, chi=-2, area=4 * math.pi), cfg)\n"
        "torus = ConformalTorus(phi=FourierSeries2D(cos_coeffs={(1, 0): 0.05}),\n"
        "                       b=FourierSeries2D(const=0.6, sin_coeffs={(0, 1): 0.2}))\n"
        "classify(torus, SamplingConfig(ensemble_count=1, horizon=20.0))\n"
        "assert magflow.cli.sweep({'model': {'kind': 'constant', 'K': -1.0, 'b': 1.0,\n"
        "                                    'chi': -2, 'area': 4 * math.pi},\n"
        "                          'ensemble': {'count': 2, 'horizon': 60.0},\n"
        "                          'sweep': {'parameter': 'model.b', 'grid': [0.5, 1.2, 1.4]},\n"
        "                          'output_dir': sys.argv[1]}) == 0\n"
        "assert 'NotAnosov' in open(sys.argv[1] + '/summary.txt').read()\n"
        "assert invariance_residual(CurvatureProfile.from_series(series), 1.0) < 1e-6\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(magflow.__file__))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_one_step_controller():
    # flow._first_step and flow._march serve both flow._integrate and
    # jacobi._launch: one first-step choice, one raise per failure rule
    package = Path(magflow.__file__).parent
    texts = [path.read_text() for path in package.glob("*.py")]
    assert sum(text.count("0.01 * d0 / d1") for text in texts) == 1
    assert sum((package / name).read_text().count("raise IntegrationFailure(")
               for name in ("flow.py", "jacobi.py")) == 3
    jacobi = (package / "jacobi.py").read_text()
    for name in ("_SAFETY", "_MIN_FACTOR", "_MAX_FACTOR", "_rms", "_ERROR_EXPONENT"):
        assert name not in jacobi
    assert "_ERROR_EXPONENT" not in (package / "flow.py").read_text()


def test_one_tableau_and_one_dense_output():
    # both loops step on _dop853: every written-out weight is one of its
    # nonzero entries, named for its place (_A13_6 is A[13, 6], _E5_0 is
    # E5[0]) and defined in flow alone, the RK45 pair (_rk45, _P, _E7) is
    # gone, and one class reads a dense output (flow._Run.sol)
    pattern = re.compile(r"_(A(\d+)_(\d+)|B(\d+)|E([35])_(\d+))")
    weights = {name: value for name, value in vars(flow).items() if pattern.fullmatch(name)}
    assert len(weights) == 98
    for name, value in weights.items():
        m = pattern.fullmatch(name)
        if m[2]:
            want = _dop853.A[int(m[2]), int(m[3])]
        elif m[4]:
            want = _dop853.B[int(m[4])]
        else:
            want = getattr(_dop853, "E" + m[5])[int(m[6])]
        assert value == want != 0.0, name
    for name in ("_rk45", "_P", "_E7", "_A21", "_B1"):
        assert not hasattr(flow, name), name
    package = Path(magflow.__file__).parent
    readers = []
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        # no module but _dop853 spells out a weight
        if path.name != "_dop853.py":
            assigned = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                        for target in node.targets for t in ast.walk(target)
                        if isinstance(t, ast.Name)}
            assert not {name for name in assigned if pattern.fullmatch(name)} - (
                set(weights) if path.name == "flow.py" else set()), path.name
        readers += ["%s.%s" % (path.stem, node.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef)
                    and any(isinstance(f, ast.FunctionDef) and f.name == "sol"
                            for f in node.body)]
    assert readers == ["flow._Run"]
    assert jacobi._Run is flow._Run


def _names_used(tree) -> set:
    """The names a module reads (as a name or an attribute), each counted
    only outside a def or class of that name."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def _program_paths() -> list:
    """The program files: the package, the demos, the benchmark and the
    acceptance criteria."""
    package = Path(magflow.__file__).parent
    return [*package.glob("*.py"), *(ROOT / "demos").glob("*.py"),
            *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]


def test_every_export_has_a_program_caller():
    # unit tests alone do not keep a name in the package
    paths = [p for p in _program_paths() if p.name != "__init__.py"]
    used = set().union(*(_names_used(ast.parse(p.read_text())) for p in paths))
    exports = [name for name in magflow.__all__
               if not inspect.ismodule(getattr(magflow, name))]
    assert len(exports) == EXPORTS
    assert [name for name in exports if name not in used] == []


def test_every_public_method_has_a_program_reader():
    # a method or property of an exported class is read as an attribute
    # somewhere in the program, or it goes
    read = {node.attr for p in _program_paths() for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    kinds = (property, functools.cached_property, staticmethod, classmethod)
    unread = ["%s.%s" % (name, attr) for name in magflow.__all__
              if inspect.isclass(getattr(magflow, name))
              for attr, value in vars(getattr(magflow, name)).items()
              if not attr.startswith("_") and attr not in read
              and (inspect.isfunction(value) or isinstance(value, kinds))]
    assert unread == []


def test_surface_model_is_what_the_certifier_reads():
    # the protocol's members are exactly the model.<name> reads of anosov;
    # a chart model's orbit equations belong to flow.integrate_orbit
    package = Path(magflow.__file__).parent
    protocol = next(node for node in ast.walk(ast.parse((package / "geometry.py").read_text()))
                    if isinstance(node, ast.ClassDef) and node.name == "SurfaceModel")
    members = {node.target.id if isinstance(node, ast.AnnAssign) else node.name
               for node in protocol.body
               if isinstance(node, (ast.AnnAssign, ast.FunctionDef))}
    read = {node.attr for node in ast.walk(ast.parse((package / "anosov.py").read_text()))
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "model"}
    assert members == read == {"chi", "inequality", "kappa_extrema", "ensemble",
                               "profile", "minus_profile"}



def _is_call(node, name: str) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def test_one_conjugate_point_finder():
    # the slope schedule asks jacobi.first_zero, which scans at the
    # propagator's knots: green reads no stored propagator values, the
    # fixed scan grid, the schedule's cap on r, the period batches past 2T
    # and the resumed scan are gone, and _doubling raises one
    # ConjugatePointError
    package = Path(magflow.__file__).parent
    green = ast.parse((package / "green.py").read_text())
    assert "_stored" not in _names_used(green)
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not ({"SCAN_STEP", "_scan_step", "R_CAP", "SCAN_PERIODS", "scanned"}
                    & (defined | _names_used(tree))), path.name
    doubling = next(node for node in ast.walk(green)
                    if isinstance(node, ast.FunctionDef) and node.name == "_doubling")
    assert sum(isinstance(node, ast.Raise) and _is_call(node.exc, "ConjugatePointError")
               for node in ast.walk(doubling)) == 1


def test_one_slope_schedule():
    # every profile runs green._doubling, where the monodromy is one way the
    # schedule ends: _run_schedule has no route of its own for a periodic
    # profile
    package = Path(magflow.__file__).parent
    green = ast.parse((package / "green.py").read_text())
    run = next(node for node in ast.walk(green)
               if isinstance(node, ast.FunctionDef) and node.name == "_run_schedule")
    assert not {"floquet", "period"} & _names_used(run)


def test_one_matrix_product_and_no_power_cache():
    # jacobi._product forms the squares of the monodromy M, its powers and
    # the reads F(tau) M**n past the period; of these only the squares are
    # kept, so a propagator read far past its period holds no dict of powers
    package = Path(magflow.__file__).parent
    tree = ast.parse((package / "jacobi.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_product" in defined and "_compose" not in defined
    prop = jacobi.propagator(CurvatureProfile.from_series(
        FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3})))
    for r in (1.0, 3.0 * prop.period, 1e4):
        prop.slope(r)
    assert len(prop._squares) > 10
    assert [name for name, value in vars(prop).items() if isinstance(value, dict)] == []


def test_the_step_attempt_makes_no_numpy_call():
    # a Jacobi step attempt reads kappa at its 14 nodes as Python floats
    # (jacobi._attempt) and writes its stage sums out on them (jacobi._pair)
    package = Path(magflow.__file__).parent
    tree = ast.parse((package / "jacobi.py").read_text())
    for name in ("_attempt", "_pair"):
        node = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        assert not {"np", "numpy", "_NODES"} & _names_used(node), name


def test_no_vectorize_and_no_list_form_stage_sums():
    # callable profiles are read by one list comprehension
    # (AbstractProfile.curvature), and jacobi._pair writes the DOP853 stage
    # sums out; read from the syntax tree, since docstrings name both
    package = Path(magflow.__file__).parent
    for path in package.glob("*.py"):
        assert "vectorize" not in _names_used(ast.parse(path.read_text())), path.name
    jacobi = ast.parse((package / "jacobi.py").read_text())
    assert [node for node in ast.walk(jacobi) if _is_call(node, "sum")
            and node.args and _is_call(node.args[0], "map")] == []
