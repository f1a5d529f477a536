"""Package-wide structure checks."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liouspace"

# Public names that no program code uses, each kept for a stated reason.
ALLOWED_UNUSED = {
    # reads back the final state the evolve scenario writes
    "load_super_density": "file-format round trip",
}

# Defaulted dataclass fields that no program code sets, each kept for a
# stated reason; "Class.field" as in the failure message.
ALLOWED_UNSET: dict[str, str] = {}

# Defaulted parameters of public functions that no program code passes,
# each kept for a stated reason; "function.parameter" as in the failure
# message.
_STRANG_ORACLE = (
    "tests/test_evolution.py runs it at mass 1.3 and hbar 0.7 as the exact oracle "
    "of the Strang route"
)
ALLOWED_UNPASSED = {
    "grid_liouvillian.mass": _STRANG_ORACLE,
    "grid_liouvillian.hbar": _STRANG_ORACLE,
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _public_definitions() -> dict[str, str]:
    """Top-level public functions and classes of the package, by module."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = path.name
    return found


def _used_names() -> set[str]:
    """Every name read as a bare name or an attribute in src, scripts or bench."""
    used = set()
    for top in ("src", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def test_every_public_definition_is_reached_by_program_code():
    """A library function serves a scenario, a check, a script or the
    benchmark; code that only tests reach is dead weight."""
    used = _used_names()
    defined = _public_definitions()
    unreached = sorted(
        f"{module}:{name}"
        for name, module in defined.items()
        if name not in used and name not in ALLOWED_UNUSED
    )
    assert unreached == []
    assert set(ALLOWED_UNUSED) <= set(defined)


def _public_methods() -> dict[str, str]:
    """"Class.method" for each public method and property of a public
    package class, by module; dunders and private classes are left out."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                    found[f"{node.name}.{stmt.name}"] = path.name
    return found


def test_every_public_method_is_reached_by_program_code():
    """The same rule for methods, matched by name: a method that only
    tests call is dead weight too."""
    used = _used_names()
    unreached = sorted(
        f"{module}:{qualname}"
        for qualname, module in _public_methods().items()
        if qualname.split(".")[1] not in used
    )
    assert unreached == []


def _callee(node: ast.expr) -> str | None:
    """The name a call or decorator refers to: f, mod.f, or f(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dataclass_fields() -> dict[str, list[tuple[str, bool]]]:
    """The __init__ fields of each package dataclass in order, as
    (name, has a default); ClassVar and init=False entries are no fields."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, ast.ClassDef):
                continue
            if "dataclass" not in {_callee(d) for d in node.decorator_list}:
                continue
            fields = []
            for stmt in node.body:
                if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                    continue
                if "ClassVar" in ast.unparse(stmt.annotation):
                    continue
                value = stmt.value
                if isinstance(value, ast.Call) and _callee(value) == "field":
                    if any(k.arg == "init" and ast.literal_eval(k.value) is False
                           for k in value.keywords):
                        continue
                fields.append((stmt.target.id, value is not None))
            found[node.name] = fields
    return found


def _passed(signatures: dict[str, list[tuple[str, bool]]]) -> set[str]:
    """"name.parameter" for every parameter some call in src, scripts or
    bench passes, by keyword or by position.  *args counts as every
    position before the first parameter passed by keyword (a valid call
    fills none after it), and **kwargs as every keyword.  ``cls(...)`` in
    a class body constructs that class.  ``signatures`` lists each
    callable's parameters in positional order, keyword-only ones last."""
    passed = set()

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Call):
            name = _callee(node)
            name = owner if name == "cls" else name
            if name in signatures:
                names = [f for f, _ in signatures[name]]
                keywords = {kw.arg for kw in node.keywords}
                n_positions = len(node.args)
                if any(isinstance(arg, ast.Starred) for arg in node.args):
                    n_positions = min(
                        (names.index(k) for k in keywords if k in names), default=len(names)
                    )
                given = set(names) if None in keywords else set(names[:n_positions]) | keywords
                passed.update(f"{name}.{f}" for f in given)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for top in ("src", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            visit(_parse(path), None)
    return passed


def test_every_defaulted_field_is_set_by_program_code():
    """A default that no scenario, check, script or benchmark overrides is
    a constant posing as a setting: untested at any other value."""
    fields = _dataclass_fields()
    defaulted = {
        f"{cls}.{name}" for cls, entries in fields.items() for name, default in entries if default
    }
    unset = sorted(defaulted - _passed(fields) - set(ALLOWED_UNSET))
    assert unset == []
    assert set(ALLOWED_UNSET) <= defaulted


def _function_parameters() -> dict[str, list[tuple[str, bool]]]:
    """The parameters of each public module-level package function, as
    (name, has a default), positional ones in order and keyword-only last."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            n_plain = len(positional) - len(args.defaults)
            found[node.name] = [(a.arg, i >= n_plain) for i, a in enumerate(positional)] + [
                (a.arg, d is not None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            ]
    return found


def test_every_defaulted_parameter_is_passed_by_program_code():
    """The same rule for the defaulted parameters of public functions: a
    default that no call overrides is a constant posing as a parameter."""
    params = _function_parameters()
    defaulted = {
        f"{func}.{name}" for func, entries in params.items() for name, default in entries
        if default
    }
    unpassed = sorted(defaulted - _passed(params) - set(ALLOWED_UNPASSED))
    assert unpassed == []
    assert set(ALLOWED_UNPASSED) <= defaulted


def _package_sites(matches) -> list[str]:
    """"module:function" of each node of the package for which ``matches``
    holds, the function being the innermost one around it."""
    sites = []

    def visit(node: ast.AST, module: str, function: str) -> None:
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if matches(node):
            sites.append(f"{module}:{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(_parse(path), path.name, "<module>")
    return sites


def test_truncation_leak_is_raised_by_the_one_guard():
    """Every series reads its truncation off its own populations through
    ``jaynescummings.truncation_margin``; a second raise site would be a
    second guard, with its own idea of the bound and of a NaN."""
    sites = _package_sites(
        lambda node: isinstance(node, ast.Raise) and node.exc is not None
        and _callee(node.exc) == "TruncationLeak"
    )
    assert sites == ["jaynescummings.py:truncation_margin"]


def _sets_a_check(node: ast.AST) -> bool:
    """An assignment to ``<object>.checks[...]``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(
        isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute)
        and t.value.attr == "checks"
        for t in targets
    )


def test_manifest_checks_are_set_in_one_place():
    """A scenario records margins; ``validate.MANIFEST_CHECKS`` turns each
    into its check in ``RunContext.write_manifest``.  Only ``validate``'s
    report, whose checks are the registry's own results, sets them itself;
    a check set anywhere else would carry a second copy of its bound."""
    assert _package_sites(_sets_a_check) == ["cli.py:write_manifest", "cli.py:run_validate"]


def _keyword_call_sites(function: str, keyword: str) -> list[str]:
    """"path:caller" of each call in src or scripts that passes ``keyword``
    to ``function``, the caller being the innermost function around it."""
    sites = []

    def visit(node: ast.AST, path: str, caller: str) -> None:
        if isinstance(node, ast.FunctionDef):
            caller = node.name
        if (isinstance(node, ast.Call) and _callee(node) == function
                and any(kw.arg == keyword for kw in node.keywords)):
            sites.append(f"{path}:{caller}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, caller)

    for top in ("src", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            visit(_parse(path), path.relative_to(ROOT).as_posix(), "<module>")
    return sites


def test_one_call_observes_the_trotter_loop():
    """``evolution.grid_series`` is the one series of grid moments; a second
    observer of ``evolve_trotter`` would be a second series, with its own
    times, moments and margins."""
    sites = _keyword_call_sites("evolve_trotter", "observe")
    assert sites == ["src/liouspace/evolution.py:grid_series"]


def test_cli_import_leaves_out_heavy_scipy_modules():
    """scipy and each of its submodules cost start-up time and memory; the
    CLI must not load one before a route needs it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    heavy = (
        "scipy", "scipy.integrate", "scipy.stats", "scipy.linalg", "scipy.sparse", "scipy.fft",
        "scipy.special",
    )
    probe = (
        "import sys, liouspace.cli; "
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_and_its_runs_leave_out_numpy_polynomial_and_random(tmp_path):
    """numpy loads neither subpackage by itself, and neither the CLI
    import nor a jc, bipartite or evolve run needs one; numpy.polynomial
    alone cost each run about 0.75 MB of peak memory and 2-4 ms.  A
    propagator run, last, draws its points through numpy.random but needs
    no numpy.polynomial either."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = (
        "import sys; from liouspace.cli import run; "
        "loaded = lambda: sorted(m for m in sys.modules "
        "if m.startswith(('numpy.polynomial', 'numpy.random'))); "
        f"outdir = {str(tmp_path)!r}; "
        "after_import = loaded(); "
        "codes = [run(['jc', '--steps', '20', '--outdir', outdir]), "
        "run(['jc', '--steps', '20', '--eps', '0.01,-0.02', '--outdir', outdir]), "
        "run(['bipartite', '--steps', '4', '--outdir', outdir]), "
        "run(['evolve', '--grid-n', '64', '--steps', '4', '--n-out', '2', '--outdir', outdir])]; "
        "after_runs = loaded(); "
        "codes.append(run(['propagator', '--n-points', '2', '--outdir', outdir])); "
        "print(codes, after_import, after_runs, "
        "[m for m in loaded() if m.startswith('numpy.polynomial')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[0, 0, 0, 0, 0] [] [] []"


def test_basis_routes_leave_out_scipy(tmp_path):
    """bipartite (one eigh per kind) and complex-eps jc (the sector powers,
    a numpy expm of the 4 x 4 blocks) load no scipy at all."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = (
        "import sys; from liouspace.cli import run; "
        f"outdir = {str(tmp_path)!r}; "
        "codes = [run(['bipartite', '--steps', '4', '--outdir', outdir])]; "
        "loaded_scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
        "after_bipartite = loaded_scipy(); "
        "codes.append(run(['jc', '--n-max', '3', '--steps', '4', '--eps', '0.01,-0.02', "
        "'--outdir', outdir])); "
        "print(codes, after_bipartite, loaded_scipy())"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[0, 0] [] []"


def test_real_eps_jc_leaves_out_scipy(tmp_path):
    """The sector_phases route is closed-form numpy: a real-eps jc run
    loads no scipy at all."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = (
        "import sys; from liouspace.cli import run; "
        "code = run(['jc', '--n-max', '12', '--steps', '200', '--eps', '0.01,0', "
        f"'--init', 'coherent:0.7', '--outdir', {str(tmp_path)!r}]); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 []"


def test_grid_evolve_leaves_out_scipy_fft_and_special(tmp_path):
    """The Strang loop runs on numpy's FFT: scipy.fft, and scipy.special
    which it imports, stay out of a grid run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = (
        "import sys; from liouspace.cli import run; "
        "code = run(['evolve', '--grid-n', '64', '--steps', '4', '--n-out', '2', "
        f"'--outdir', {str(tmp_path)!r}]); "
        "print(code, sorted(m for m in ('scipy.fft', 'scipy.special') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 []"


def test_banded_grid_evolve_leaves_out_concurrent_futures(tmp_path):
    """The Strang loop's helper bands are plain threads: concurrent.futures
    alone would add about 0.68 MB to the peak memory of every run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = (
        "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
        "from liouspace import evolution; from liouspace.cli import run; "
        "code = run(['evolve', '--grid-n', '256', '--steps', '4', '--n-out', '2', "
        f"'--outdir', {str(tmp_path)!r}]); "
        "print(code, evolution.strang_bands(256), 'concurrent.futures' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 2 False"
