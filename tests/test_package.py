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
    # the guarded 3-vector front of the Coulomb E, checked against the
    # definition of E(Q, q) in test_potential
    "coulomb_e_superoperator": "guarded front of the Coulomb E formula",
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


def test_cli_import_leaves_out_heavy_scipy_modules():
    """Each scipy submodule costs start-up time; the CLI must not load one
    before a route needs it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    heavy = (
        "scipy.integrate", "scipy.stats", "scipy.linalg", "scipy.sparse", "scipy.fft",
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


def test_basis_routes_leave_out_scipy_sparse_linalg(tmp_path):
    """Both Krylov runs, bipartite CL and complex-eps jc, and the eigh
    runs beside them need no scipy.sparse.linalg."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = (
        "import sys; from liouspace.cli import run; "
        f"outdir = {str(tmp_path)!r}; "
        "codes = [run(['bipartite', '--steps', '4', '--outdir', outdir]), "
        "run(['jc', '--n-max', '3', '--steps', '4', '--eps', '0.01,-0.02', '--outdir', outdir])]; "
        "print(codes, 'scipy.sparse.linalg' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[0, 0] False"


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
