"""numpy is the library's only third-party runtime dependency."""
import ast
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_library_imports_only_numpy_and_the_standard_library():
    found = set()
    for path in (ROOT / "src" / "horowave").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert found - set(sys.stdlib_module_names) - {"horowave"} == {"numpy"}
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", d).group() for d in project["dependencies"]] == ["numpy"]


def test_moire_and_euclid_validate_load_no_scipy(tmp_path):
    out = str(tmp_path / "moire.csv")
    code = "\n".join([
        "import sys",
        "from horowave import cli",
        "assert cli.main(['moire', '--lambda', '1', '--centers', '2', '--grid', '16x16',"
        f" '--radius', '1.8', '--out', {out!r}]) == 0",
        "assert cli.main(['validate', '--suite', 'euclid']) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))",
    ])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-2:] == ["[]", "[]"]
