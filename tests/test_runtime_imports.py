"""The package runs on numpy alone: scipy is a test oracle, not a dependency."""

import os
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    code = (
        "import sys\n"
        "import mehler, mehler.suite, mehler.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_scipy_is_a_test_dependency_only():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {dep.split(">")[0].split("=")[0].split("<")[0].strip() for dep in project["dependencies"]}
    assert names == {"numpy"}
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
