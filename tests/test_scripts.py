"""Smoke tests for scripts/ and the README library example."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["fluid_grid.py", "identity_chain.py",
                                    "taxonomy_tour.py"])
def test_script_runs_clean(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()


def test_readme_library_example(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    assert capsys.readouterr().out.strip()
    scalar = ns["bundle"].scalar
    assert scalar["g"] == pytest.approx(12.0, abs=1e-12)
    assert scalar[4] == pytest.approx(3.0, abs=1e-12)
    assert ns["report"].grw.passes
