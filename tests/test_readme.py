"""The README's examples run as written, and the names it cites exist."""
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_python_block_of_the_readme_runs(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for number, code in enumerate(blocks, 1):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True)
        assert done.returncode == 0, f"block {number}:\n{code}\n{done.stderr}"


def _resolve(dotted: str):
    """The module or attribute that a dotted name ``sigdrift.…`` names."""
    first, *rest = dotted.split(".")
    found = importlib.import_module(first)
    for part in rest:
        if not hasattr(found, part):  # a submodule that is not imported yet
            importlib.import_module(f"{found.__name__}.{part}")
        found = getattr(found, part)
    return found


def test_every_sigdrift_name_the_readme_cites_exists():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = re.findall(r"`(sigdrift(?:\.\w+)+)", text)
    assert names
    missing = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []
