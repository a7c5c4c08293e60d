"""The public API is the report: the names the package exports, and the
demos, which use only those names and must print their checked-in output."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

REPORT_API = {
    "ParseError",
    "ReportOptions",
    "full_report",
    "npi_scan",
    "parse_log",
    "parse_presentation",
    "parse_target_spec",
    "render_text",
    "report_json",
}


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, cwd=ROOT
    )


def test_package_exports_the_report_api():
    # Every other public name lives in its layer's module.  Importing the
    # package registers every layer but the CLI in sys.modules and runs all
    # of them but the three lazy ones (the scan, cover and LOG layers),
    # each of which runs on its first use: the package resolves npi_scan on
    # demand, so its namespace holds the other eight names only, and every
    # name of __all__ resolves.
    code = (
        "import json, sys, types\n"
        "import npicheck\n"
        "public = sorted(name for name, value in vars(npicheck).items()\n"
        "                if not name.startswith('_') and not isinstance(value, types.ModuleType))\n"
        "unrun = [layer for layer in ('complexes', 'cover', 'logs')\n"
        "         if type(sys.modules['npicheck.' + layer]) is not types.ModuleType]\n"
        "print(json.dumps({\n"
        "    'all': sorted(npicheck.__all__),\n"
        "    'public': public,\n"
        "    'unrun': unrun,\n"
        "    'unresolved': [name for name in npicheck.__all__ if not callable(getattr(npicheck, name))],\n"
        "    'loaded': sorted(name for name in sys.modules if name.startswith('npicheck.')),\n"
        "}))\n"
    )
    proc = _python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    layers = sorted(
        f"npicheck.{p.stem}"
        for p in (ROOT / "src" / "npicheck").glob("*.py")
        if p.stem not in ("__init__", "cli")
    )
    assert json.loads(proc.stdout) == {
        "all": sorted(REPORT_API),
        "public": sorted(REPORT_API - {"npi_scan"}),
        "unrun": ["complexes", "cover", "logs"],
        "unresolved": [],
        "loaded": layers,
    }


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_prints_its_expected_output(demo):
    assert not re.search(r"from npicheck\.[a-z_]+ import|import npicheck\.", demo.read_text())
    proc = _python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text()
