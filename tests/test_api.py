import re
from pathlib import Path

import pytest

import simcol
import simcol.coupling
from helpers import run_fresh

README = Path(__file__).resolve().parent.parent / "README.md"

# the single-site coupling path and the coupled-step samplers: Glauber's
# drift is flip_exact_drift at FlipParams.glauber()
DELETED = ("glauber_exact_drift", "coupled_flip_step", "coupled_glauber_step",
           "glauber_partner_color")

IMPORT_ONLY = """
import json, sys
import simcol
print(json.dumps({"loaded": sorted(m for m in sys.modules if m.startswith("simcol.")),
                  "names": [n for n in ("run_chain", "flip_step", "glauber_step")
                            if hasattr(simcol, n)]}))
"""


def test_import_simcol_loads_no_submodule(tmp_path):
    # every name has one import path, its own module: the package
    # re-exports nothing, so importing it loads nothing
    assert run_fresh(IMPORT_ONLY, tmp_path) == {"loaded": [], "names": []}


def test_readme_library_example_runs(tmp_path):
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    code = block.group(1) + 'print(json.dumps([report["threshold"], stats.steps]))\n'
    assert run_fresh("import json\n" + code, tmp_path) == ["1933/325", 10_000]


@pytest.mark.parametrize("module", [simcol, simcol.coupling], ids=["simcol", "coupling"])
@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_stay_gone(module, name):
    assert not hasattr(module, name)
    assert name not in getattr(module, "__all__", ())
