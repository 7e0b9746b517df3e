"""The benchmark's tracer still finds every function it wraps.

perfbench/tracing.py patches simcol functions by module and name; a
rename or deletion there would otherwise surface only as a failed
`perfbench/run.py --trace 1` run.
"""

import importlib.util
import sys
from pathlib import Path

# every module the tracer patches; `import simcol` alone loads none of them
from simcol import certify, cli, coupling, dynamics, graphs, matching, oracle  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def simcol_namespaces():
    return {name: mod.__dict__ for name, mod in sys.modules.items()
            if name == "simcol" or name.startswith("simcol.")}


def test_tracer_wraps_every_target_and_restores_it():
    tracing = load_tracing()
    namespaces = simcol_namespaces()
    names = {fname for _, fname, _, _ in tracing.TARGETS} | {"flip_step"}
    before = {(mod, fname): ns[fname] for mod, ns in namespaces.items()
              for fname in names if fname in ns}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module, fname, _, _ in tracing.TARGETS:
            original = before[(f"simcol.{module}", fname)]
            assert namespaces[f"simcol.{module}"][fname] is not original, \
                f"{module}.{fname} not wrapped"
        assert namespaces["simcol.coupling"]["flip_step"] is not \
            before[("simcol.coupling", "flip_step")]
    finally:
        tracer.restore()
    for (mod, fname), original in before.items():
        assert namespaces[mod][fname] is original, f"{mod}.{fname} not restored"
