"""Run the mutation catalogue of tests/mutants.py, one mutant at a time.

For each entry the script copies src/ into a temporary directory, makes
the entry's one replacement there, and runs the entry's pytest selection
from the repository root with PYTHONPATH and XDG_CACHE_HOME pointing into
the copy, so a mutated _chain.c builds its own library.  It prints one
line per entry: killed (the selection fails), survived (it passes) or
stale (the snippet does not occur exactly once, or the selection no
longer runs), and exits 1 unless every entry is killed.

Usage: python3 scripts/mutants.py [ID ...]
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from mutants import MUTANTS  # noqa: E402


def run(mutant) -> tuple[str, float]:
    with tempfile.TemporaryDirectory(prefix="simcol-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "simcol" / mutant.file
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            return "stale", 0.0
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(src), "XDG_CACHE_HOME": str(Path(tmp) / "cache")}
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *mutant.select], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        took = time.perf_counter() - start
    # pytest exits 1 when a test fails and 2 when collection breaks; 4 and
    # 5 mean the selection names nothing that still exists
    verdict = {0: "survived", 1: "killed", 2: "killed"}.get(done.returncode, "stale")
    return verdict, took


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ids", nargs="*", help="entries to run (default: all)")
    args = ap.parse_args()
    chosen = [m for m in MUTANTS if not args.ids or m.id in args.ids]
    unknown = set(args.ids) - {m.id for m in MUTANTS}
    if unknown:
        ap.error(f"no such entries: {', '.join(sorted(unknown))}")
    verdicts = []
    for mutant in chosen:
        verdict, took = run(mutant)
        verdicts.append(verdict)
        print(f"{mutant.id:32s} {mutant.file:12s} {verdict:8s} {took:6.1f}s", flush=True)
    print(f"{verdicts.count('killed')} killed, {verdicts.count('survived')} survived, "
          f"{verdicts.count('stale')} stale of {len(verdicts)}")
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
