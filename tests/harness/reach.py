"""Which functions in ``src/repro`` no user path runs.

A *user path* is something a person or CI runs: every ``python -m
repro`` subcommand, the examples, and the benchmark at smoke scale.
Tests are not users.  Each path runs in a fresh interpreter with a
generated ``sitecustomize.py`` first on ``PYTHONPATH``.  It installs a
``sys.setprofile`` / ``threading.setprofile`` hook that records the code
object of every call and, at exit (``atexit``, or ``os._exit``), writes
``(co_filename, co_firstlineno, co_name)`` of those under the package.
Spawned sweep workers and the benchmark's child inherit the environment,
so they report too.

The calls are mapped onto the package's ``ast`` function definitions; a
decorated function starts at its first decorator, as its code object
does.  A function never called is *unreached*.  One nested in an
unreached function is not listed: it counts once, in its outermost
unreached parent.  Lines are whole definitions (decorators to last
line) of functions not nested in another function.

Every unreached function must be named -- itself, its class or its
module -- by a row of the residue table in DESIGN.md, which says who
keeps it, and each row's category has a line budget (``CEILINGS``) the
residue may shrink below but never exceed::

    PYTHONPATH=src python -m tests.harness.reach            print the table
    PYTHONPATH=src python -m tests.harness.reach --check    exit 1 on a function
                                                            the residue table
                                                            does not name, or
                                                            a category above
                                                            its ceiling

The whole set takes about as long as ``run --all`` twice plus the
benchmark smoke (about 7 minutes on two cores).
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
DESIGN = ROOT / "DESIGN.md"

#: The residue table's categories: why an unreached function stays.
CATEGORIES = ("item-14 fault path", "diagnostic", "safety", "oracle", "public API")

#: Unreached lines each category may hold, as last measured: lower one
#: when code goes, never raise one to make room.
CEILINGS = {
    "item-14 fault path": 678,
    "diagnostic": 104,
    "safety": 266,
    "oracle": 54,
    "public API": 189,
}

#: ``(label, argv after the interpreter)``; ``{tmp}`` is a scratch directory.
USER_PATHS = (
    ("info", ["-m", "repro", "info"]),
    ("run-jobs1", ["-m", "repro", "run", "--all", "--jobs", "1", "--out", "{tmp}/run1"]),
    ("run-jobs2", ["-m", "repro", "run", "--all", "--jobs", "2",
                   "--resume", "{tmp}/campaign", "--out", "{tmp}/run2"]),
    ("run-resumed", ["-m", "repro", "run", "fig05", "--resume", "{tmp}/campaign"]),
    ("ablations", ["-m", "repro", "ablations"]),
    ("soak", ["-m", "repro", "soak", "--iters", "3", "--out", "{tmp}/soak"]),
    ("soak-fluid", ["-m", "repro", "soak", "--nodes", "16", "--nodes-per-switch", "4",
                    "--iters", "2", "--out", "{tmp}/soak-fluid"]),
    *((f"example-{p.stem}", [str(p)]) for p in sorted((ROOT / "examples").glob("*.py"))),
    ("bench", ["bench/run.py", "--smoke", "--trace", "1", "--out", "{tmp}/bench"]),
)

SITECUSTOMIZE = '''\
import os

if os.environ.get("REACH_OUT"):
    import atexit
    import sys
    import tempfile
    import threading

    _codes = {}
    _dumped = []

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            _codes[id(code)] = code

    def _dump():
        if _dumped:
            return
        _dumped.append(True)
        sys.setprofile(None)
        threading.setprofile(None)
        prefix = os.environ["REACH_PREFIX"]
        real = {}
        rows = set()
        for code in _codes.values():
            name = code.co_filename
            if name not in real:
                real[name] = os.path.realpath(name)
            if real[name].startswith(prefix):
                rows.add(f"{real[name]}\\t{code.co_firstlineno}\\t{code.co_name}")
        fd, _ = tempfile.mkstemp(suffix=".tsv", dir=os.environ["REACH_OUT"])
        with os.fdopen(fd, "w") as f:
            f.write("\\n".join(sorted(rows)))

    _os_exit = os._exit

    def _exit(status):
        _dump()
        _os_exit(status)

    os._exit = _exit
    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''


@dataclass(frozen=True)
class Definition:
    path: str  # relative to the package's parent, e.g. "repro/sim/core.py"
    qualname: str  # "Simulator.run", "outer.inner"
    name: str
    first: int  # first decorator line, else the ``def`` line
    last: int
    parent: "Definition | None"  # the enclosing function, if any

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def definitions(package: Path) -> list[Definition]:
    """Every function definition under ``package``, outer before inner."""
    out: list[Definition] = []

    def walk(node, rel, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                d = Definition(rel, prefix + child.name, child.name, first,
                               child.end_lineno, parent)
                out.append(d)
                walk(child, rel, d.qualname + ".", d)
            elif isinstance(child, ast.ClassDef):
                walk(child, rel, prefix + child.name + ".", parent)
            else:
                walk(child, rel, prefix, parent)

    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent).as_posix()
        walk(ast.parse(path.read_text(), str(path)), rel, "", None)
    return out


def record(commands, package: Path, cwd: Path) -> set[tuple[str, int, str]]:
    """Run each argv in ``commands`` (after the interpreter) under the
    hook; return ``(path, co_firstlineno, co_name)`` of every call into
    ``package``, the path relative to the package's parent.  Raises
    ``RuntimeError`` naming a command that exits non-zero."""
    prefix = os.path.realpath(package) + os.sep
    calls: set[tuple[str, int, str]] = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        hook_dir = Path(tmp, "hook")
        out_dir = Path(tmp, "out")
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        path = [str(hook_dir), str(package.parent)]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
               "REACH_OUT": str(out_dir), "REACH_PREFIX": prefix}
        for argv in commands:
            argv = [a.replace("{tmp}", tmp) for a in argv]
            with open(Path(tmp, "log"), "w") as log:
                proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                                      stdout=log, stderr=subprocess.STDOUT)
            if proc.returncode != 0:
                tail = Path(tmp, "log").read_text()[-2000:]
                raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{tail}")
        for dump in out_dir.glob("*.tsv"):
            for row in dump.read_text().splitlines():
                filename, line, name = row.split("\t")
                rel = Path(filename).relative_to(package.parent).as_posix()
                calls.add((rel, int(line), name))
    return calls


def unreached(defs: list[Definition], calls: set) -> list[Definition]:
    """Functions never called, each under its outermost unreached parent."""
    missed = {d for d in defs if (d.path, d.first, d.name) not in calls}

    def shadowed(d):
        p = d.parent
        while p is not None:
            if p in missed:
                return True
            p = p.parent
        return False

    return [d for d in defs if d in missed and not shadowed(d)]


# -- the residue table --------------------------------------------------------
_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|\s*([^|]+?)\s*\|")


def residue_rows(design: Path = DESIGN) -> list[tuple[str, str | None, str]]:
    """``(path, qualname or None, category)`` per row of the residue table
    (the table under the heading that names "Residue")."""
    rows, inside = [], False
    for line in design.read_text().splitlines():
        if line.startswith("#"):
            inside = "Residue" in line
            continue
        m = _ROW.match(line) if inside else None
        if m:
            path, _, qualname = m.group(1).partition("::")
            rows.append(("repro/" + path, qualname or None, m.group(2)))
    return rows


def named_by(d: Definition, row) -> bool:
    path, qualname, _ = row
    return d.path == path and (qualname is None or d.qualname == qualname
                               or d.qualname.startswith(qualname + "."))


def report(defs, missed, rows) -> tuple[str, list[Definition], list[str]]:
    """The unreached table as text, the functions no row names, and the
    categories whose lines exceed their :data:`CEILINGS`."""
    total = sum(d.lines for d in defs if d.parent is None)
    lost = sum(d.lines for d in missed)
    width = max((len(f"{d.path}::{d.qualname}") for d in missed), default=0)
    text = [f"{'function':<{width}}  lines  residue row"]
    orphans, by_category = [], dict.fromkeys(CATEGORIES, 0)
    for d in missed:
        row = next((r for r in rows if named_by(d, r)), None)
        if row is None:
            orphans.append(d)
        else:
            by_category[row[2]] = by_category.get(row[2], 0) + d.lines
        text.append(f"{d.path + '::' + d.qualname:<{width}}  {d.lines:5d}  "
                    f"{row[2] if row else 'NONE'}")
    text.append(f"{len(missed)} functions unreached: {lost} of {total} "
                f"outermost function-body lines; {len(orphans)} without a residue row")
    over = []
    for category, lines in by_category.items():
        ceiling = CEILINGS.get(category, 0)
        text.append(f"  {category:<20} {lines:5d} lines (ceiling {ceiling})")
        if lines > ceiling:
            over.append(category)
    return "\n".join(text), orphans, over


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 if an unreached function has no residue row "
                         "or a category is above its ceiling")
    args = ap.parse_args(argv)
    print("user paths: " + ", ".join(label for label, _ in USER_PATHS), flush=True)
    calls = record([cmd for _, cmd in USER_PATHS], PACKAGE, ROOT)
    defs = definitions(PACKAGE)
    text, orphans, over = report(defs, unreached(defs, calls), residue_rows())
    print(text)
    return 1 if args.check and (orphans or over) else 0


if __name__ == "__main__":
    sys.exit(main())
