"""The reachability probe (``tests/harness/reach.py``) and its residue table.

The probe is only worth its table if it sees calls made anywhere a user
path runs -- in the main interpreter, through a decorator, and in a
``spawn``ed worker -- and the residue table in DESIGN.md is only worth
keeping if every function it names still exists.
"""

import textwrap

from tests.harness import reach

MODULE = '''\
import functools


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


def called():
    return 1


def uncalled():
    return 2


@deco
def decorated():
    return 3


@deco
def decorated_uncalled():
    return 4


def outer_uncalled():
    def inner():
        return 5
    return inner()


def child_only():
    return 6
'''

MAIN = '''\
import multiprocessing

from pkg import mod

if __name__ == "__main__":
    mod.called()
    mod.decorated()
    child = multiprocessing.get_context("spawn").Process(target=mod.child_only)
    child.start()
    child.join()
    assert child.exitcode == 0
'''


def test_probe_sees_direct_decorated_and_spawned_calls(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(MODULE)
    (tmp_path / "main.py").write_text(textwrap.dedent(MAIN))
    calls = reach.record([[str(tmp_path / "main.py")]], pkg, tmp_path)
    defs = reach.definitions(pkg)
    missed = {d.qualname for d in reach.unreached(defs, calls)}
    assert missed == {"uncalled", "decorated_uncalled", "outer_uncalled"}
    # A nested function is counted in its outermost unreached parent.
    outer = next(d for d in defs if d.qualname == "outer_uncalled")
    inner = next(d for d in defs if d.qualname == "outer_uncalled.inner")
    assert inner.parent is outer and outer.lines == 4


def test_every_residue_row_names_a_function_that_exists():
    rows = reach.residue_rows()
    assert rows, "DESIGN.md has no residue table"
    defs = reach.definitions(reach.PACKAGE)
    files = {d.path for d in defs}
    for path, qualname, category in rows:
        label = f"{path}::{qualname}" if qualname else path
        assert category in reach.CATEGORIES, f"{label}: category {category!r}"
        assert path in files, f"{label}: no such module"
        if qualname:
            assert any(reach.named_by(d, (path, qualname, category)) for d in defs), \
                f"{label}: no such function or class"
