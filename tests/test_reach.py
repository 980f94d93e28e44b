"""The reach gate's analyzer (``tools/reach.py``) on a tiny package.

No root runs here: a one-line program imports the package under the
gate's profiling hook, and the check is made against hand-written
allowlists.  ``python tools/reach.py`` runs the real roots (CI job
``reach``).
"""

from __future__ import annotations

import importlib.util
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def _load_reach():
    spec = importlib.util.spec_from_file_location(
        "reach", REPO / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("reach", module)
    spec.loader.exec_module(module)
    return module


reach = _load_reach()

MODULE = '''\
import functools


def used():
    return helper()


def helper():
    return 1


def unused():
    return 2


def kept():
    return 3


class Box:
    def __init__(self):
        self.value = 1

    def __repr__(self):
        return "Box"

    @property
    def size(self):
        return self.value

    @functools.lru_cache(maxsize=None)
    def cached(self):
        return 4

    def stub(self):
        """Subclasses say."""
        raise NotImplementedError


class Never:
    def __init__(self):
        self.value = 0
'''

PROGRAM = ("import tiny.mod as m; m.used(); b = m.Box(); b.size; b.cached()")


@pytest.fixture(scope="module")
def analysed(tmp_path_factory):
    """(functions, reached) of the tiny package after ``PROGRAM``."""
    tmp = tmp_path_factory.mktemp("reach")
    package = tmp / "src" / "tiny"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(MODULE))
    hook, out = tmp / "hook", tmp / "out"
    hook.mkdir()
    out.mkdir()
    reach.write_hook(hook, package, out)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(hook), str(package.parent)]))
    subprocess.run([sys.executable, "-c", PROGRAM], env=env, check=True,
                   timeout=60)
    return reach.list_functions(package), reach.read_reached(out)


def _problems(analysed, *allow_lines):
    functions, reached = analysed
    return reach.check(functions, reached, allow_lines).problems


def test_unlisted_unreached_function_fails(analysed):
    problems = _problems(analysed, "mod.py::kept  test oracle",
                         "mod.py::Never.__init__  error path")
    assert len(problems) == 1
    assert problems[0].startswith("unreached, not allowlisted: mod.py::unused")


def test_allowlisted_unreached_functions_pass(analysed):
    assert _problems(analysed, "mod.py::unused  3(b)",
                     "mod.py::kept  test oracle",
                     "mod.py::Never.__init__  error path") == []


def test_stale_lines_fail(analysed):
    allow = ("mod.py::unused  3(b)", "mod.py::kept  test oracle",
             "mod.py::Never.__init__  error path")
    reached = _problems(analysed, *allow, "mod.py::helper  documented")
    assert reached == ["stale allowlist line: mod.py::helper is reached"]
    gone = _problems(analysed, *allow, "mod.py::ghost  10")
    assert gone == ["stale allowlist line: mod.py::ghost is gone"]
    exempt = _problems(analysed, *allow, "mod.py::Box.stub  13")
    assert exempt == ["stale allowlist line: mod.py::Box.stub is exempt "
                      "(NotImplementedError stub)"]


def test_dunders_and_stubs_are_exempt(analysed):
    functions, _ = analysed
    exempt = {f.qualname: f.exempt for f in functions if f.exempt}
    assert exempt == {"Box.__repr__": "dunder",
                      "Box.stub": "NotImplementedError stub"}
    # __init__ is not a dunder here: an unbuilt class is unreached
    unreached = {f.qualname for f in reach.check(*analysed, []).unreached}
    assert unreached == {"unused", "kept", "Never.__init__"}


def test_decorated_methods_are_matched(analysed):
    """cProfile keys a decorated function by its first decorator's line,
    which is where the AST list places it too."""
    functions, reached = analysed
    keyed = {(f.path, f.first_line, f.name): f.qualname for f in functions}
    assert {"Box.size", "Box.cached"} <= {keyed.get(k) for k in reached}


def test_each_allowlist_line_has_one_known_reason(analysed):
    problems = _problems(analysed, "mod.py::unused  3(b) 10",
                         "mod.py::kept", "unused  13",
                         "mod.py::Never.__init__  error path",
                         "mod.py::Never.__init__  error path")
    reasons = ", ".join(reach.REASONS)
    assert problems[:4] == [
        f"allowlist line 1: reason '3(b) 10' is not one of {reasons}",
        f"allowlist line 2: reason '' is not one of {reasons}",
        "allowlist line 3: no '<path>::<qualname>'",
        "allowlist line 5: mod.py::Never.__init__ listed twice",
    ]
    # a malformed line allows nothing
    assert [p.split(" (")[0] for p in problems[4:]] == [
        "unreached, not allowlisted: mod.py::unused",
        "unreached, not allowlisted: mod.py::kept",
    ]


def test_committed_allowlist_names_live_functions():
    """Without the roots, the committed allowlist can still be checked
    for form and for functions that are gone or exempt."""
    allowed, problems = reach.parse_allowlist(
        reach.ALLOWLIST.read_text().splitlines())
    assert problems == []
    live = {f.ident for f in reach.list_functions(reach.PACKAGE)
            if f.exempt is None}
    assert sorted(set(allowed) - live) == []
