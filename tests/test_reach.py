"""Every callable the package exports is reached by a run of its suites.

``wedgeqft all`` runs on three catalogue models under a profiler that
records each code object called.  An exported function counts as reached
when its code ran, a class when any of its methods ran.  The names no run
reaches yet are listed in ``PENDING``; a name that leaves that list must
be reported by a suite or leave the package.

Each input a function receives from its caller has one owner, so no
function may default it: the model's mass is ``S.mass``, the trace norm a
bound uses is the one its suite reports next to it, and ||S2||_kappa is
the memoized ``strip_sup_norm``.
"""

import ast
import inspect
import pathlib
import sys

import wedgeqft
from test_config_cli import SCHEMA_OVERRIDES
from wedgeqft.cli import run_suites
from wedgeqft.config import load_config
from wedgeqft.suites import suites_for_all

# exported, but reported by no suite: the 1-D and Gaussian test
# functions and the time-zero field, which only tests build
PENDING = {"Bump1D", "Gaussian1D", "Gaussian2D", "timezero_field"}


def exported_callables():
    for name, obj in vars(wedgeqft).items():
        if name.startswith("_") or not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        yield name, obj


def code_objects(obj):
    """The code objects that running ``obj`` (or any method of it) enters."""
    if isinstance(obj, type):
        members = []
        for attr in vars(obj).values():
            if isinstance(attr, (staticmethod, classmethod)):
                attr = attr.__func__
            if isinstance(attr, property):
                members.extend(f for f in (attr.fget, attr.fset) if f)
            else:
                members.append(attr)
        return {c for m in members for c in code_objects(m)}
    code = getattr(inspect.unwrap(obj), "__code__", None)
    return {code} if code is not None else set()


def test_every_export_is_reached_by_a_run():
    exports = dict(exported_callables())
    for obj in exports.values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()    # a cache hit would skip the code
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name in ("free", "ising", "shg-b050"):
            cfg = load_config(f"catalogue:{name}", overrides=SCHEMA_OVERRIDES)
            # only the calls count: under these small settings a suite
            # may fail its tolerances
            run_suites(cfg, suites_for_all(cfg), 0)
    finally:
        sys.setprofile(outer)
    unreached = {name for name, obj in exports.items()
                 if not code_objects(obj) & called}
    assert unreached == PENDING


# inputs with one owner each (see the module docstring)
OWNED_INPUTS = {"mass", "trace_norm", "sup_norm"}


def defaulted_parameters(node):
    """The parameters of a def or lambda that carry a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return {a.arg for a in named}


def test_no_function_defaults_an_owned_input():
    package = pathlib.Path(wedgeqft.__file__).parent
    taken, defaulting = set(), []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            taken |= {a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs)}
            defaulting += [f"{path.name}:{node.lineno} {name}" for name
                           in sorted(defaulted_parameters(node) & OWNED_INPUTS)]
    # the functions that take the model's mass and a trace norm are seen
    assert taken >= {"mass", "trace_norm"}
    assert defaulting == []
