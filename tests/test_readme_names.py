"""Every function README.md names still exists.

A backticked call form such as `factor_terms(` and every backticked
`cmforge.x.y` must name an attribute of a cmforge module or class, so the
README cannot go on describing a function that has been removed or renamed.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import cmforge
from test_bench_names import resolve

README = Path(__file__).resolve().parents[1] / "README.md"

#: Names README writes as calls that are not cmforge's, and why.
NOT_CMFORGE = {
    "ctx.workprec": "a method of an mpmath context, which the README names as such",
    "h": "the class number h(-d), written as a function of d",
}


def readme_names():
    text = README.read_text(encoding="utf-8")
    calls = re.findall(r"`([A-Za-z_][\w.]*)\(", text)
    dotted = re.findall(r"`(cmforge(?:\.\w+)+)", text)
    return set(calls) | set(dotted)


def cmforge_roots():
    """Every cmforge module, and every class defined in one."""
    modules = [cmforge] + [importlib.import_module(f"cmforge.{info.name}")
                           for info in pkgutil.iter_modules(cmforge.__path__)]
    classes = [value for module in modules for value in vars(module).values()
               if inspect.isclass(value) and value.__module__.startswith("cmforge")]
    return modules, classes


def has_chain(root, parts):
    for part in parts:
        if not hasattr(root, part):
            return False
        root = getattr(root, part)
    return True


def resolves(name, modules, classes):
    """Whether name is a cmforge attribute: a dotted path from the package,
    a path from a cmforge module or class, or a variable's attribute
    (`chi.x`) that some cmforge class defines."""
    parts = name.split(".")
    if parts[0] == "cmforge":
        try:
            resolve(name)
        except ImportError:
            return False
        return True
    return (any(has_chain(root, parts) for root in modules + classes)
            or len(parts) > 1 and any(has_chain(cls, parts[1:]) for cls in classes))


def test_every_function_the_readme_names_exists():
    names = readme_names()
    assert {"factor_terms", "diff_set", "cmforge.factorize"} <= names
    assert set(NOT_CMFORGE) <= names  # an entry no longer needed is removed
    modules, classes = cmforge_roots()
    missing = sorted(name for name in names - set(NOT_CMFORGE)
                     if not resolves(name, modules, classes))
    assert missing == []
