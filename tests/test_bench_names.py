"""Every cmforge name the bench depends on still exists.

bench/tracer.py binds its spans by (module, function) name, bench/record.py
reads functions off `hcp`, and the bench's own tests assert bindings of
`factorize`.  A rename or deletion in the package would otherwise show only
when a traced or recording bench run fails.  These tests only read bench/.
The tracer also reads counters off results (terms from enumerate_terms,
contributing terms from term_contribution), so the last test pins how often
the package calls those two.
"""

import ast
import importlib
from pathlib import Path

import cmforge

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def parse(name):
    return ast.parse((BENCH_DIR / name).read_text(encoding="utf-8"))


def module_constant(name, constant):
    """The literal value assigned to constant at the top level of bench/name."""
    for node in parse(name).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == constant
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/{name} assigns no {constant}")


def resolve(dotted):
    """The object a dotted cmforge name names, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for part in parts[1:]:
        obj = (getattr(obj, part) if hasattr(obj, part)
               else importlib.import_module(f"{obj.__name__}.{part}"))
    return obj


def dotted_name(node):
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def test_every_traced_function_exists():
    traced = module_constant("tracer.py", "SPANS") + module_constant("tracer.py", "COUNTED")
    assert traced
    missing = [f"{mod}.{fn}" for mod, fn in traced
               if not callable(getattr(importlib.import_module(f"cmforge.{mod}"), fn, None))]
    assert missing == []


def test_every_function_the_record_script_reads_off_hcp_exists():
    from cmforge import hcp

    read = {node.attr for node in ast.walk(parse("record.py"))
            if isinstance(node, ast.Attribute) and dotted_name(node) == f"hcp.{node.attr}"}
    assert read == {"admissible_residues", "usable_s_set", "build_pairs"}
    assert all(callable(getattr(hcp, name, None)) for name in read)


def test_every_cmforge_name_in_the_bench_resolves():
    # dotted names such as cmforge.cli.main, and from-imports out of cmforge
    names = set()
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = dotted_name(node) if isinstance(node, ast.Attribute) else None
            if name and name.startswith("cmforge."):
                names.add(name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cmforge":
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert "cmforge.cli.main" in names
    for name in sorted(names):
        resolve(name)


def test_factorize_is_one_object_at_the_bindings_the_bench_asserts():
    # bench/test_bench.py checks that the tracer replaces factorize at each of these
    import cmforge.arith
    import cmforge.cmvalue

    assert cmforge.cmvalue.factorize is cmforge.arith.factorize is cmforge.factorize


def test_the_traced_term_counters_see_one_enumeration_and_one_call_per_term(monkeypatch):
    # tracer.py adds len(result) of each enumerate_terms call to gzrhs.terms
    # and counts each nonzero term_contribution result as contributing, so
    # each evaluation enumerates once and scores each of its terms once
    import sys

    from cmforge import gzrhs
    from cmforge.crosscheck import run_crosscheck
    from cmforge.hauptmodul import Hauptmodul

    results = {"enumerate_terms": [], "term_contribution": []}

    def recording(name, original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            results[name].append((args[0], result))
            return result
        return wrapper

    modules = [module for name, module in list(sys.modules.items())
               if name == "cmforge" or name.startswith("cmforge.")]
    for name in results:
        original = getattr(gzrhs, name)
        wrapper = recording(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    for evaluate in (lambda: gzrhs.gz_log_norm(gzrhs.gz_params(2, 7, 12228)),
                     lambda: run_crosscheck(Hauptmodul(2), 7, 15)):
        for calls in results.values():
            calls.clear()
        evaluate()
        [(_, terms)] = results["enumerate_terms"]
        assert [term for term, _ in results["term_contribution"]] == terms != []
        assert any(not contribution.is_zero() for _, contribution in results["term_contribution"])
