"""Module boundaries: no cmforge module imports another module's private names,
and the package namespace holds only what callers import."""

import ast
from pathlib import Path

import cmforge
from cmforge.ball import Ball

PACKAGE_DIR = Path(cmforge.__file__).parent


def private_imports(path):
    """(module, name) for every _private name the file imports from another module."""
    own = path.stem
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("cmforge"):
            continue
        source = (node.module or "").rsplit(".", 1)[-1]
        for alias in node.names:
            if alias.name.startswith("_") and source != own:
                found.append((node.module, alias.name))
    return found


def test_no_private_imports_across_modules():
    offenders = {
        path.name: found
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (found := private_imports(path))
    }
    assert offenders == {}


def imported_modules(path):
    """Top-level names of every module the file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add((node.module or "").split(".")[0])
    return found


def test_no_assert_statements():
    # python -O strips every assert, so no check the package relies on, and
    # no claim about its own arithmetic, is written as one
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(PACKAGE_DIR.rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Assert)]
    assert offenders == []


def test_exact_arithmetic_modules_work_on_integers():
    # valuations, local symbols, ideal counts and the prime-log sums of the
    # norm take integers; no rationals
    for name in ("arith.py", "cmvalue.py", "gzrhs.py"):
        assert "fractions" not in imported_modules(PACKAGE_DIR / name), name


def test_runtime_does_not_import_test_dependencies():
    # sympy and hypothesis serve only as test oracles
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        assert not {"sympy", "hypothesis"} & imported_modules(path), path.name


def test_closed_form_primes_live_only_in_hauptmodul():
    # the choice between a closed form and a coefficient file is made once,
    # when a Hauptmodul is built
    users = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
             if "ETA_QUOTIENT_PRIMES" in path.read_text(encoding="utf-8")]
    assert users == ["hauptmodul.py"]


def test_no_function_takes_both_a_precision_and_a_context():
    # a Hauptmodul carries the precision and owns its context; two parameters
    # for one precision could disagree
    offenders = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and {"prec", "ctx"} <= {a.arg for a in node.args.args + node.args.kwonlyargs}
    ]
    assert offenders == []


def test_package_namespace_holds_only_what_callers_import():
    # factorize: the bench checks cmforge.factorize; eta_quotient_qseries: the
    # README documents it as the coefficient-file generator
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    names = sorted(alias.name for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names)
    assert names == ["eta_quotient_qseries", "factorize"]


CACHE_DECORATORS = {"cache", "lru_cache"}
MUTABLE_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict",
                 "Counter", "deque", "WeakValueDictionary", "WeakKeyDictionary"}
MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def called_name(node):
    """The last name of a Name or Attribute, of a Call's callee; else None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def shared_bindings(body, where):
    """Module- and class-level names bound to a mutable container: shared by
    every caller in the process.  Function bodies are not scanned."""
    found = []
    for node in body:
        if isinstance(node, ast.ClassDef):
            found += shared_bindings(node.body, f"{where}.{node.name}")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if isinstance(value, MUTABLE_DISPLAYS) or (
                    isinstance(value, ast.Call) and called_name(value) in MUTABLE_CALLS):
                found.append(f"{where}:{ast.unparse(node)}")
    return found


def test_process_wide_state_is_only_the_parser_and_the_contexts():
    # results are not cached: a result cache would hide the cost of repeated
    # work (and the bench pools repeat inputs, so it would measure reuse).
    # The only state a process keeps is set-up that gives the same result on
    # every call: the CLI's parser and one mpmath context per precision.
    cached, cache_uses, globals_, shared = set(), 0, set(), []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        shared += shared_bindings(tree.body, path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                globals_.update((path.name, name) for name in node.names)
            elif isinstance(node, (ast.Name, ast.Attribute)) and called_name(node) in CACHE_DECORATORS:
                cache_uses += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if any(called_name(d) in CACHE_DECORATORS for d in node.decorator_list):
                    cached.add((path.name, node.name))
    assert cached == {("hauptmodul.py", "working_context")}
    assert cache_uses == len(cached)  # no cache applied other than as a decorator
    assert globals_ == {("cli.py", "_parser")}
    assert shared == []


def test_one_eta_kernel_and_one_complex_product():
    # every eta value comes from one pentagonal loop, and every fixed-point
    # complex product from one function: the loop is the only one in the
    # package that calls fixed_mul, ball.fixed_mul the only function that
    # right-shifts a product, and both evaluators reach that loop
    shifted_products, kernel_loops, calls = set(), set(), {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{path.name}:{function.name}"
            calls[where] = {called_name(node) for node in ast.walk(function)
                            if isinstance(node, ast.Call)}
            for node in ast.walk(function):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.RShift) and any(
                        isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.Mult)
                        for inner in ast.walk(node.left)):
                    shifted_products.add(where)
                if isinstance(node, (ast.For, ast.While)) and any(
                        called_name(inner) == "fixed_mul"
                        for inner in ast.walk(node) if isinstance(inner, ast.Call)):
                    kernel_loops.add(where)
    assert shifted_products == {"ball.py:fixed_mul"}
    assert kernel_loops == {"hauptmodul.py:_pentagonal_sum"}

    def reaches(start, target):
        seen, todo = set(), [start]
        while todo:
            name = todo.pop()
            if name == target:
                return True
            if name not in seen:
                seen.add(name)
                todo += [f"hauptmodul.py:{callee}" for callee in calls.get(name, ())]
        return False

    for evaluator in ("eta_with_bound", "value_with_bound"):
        assert reaches(f"hauptmodul.py:{evaluator}", "hauptmodul.py:_pentagonal_sum"), evaluator


def test_one_eta_kernel_at_reduced_points():
    # eta^e is summed only by _eta_power, which every CM value, every
    # numeric point and eta itself (e = 1) reach: no second series runs at
    # p tau, and no power q^p is formed
    tree = ast.parse((PACKAGE_DIR / "hauptmodul.py").read_text(encoding="utf-8"))
    callers, exponents = set(), set()
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and called_name(node) == "_pentagonal_sum":
                callers.add(function.name)
            if isinstance(node, ast.Call) and called_name(node) in ("power", "pow"):
                # ball.power(x, n, mul) and Ball.pow(n, bits)
                exponents.add(ast.unparse(node.args[called_name(node) == "power"]))
    assert callers == {"_eta_power"}
    assert "p" not in exponents and exponents == {"m", "e", "k"}


def test_one_sl2z_reduction_of_forms():
    # a form's flip (a, b, c) -> (Nc, -b, a/N) is written once, at level N,
    # in quadforms.reduction_word, which the Heegner search, the eta kernel
    # (N = 1) and reduce_point (N = p) all use
    flips = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                flips += [f"{path.stem}.{function.name}: {ast.unparse(node.value)}"
                          for node in ast.walk(function)
                          if isinstance(node, ast.Assign)
                          and ast.unparse(node.targets[0]) == "(a, b, c)"
                          and isinstance(node.value, ast.Tuple) and len(node.value.elts) == 3
                          and ast.unparse(node.value.elts[1]) == "-b"]
    assert flips == ["quadforms.reduction_word: (level * c, -b, a // level)"]


def test_numeric_bounds_take_no_floats():
    # every bound of a CM value is a Ball radius held in integers: no
    # working-precision epsilon, no float sums and no Ball made from an mpc
    for name in ("hauptmodul.py", "ball.py"):
        text = (PACKAGE_DIR / name).read_text(encoding="utf-8")
        for word in ("ctx.eps", "math.fsum", "ldexp", "_log2_above"):
            assert word not in text, (name, word)
    assert not hasattr(Ball, "from_mpc")


def message_template(node):
    """The message a Raise node passes to its exception, with each formatted
    value replaced by {}; None when it passes no literal message."""
    exc = node.exc
    if not (isinstance(exc, ast.Call) and exc.args):
        return None
    message = exc.args[0]
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value
    if isinstance(message, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in message.values)
    return None


def refusal_sites():
    """template -> ["module:owner"] for every raise with a literal message,
    the owner being the dotted path of its enclosing classes and functions."""
    sites = {}

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{owner}.{child.name}" if owner else child.name
            if isinstance(child, ast.Raise) and (template := message_template(child)):
                sites.setdefault(template, []).append(f"{path.stem}:{owner}")
            visit(child, path, inner)

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    return sites


def test_one_refusal_per_input_rule():
    # each input rule is decided once, where its concept lives: a form is
    # positive definite by construction, one function refuses a composite p,
    # hauptmodul owns the genus-zero domain of j*_p, and quadforms decides
    # admissibility; no message is raised at two sites
    sites = refusal_sites()
    assert {template: where for template, where in sites.items() if len(where) > 1} == {}
    assert {template: sites[template] for template in (
        "{} is not prime", "form {} is not positive definite",
        "p={}: the Fricke curve is not genus zero", "cannot factor non-positive integer {}",
        "{} is not a fundamental discriminant", "{} is not a square mod {}",
    )} == {
        "{} is not prime": ["arith:require_prime"],
        "form {} is not positive definite": ["quadforms:QuadraticForm.__post_init__"],
        "p={}: the Fricke curve is not genus zero": ["hauptmodul:require_genus_zero"],
        "cannot factor non-positive integer {}": ["arith:_check_factorable"],
        "{} is not a fundamental discriminant": ["quadforms:fundamental"],
        "{} is not a square mod {}": ["quadforms:smallest_residue"],
    }
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert [name for name, text in sources.items()
            if "GENUS_ZERO_FRICKE_PRIMES" in text] == ["hauptmodul.py"]
    assert [name for name, text in sources.items() if "is_positive_definite" in text] == []
    # GZParams is built only by its constructor
    tree = ast.parse(sources["gzrhs.py"])
    params = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name == "GZParams")
    assert not [item.name for item in params.body if isinstance(item, ast.FunctionDef)
                and "classmethod" in map(ast.unparse, item.decorator_list)]


def test_the_field_of_D_is_one_value():
    # QuadraticCharacter carries D, its factorization and its symbols, so no
    # function takes the factorization of D beside it and GZParams keeps no
    # factorization of d or D of its own: it holds chi and reads D off it
    offenders = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and {"D_factors", "chi"} <= {a.arg for a in node.args.args + node.args.kwonlyargs}
    ]
    assert offenders == []
    tree = ast.parse((PACKAGE_DIR / "gzrhs.py").read_text(encoding="utf-8"))
    params = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name == "GZParams")
    fields = {item.target.id for item in params.body if isinstance(item, ast.AnnAssign)}
    assert {"p", "d", "chi"} <= fields
    assert not {"D", "p_factors", "d_factors", "D_factors"} & fields


def functions_calling(name):
    """'file:function' for each function of the package whose body calls name,
    as a bare name or an attribute; 'file:<module>' for a call outside any."""
    found = set()

    def visit(node, path, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, f"{path.name}:{child.name}")
            else:
                if isinstance(child, ast.Call) and called_name(child) == name:
                    found.add(where)
                visit(child, path, where)

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.name}:<module>")
    return found


def test_only_the_proving_builders_skip_the_factorization_checks():
    # Factorization is a record that checks nothing, so only the functions
    # that prove its primes build one: factorize proves each prime as it
    # finds it, and factor_over proves its primes from its caller's promise
    # that the list it divides by holds every prime that can divide n; the
    # one caller, term_contribution, keeps it by the congruence of the
    # lattice (admitted_primes).  A prime p is an int, proven by
    # require_prime or the genus-zero check.
    assert functions_calling("Factorization") == {"arith.py:factorize",
                                                  "arith.py:factor_over"}
    assert functions_calling("factor_over") == {"gzrhs.py:term_contribution"}


def test_params_are_built_by_their_parser_and_the_pipeline():
    # gz_params is the one parser of integers; the class polynomial pipeline
    # builds its records from the facts it holds.  The record holds exactly
    # the tuple, with no constructor-only arguments.
    assert functions_calling("GZParams") == {"gzrhs.py:gz_params", "hcp.py:_magnitude_pairs"}
    tree = ast.parse((PACKAGE_DIR / "gzrhs.py").read_text(encoding="utf-8"))
    params = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name == "GZParams")
    assert [ast.unparse(item) for item in params.body if isinstance(item, ast.AnnAssign)] == [
        "p: int", "d: int", "chi: QuadraticCharacter", "mu: int", "beta: int"]
