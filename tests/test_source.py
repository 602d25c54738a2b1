"""Source-level rules for the library package."""

import ast
from pathlib import Path

import cluster_twist

SOURCES = sorted(Path(cluster_twist.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_library():
    # ``python -O`` strips assert statements, so a guard written as one
    # vanishes; library checks raise an exception instead
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SOURCES
    assert not found, f"assert statements in the library: {found}"


def _compares_denominator_with_one(node):
    if not isinstance(node, ast.Compare) or not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
        return False
    operands = [node.left, *node.comparators]
    return any(isinstance(x, ast.Attribute) and x.attr == "denominator" for x in operands) and any(
        isinstance(x, ast.Constant) and x.value == 1 for x in operands
    )


def test_one_scalar_normalizer():
    # exact.norm_rational alone collapses integral Fractions to int; a copy
    # of that rule elsewhere can drift from it, e.g. store a float that the
    # matrix layer refuses
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if path.name == "exact.py" and isinstance(node, ast.FunctionDef) and node.name == "norm_rational":
                allowed = {id(x) for x in ast.walk(node)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _compares_denominator_with_one(node) and id(node) not in allowed
        ]
    assert not found, f"denominator compared with 1 outside exact.norm_rational: {found}"


def _adds_to_a_dict_lookup(node):
    # <name>.get(<key>, 0) + ...
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and isinstance(node.left, ast.Call)):
        return False
    call = node.left
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "get"
        and isinstance(call.func.value, ast.Name)
        and len(call.args) == 2
        and isinstance(call.args[1], ast.Constant)
        and call.args[1].value == 0
    )


def _stores_a_sum_into_a_looked_up_dict(func):
    # d[k] = <value containing +> in a function that also calls d.get(...)
    looked_up = {
        node.func.value.id
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and isinstance(node.func.value, ast.Name)
    }
    return [
        node
        for node in ast.walk(func)
        if isinstance(node, ast.Assign)
        and any(
            isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name) and t.value.id in looked_up
            for t in node.targets
        )
        and any(isinstance(x, ast.BinOp) and isinstance(x.op, ast.Add) for x in ast.walk(node.value))
    ]


def test_one_sparse_accumulator():
    # laurent.sum_terms alone sums coefficients by key and drops the zeros;
    # a hand-written copy can forget to drop a cancelled term or to
    # normalize a sum
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if path.name == "laurent.py" and isinstance(node, ast.FunctionDef) and node.name == "sum_terms":
                allowed = {id(x) for x in ast.walk(node)}
        flagged = [node for node in ast.walk(tree) if _adds_to_a_dict_lookup(node)]
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                flagged += _stores_a_sum_into_a_looked_up_dict(func)
        found |= {f"{path.name}:{node.lineno}" for node in flagged if id(node) not in allowed}
    assert not found, f"coefficients summed by hand outside laurent.sum_terms: {sorted(found)}"


def _callee_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _bounded_maxsize(decorator):
    # @lru_cache(maxsize=N) or @lru_cache(N) with N a positive int literal
    if not isinstance(decorator, ast.Call):
        return False
    values = [kw.value for kw in decorator.keywords if kw.arg == "maxsize"] or decorator.args[:1]
    return (
        len(values) == 1
        and isinstance(values[0], ast.Constant)
        and type(values[0].value) is int
        and values[0].value > 0
    )


def test_library_caches_are_bounded():
    # a cache that outlives a call holds at most a fixed number of entries,
    # and only on a module-level function, where the benchmark finds it and
    # clears it before every task
    found, checked = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        module_level = {id(node) for node in tree.body}
        decorators = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                name = _callee_name(dec)
                where = f"{path.name}:{dec.lineno}"
                if name == "cache":
                    found.append(f"{where} unbounded functools.cache")
                if name != "lru_cache":
                    continue
                decorators.add(id(dec.func if isinstance(dec, ast.Call) else dec))
                checked.append(where)
                if id(node) not in module_level:
                    found.append(f"{where} cache on a function that is not module-level")
                if not _bounded_maxsize(dec):
                    found.append(f"{where} lru_cache without a finite integer maxsize")
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{where} imports functools.cache" for a in node.names if a.name == "cache"]
            elif isinstance(node, ast.Attribute) and node.attr == "cache" and _callee_name(node.value) == "functools":
                found.append(f"{where} functools.cache")
            elif isinstance(node, ast.keyword) and node.arg == "maxsize":
                if isinstance(node.value, ast.Constant) and node.value.value is None:
                    found.append(f"{where} maxsize=None")
            elif _callee_name(node) == "lru_cache" and isinstance(node, (ast.Name, ast.Attribute)):
                if id(node) not in decorators:
                    found.append(f"{where} lru_cache used other than as a decorator")
    assert checked
    assert not found, f"unbounded or nested caches in the library: {found}"
