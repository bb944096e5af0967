"""The public names of the package agree with what its modules define."""

import ast
import importlib
import pkgutil
from pathlib import Path

import homcx


def test_exports_resolve_and_the_package_imports_only_exports():
    """Every name in a module's __all__ exists, and every name the package
    imports from a module is in that module's __all__, so a deletion
    cannot leave a stale export behind."""
    for info in pkgutil.iter_modules(homcx.__path__):
        module = importlib.import_module(f"homcx.{info.name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (info.name, missing)
    tree = ast.parse(Path(homcx.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"homcx.{node.module}").__all__
            unlisted = [a.name for a in node.names if a.name not in exported]
            assert not unlisted, (node.module, unlisted)


# the one home of the bit walk, and the collapse engine's hot loop,
# kept inline because the call costs a measurable share of a pass
BIT_WALKS = {
    "simplicial.bits_of",
    "collapse._collapse_free_pairs",
}


def _walks_bits(loop):
    """Whether a ``while`` loop strips bits off a mask: it takes a lowest
    bit, ``x & -x``, or clears ``x ^= 1 << i`` and calls ``bit_length``."""
    nodes = list(ast.walk(loop))
    lowest = any(
        isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.BitAnd)
        and any(
            isinstance(neg, ast.UnaryOp)
            and isinstance(neg.op, ast.USub)
            and ast.dump(neg.operand) == ast.dump(x)
            for x, neg in ((n.left, n.right), (n.right, n.left))
        )
        for n in nodes
    )
    cleared = any(
        isinstance(n, ast.AugAssign)
        and isinstance(n.op, ast.BitXor)
        and isinstance(n.value, ast.BinOp)
        and isinstance(n.value.op, ast.LShift)
        for n in nodes
    ) and any(isinstance(n, ast.Attribute) and n.attr == "bit_length" for n in nodes)
    return lowest or cleared


def _functions_with(node, name, found):
    """The dotted names of the functions under ``node`` holding a node for
    which ``found`` holds; a nested function is named apart."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _functions_with(child, f"{name}.{child.name}", found)
            continue
        if found(child):
            yield name
        yield from _functions_with(child, name, found)


def _package_functions_with(found):
    """The dotted names, module first, of the functions under homcx
    holding a node for which ``found`` holds."""
    names = []
    for path in sorted(Path(homcx.__file__).parent.glob("*.py")):
        names += _functions_with(ast.parse(path.read_text()), path.stem, found)
    return set(names)


def test_bit_walks_live_in_one_place():
    """Walking the set bits of a mask is :func:`homcx.simplicial.bits_of`;
    no other loop in the package strips bits off a mask by hand, apart
    from the named collapse loops."""
    walks = _package_functions_with(lambda n: isinstance(n, ast.While) and _walks_bits(n))
    assert sorted(walks - BIT_WALKS) == []
    assert BIT_WALKS <= walks, "a listed exception no longer walks bits"


def _updates_a_count(node):
    """Whether ``node`` is the collapse engine's count update
    ``(st - one) ^ b``: an XOR whose left operand is a subtraction."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitXor)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Sub)
    )


def test_collapse_step_rule_lives_in_the_engine():
    """A collapse state is updated only by the engine: every stage of the
    filtration verifier is one engine run, its forced pair included, so
    no other code applies the step rule by hand."""
    assert _package_functions_with(_updates_a_count) == {"collapse._collapse_free_pairs"}


# the one cached module-level function: the parser takes no input
CACHED_FUNCTIONS = {"cli.build_parser"}
CACHES = {"cache", "lru_cache"}


def _cache_name(node):
    """``cache`` or ``lru_cache`` when ``node`` names one (bare, as an
    attribute such as ``functools.cache``, or called with arguments)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr if node.attr in CACHES else None
    if isinstance(node, ast.Name):
        return node.id if node.id in CACHES else None
    return None


def test_no_module_level_function_caches_across_calls():
    """State that outlives one call hangs off an input object (a
    ``Graph``, a ``Cover``), so it lives exactly as long as that object;
    no module-level function under homcx is wrapped in ``functools.cache``
    or ``lru_cache``, whose store would outlive every input, apart from
    the input-free parser builder."""
    cached = []
    for path in sorted(Path(homcx.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_cache_name(d) for d in node.decorator_list):
                    cached.append(f"{path.stem}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if isinstance(node.value, ast.Call) and _cache_name(node.value.func):
                    cached.append(f"{path.stem}.{ast.unparse(node.value)}")
    assert sorted(set(cached) - CACHED_FUNCTIONS) == []
    assert CACHED_FUNCTIONS <= set(cached), "a listed exception is no longer cached"
