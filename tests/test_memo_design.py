"""A design guard read from the source, as ``test_reachability`` is: a
function that returns a series exact below its ``order`` is cached only by
``series.memo``, whose entry serves every order up to its own, never by a
``functools`` cache, which hits only at an identical order and is kept for
the functions that take no order."""

import ast
from pathlib import Path

import overrank

NO_ORDER_CACHES = {"P", "_period", "_period_numerator", "rank_table"}


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _functools_cached():
    """name -> whether it takes ``order``, for each function of the package
    under ``lru_cache`` or ``cache``."""
    out = {}
    for path in Path(overrank.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    _decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list):
                args = node.args
                out[node.name] = "order" in {a.arg for a in
                                             args.posonlyargs + args.args + args.kwonlyargs}
    return out


def test_no_function_that_takes_an_order_has_an_lru_cache():
    cached = _functools_cached()
    assert sorted(name for name, takes_order in cached.items() if takes_order) == []
    assert set(cached) == NO_ORDER_CACHES
