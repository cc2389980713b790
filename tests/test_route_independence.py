"""The cross-check routes share only the helpers allowed here, read off the
package's syntax tree.

Each route of ``skew_count.routes()`` and ``containment.routes()`` reaches
the package functions and classes it names, and those they name in turn:
bare names resolve to the module's own top-level definitions or, through
``from .x import y`` (and ``from . import x`` with ``x.y``), to another
module's.  Two routes of one registry may reach a common definition only
if it is listed below with the reason it does not couple their counts.
"""

import ast
from itertools import combinations
from pathlib import Path

import pytest

import skewtab
from skewtab import containment, skew_count

PACKAGE = Path(skewtab.__file__).resolve().parent

CHECKED_DIVISION = "one checked division at the end; it checks a count, it computes none"
DOMAIN = "argument checks that refuse input before any counting"

ALLOWED = {
    ("skew", "det", "char"): {
        "exact_div": CHECKED_DIVISION,
        "IntegralityError": CHECKED_DIVISION,
    },
    ("contain", "direct", "expansion"): {
        "partitions_of": "direct sums over the shapes of n, expansion lists the classes of each j",
        "conjugate": "direct picks a determinant's orientation, the characters a stripping order",
        "validate_partition": DOMAIN,
        "DomainError": DOMAIN,
        "exact_div": CHECKED_DIVISION,
        "IntegralityError": CHECKED_DIVISION,
    },
    ("contain", "direct", "binomial"): {
        "contains": "direct filters the shapes of n, the walk checks its floor",
        "validate_partition": DOMAIN,
        "DomainError": DOMAIN,
    },
    ("contain", "expansion", "binomial"): {
        "involutions": "a known gap: both are linear in t_n, so a wrong t table moves both alike",
        "validate_partition": DOMAIN,
        "DomainError": DOMAIN,
    },
}


def _index():
    """Per module: its top-level definitions and its relative imports."""
    modules = {}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        defs, imports = {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (node.module, alias.name) if node.module else (alias.name, None)
                    imports[alias.asname or alias.name] = target
        modules[path.stem] = (defs, imports)
    return modules


MODULES = _index()


def _resolve(module, name):
    """The (module, definition) a name in ``module`` refers to, or the
    ``(module, None)`` of an imported package module, or None."""
    defs, imports = MODULES[module]
    if name in defs:
        return module, name
    if name in imports:
        source, attr = imports[name]
        return _resolve(source, attr) if attr else (source, None)
    return None


def reach(module, name):
    """Every package definition reachable by name from ``module.name``."""
    seen, todo = set(), [(module, name)]
    while todo:
        module, name = todo.pop()
        if (module, name) in seen:
            continue
        seen.add((module, name))
        for node in ast.walk(MODULES[module][0][name]):
            found = None
            if isinstance(node, ast.Name):
                found = _resolve(module, node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner = _resolve(module, node.value.id)
                if owner and owner[1] is None:
                    found = _resolve(owner[0], node.attr)
            if found and found[1] is not None:
                todo.append(found)
    return seen


def _route_reach(registry):
    return {
        name: {definition for _, definition in reach(fn.__module__.rsplit(".", 1)[1], fn.__name__)}
        for name, fn in registry.routes().items()
    }


REACH = {"skew": _route_reach(skew_count), "contain": _route_reach(containment)}


def test_every_route_reaches_the_helpers_it_calls():
    assert {"skew_syt_det", "integer_det", "exact_div"} <= REACH["skew"]["det"]
    assert {"path_totals", "_beads", "contains"} <= REACH["skew"]["brute"]
    assert {"character_column", "partitions_of"} <= REACH["skew"]["char"]
    assert {"skew_syt_det", "integer_det"} <= REACH["contain"]["direct"]
    assert {"_expansion_row", "character_column", "involutions"} <= REACH["contain"]["expansion"]
    assert {"path_totals", "involutions"} <= REACH["contain"]["binomial"]


def test_allow_list_names_only_pairs_of_real_routes():
    for registry, first, second in ALLOWED:
        assert {first, second} <= set(REACH[registry]), (registry, first, second)


@pytest.mark.parametrize(
    "registry, first, second",
    [
        (registry, first, second)
        for registry, routes in sorted(REACH.items())
        for first, second in combinations(routes, 2)
    ],
)
def test_routes_share_only_allowed_helpers(registry, first, second):
    shared = REACH[registry][first] & REACH[registry][second]
    allowed = ALLOWED.get((registry, first, second), {})
    assert shared <= set(allowed), sorted(shared - set(allowed))
