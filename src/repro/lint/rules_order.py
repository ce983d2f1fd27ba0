"""R004 — no iteration over unordered collections without ``sorted()``.

Results, wire frames, cache records and JSON payloads must not depend on
iteration order that Python does not guarantee.  Two families of producer
have *no* deterministic order:

* **sets** — iteration order depends on insertion history *and* on the
  per-process string-hash salt (``PYTHONHASHSEED``), so two identical runs
  can emit differently-ordered output;
* **directory listings** — ``Path.iterdir`` / ``Path.glob`` /
  ``os.listdir`` / ``os.scandir`` yield filesystem order, which varies by
  OS, filesystem and file history.

The rule flags such an expression used directly as the iterable of a
``for`` loop or comprehension, or materialised via ``list()`` / ``tuple()``
/ ``enumerate()`` / ``str.join()``, unless it is wrapped in ``sorted()``
(or ``min``/``max``/``sum``/``len``/``any``/``all``/``set``/``frozenset``,
whose results are order-free).

The rule also flags a bare ``.pop()`` that takes an arbitrary element of
a set: called on a set expression directly (``set(xs).pop()``), or on a
name that the same function (or module body) binds to one
(``remaining = set(sites)`` ... ``remaining.pop()``).  Which element a set
pops depends on its insertion history and table resizes.  ``list.pop()``,
``dict.pop(key)`` and pops on names bound to anything else are not flagged.

Iteration is checked lexically: a set stored in a variable and iterated
three lines later is invisible to the rule.  It still catches the pattern
as it is actually written in practice — ``for x in set(...)`` and ``for p in
root.iterdir()`` — and the repo's own convention (``tuple(sorted(...))``
at every producer) keeps the indirect case rare.  Iterating a ``dict``
(insertion-ordered since 3.7) is deliberately *not* flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from .core import FileContext, Finding, Rule, register_rule

RULE_ID = "R004"

#: Call names producing unordered iterables.
_UNORDERED_CALLS = frozenset({"set", "frozenset"})
_UNORDERED_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
    "iterdir", "glob", "rglob",
})
_UNORDERED_DOTTED = frozenset({"os.listdir", "os.scandir"})

#: Consumers whose result does not depend on iteration order.
_ORDER_FREE_CONSUMERS = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
})


def _unordered_reason(ctx: FileContext, node: ast.expr) -> Optional[str]:
    """Why ``node`` iterates in no guaranteed order, or ``None``."""
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr,
                                                            ast.BitAnd,
                                                            ast.BitXor,
                                                            ast.Sub)):
        # a | b etc. is only unordered when the operands are sets; flag only
        # when one side is itself lexically a set expression.
        if _unordered_reason(ctx, node.left) or _unordered_reason(ctx, node.right):
            return "set expression"
        return None
    if isinstance(node, ast.Call):
        dotted = ctx.dotted_name(node.func)
        if dotted in _UNORDERED_DOTTED:
            return f"{dotted}() (filesystem order)"
        if isinstance(node.func, ast.Name) and node.func.id in _UNORDERED_CALLS:
            return f"{node.func.id}()"
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _UNORDERED_METHODS:
            kind = ("filesystem order"
                    if node.func.attr in ("iterdir", "glob", "rglob")
                    else "set method")
            return f".{node.func.attr}() ({kind})"
    return None


def _set_reason(ctx: FileContext, node: ast.expr) -> Optional[str]:
    """Like :func:`_unordered_reason`, restricted to set-valued expressions."""
    reason = _unordered_reason(ctx, node)
    if reason is None or "filesystem order" in reason:
        return None
    return reason


def _finding(ctx: FileContext, node: ast.expr, reason: str) -> Finding:
    return Finding(
        rule=RULE_ID, path=ctx.path, line=node.lineno,
        col=node.col_offset + 1,
        message=f"iterating {reason} has no guaranteed order; downstream "
                "results/records may differ between runs",
        fixit="wrap the iterable in sorted(...) with a deterministic key",
    )


def _check(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            reason = _unordered_reason(ctx, node.iter)
            if reason:
                yield _finding(ctx, node.iter, reason)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp,
                               ast.SetComp)):
            order_free = isinstance(node, ast.SetComp)
            for gen in node.generators:
                reason = _unordered_reason(ctx, gen.iter)
                if reason and not order_free:
                    yield _finding(ctx, gen.iter, reason)
        elif isinstance(node, ast.Call):
            yield from _check_consumer(ctx, node)
    for scope in _scopes(ctx.tree):
        yield from _check_set_pops(ctx, scope)


def _scopes(tree: ast.Module) -> Iterator[ast.AST]:
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes of one function or module body, without nested scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _check_set_pops(ctx: FileContext, scope: ast.AST) -> Iterator[Finding]:
    nodes = list(_scope_nodes(scope))
    set_names: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value:
            targets, value = [node.target], node.value
        else:
            continue
        reason = _set_reason(ctx, value)
        if reason:
            for target in targets:
                if isinstance(target, ast.Name):
                    set_names[target.id] = reason
    for node in nodes:
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and not node.args and not node.keywords):
            continue
        owner = node.func.value
        reason = _set_reason(ctx, owner)
        if reason is None and isinstance(owner, ast.Name):
            reason = set_names.get(owner.id)
        if reason:
            yield Finding(
                rule=RULE_ID, path=ctx.path, line=node.lineno,
                col=node.col_offset + 1,
                message=f"popping from a {reason} takes an arbitrary "
                        "element: which one depends on the set's insertion "
                        "history and table resizes",
                fixit="pop from a sorted list or take min(...); if the "
                      "set-pop order is itself pinned output, say so in a "
                      "justified pragma",
            )


def _check_consumer(ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
    # list(set(...)), tuple(x.iterdir()), enumerate(set(...)), sep.join(set())
    name: Optional[str] = None
    if isinstance(node.func, ast.Name):
        name = node.func.id
    elif isinstance(node.func, ast.Attribute) and node.func.attr == "join":
        name = "join"
    if name is None:
        return
    if name in _ORDER_FREE_CONSUMERS:
        return
    if name not in ("list", "tuple", "enumerate", "iter", "join"):
        return
    for arg in node.args[:1]:
        reason = _unordered_reason(ctx, arg)
        if reason:
            yield _finding(ctx, arg, reason)


register_rule(Rule(
    rule_id=RULE_ID,
    title="no order-dependent use of unordered iterables",
    check=_check,
))
