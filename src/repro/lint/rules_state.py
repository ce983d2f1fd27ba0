"""R005 — no mutable default arguments; shared module state takes a lock.

Two shapes of shared mutable state have bitten (or nearly bitten) this
repo's fan-out paths:

* **mutable default arguments** (``def f(x=[])``) — the default is one
  object shared by *every* call in the process, which in a warm worker
  means cross-task leakage.  Flagged unconditionally.
* **module-level mutable containers mutated without a lock** in modules
  that run threads.  The socket worker serves each connection on its own
  thread and the service API handles each request on its own thread, so
  process-wide registries (the pool registry, the task-context memo) are
  genuinely reachable concurrently.  In any module that imports
  :mod:`threading` or :mod:`concurrent.futures`, a mutation of a module-level ``dict`` /
  ``list`` / ``set`` binding (``x[k] = v``, ``x.pop(...)``,
  ``x.append(...)``, ``del x[k]``…) from inside a function is flagged
  unless it sits lexically inside a ``with`` block whose context
  expression mentions a lock (a name containing ``lock``).

The lock check is lexical containment, not escape analysis: it enforces
the *convention* (grab the module's lock around registry mutations) rather
than proving thread safety.  Modules with no threading import are assumed
single-threaded-per-process (the engine's process-pool workers) and are
not checked for the second shape.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from .core import FileContext, Finding, Rule, register_rule

RULE_ID = "R005"

_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
})

_THREAD_MODULES = ("threading", "concurrent.futures", "concurrent")


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("dict", "list", "set", "defaultdict",
                                "OrderedDict", "deque", "Counter")
    return False


# ----------------------------------------------------------------------
# Shape 1: mutable default arguments
# ----------------------------------------------------------------------
def _check_defaults(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
            if _is_mutable_literal(default):
                name = getattr(node, "name", "<lambda>")
                yield Finding(
                    rule=RULE_ID, path=ctx.path, line=default.lineno,
                    col=default.col_offset + 1,
                    message=f"mutable default argument in {name}() is one "
                            "object shared by every call in the process",
                    fixit="default to None and create the container inside "
                          "the function",
                )


# ----------------------------------------------------------------------
# Shape 2: unlocked module-level container mutation in threaded modules
# ----------------------------------------------------------------------
def _uses_threads(ctx: FileContext) -> bool:
    mods = set(ctx.module_aliases.values())
    froms = {v.rsplit(".", 1)[0] for v in ctx.from_imports.values()}
    return any(m == t or m.startswith(t + ".")
               for m in mods | froms for t in _THREAD_MODULES)


def _module_containers(ctx: FileContext) -> Set[str]:
    names: Set[str] = set()
    for node in ctx.tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not _is_mutable_literal(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _root_name(node: ast.expr):
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _mentions_lock(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "lock" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "lock" in sub.attr.lower():
            return True
    return False


def _check_module_state(ctx: FileContext) -> Iterator[Finding]:
    if not _uses_threads(ctx):
        return
    containers = _module_containers(ctx)
    if not containers:
        return
    for func in ast.walk(ctx.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield from _scan_function(ctx, func, containers, locked=False)


def _scan_function(ctx: FileContext, node: ast.AST, containers: Set[str],
                   locked: bool) -> Iterator[Finding]:
    for child in ast.iter_child_nodes(node):
        child_locked = locked
        if isinstance(child, (ast.With, ast.AsyncWith)):
            if any(_mentions_lock(item.context_expr) for item in child.items):
                child_locked = True
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function: rescans with its own (inherited) lock state.
            yield from _scan_function(ctx, child, containers, locked)
            continue
        if not child_locked:
            yield from _check_mutation(ctx, child, containers)
        yield from _scan_function(ctx, child, containers, child_locked)


def _check_mutation(ctx: FileContext, node: ast.AST,
                    containers: Set[str]) -> Iterator[Finding]:
    # Walk only this statement's *expression* parts — nested statements (If
    # bodies, With bodies…) are visited by _scan_function with their own
    # lock state.
    exprs = [child for child in ast.iter_child_nodes(node)
             if isinstance(child, ast.expr)]
    for expr in exprs:
        for sub in ast.walk(expr):
            name = None
            if isinstance(sub, ast.Subscript) \
                    and isinstance(sub.ctx, (ast.Store, ast.Del)) \
                    and _root_name(sub) in containers:
                name = _root_name(sub)
            elif isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Attribute) \
                    and sub.func.attr in _MUTATING_METHODS \
                    and isinstance(sub.func.value, ast.Name) \
                    and sub.func.value.id in containers:
                name = sub.func.value.id
            if name is not None:
                yield Finding(
                    rule=RULE_ID, path=ctx.path, line=sub.lineno,
                    col=sub.col_offset + 1,
                    message=f"module-level container {name!r} mutated "
                            "without a lock in a module that runs threads",
                    fixit="guard the mutation with the module's "
                          "threading.Lock() (`with _X_LOCK:`), or move the "
                          "state into an object owned by one thread",
                )


def _check(ctx: FileContext) -> Iterator[Finding]:
    yield from _check_defaults(ctx)
    yield from _check_module_state(ctx)


register_rule(Rule(
    rule_id=RULE_ID,
    title="no mutable defaults; shared module state takes a lock",
    check=_check,
))
