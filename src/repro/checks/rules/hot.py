"""HOT: allocation/lookup discipline inside designated hot paths.

The kernel dispatch loop and the event queue run once per event --
millions of times per experiment -- and earlier perf work (PR 1/2)
got its wins precisely by keeping those bodies free of allocation and
repeated attribute traversal.  These rules keep that property from
eroding: a function opts in with a ``# repro: hot`` anchor comment
(on or directly above its ``def``) or a ``@hot_path`` decorator, and
the rules then reject the constructs that reintroduce per-event cost.

Only anchored functions are checked; cold paths (stats, audits,
reporting) stay free to use idiomatic Python.
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Iterable, Iterator, List

from repro.checks.engine import FunctionInfo, ModuleContext, Rule, rule
from repro.checks.findings import Finding

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _body_nodes(fn: FunctionInfo) -> Iterator[ast.AST]:
    """Nodes of the function body, not descending into nested defs.

    A nested function is itself reported (HOT002); its body is that
    function's business, not the enclosing hot path's.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn.node))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _attr_chain(node: ast.AST) -> str:
    """Dotted chain for ``Name.attr[.attr...]`` of depth >= 2, else ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and len(parts) >= 2:
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


@rule
class NoComprehensionRule(Rule):
    """Comprehensions allocate a fresh container/generator per entry."""

    id = "HOT001"
    family = "HOT"
    description = "comprehension inside a hot-path function"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for fn in ctx.functions_with("hot"):
            for node in _body_nodes(fn):
                if isinstance(node, _COMPREHENSIONS):
                    yield self.finding(
                        ctx,
                        node,
                        f"comprehension in hot path {fn.qualname}(); "
                        "hoist the allocation or write an explicit loop",
                    )


@rule
class NoClosureRule(Rule):
    """Nested defs/lambdas allocate a function object per call."""

    id = "HOT002"
    family = "HOT"
    description = "closure/lambda defined inside a hot-path function"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for fn in ctx.functions_with("hot"):
            for node in _body_nodes(fn):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    yield self.finding(
                        ctx,
                        node,
                        f"closure defined in hot path {fn.qualname}(); "
                        "bind it once at construction instead",
                    )


@rule
class NoKwargsFanoutRule(Rule):
    """``f(**kwargs)`` builds and unpacks a dict on every call."""

    id = "HOT003"
    family = "HOT"
    description = "** argument fan-out inside a hot-path function"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for fn in ctx.functions_with("hot"):
            for node in _body_nodes(fn):
                if isinstance(node, ast.Call) and any(
                    kw.arg is None for kw in node.keywords
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"**kwargs fan-out in hot path {fn.qualname}(); "
                        "pass explicit arguments",
                    )


@rule
class AttrRelookupRule(Rule):
    """The same multi-step attribute chain re-resolved inside a loop.

    ``self._queue.pop`` walked twice per iteration is two dict
    lookups per event that a pre-bound local does once per run --
    exactly the pattern PR 1 removed from ``Simulator.run``.
    """

    id = "HOT004"
    family = "HOT"
    description = "repeated attribute chain lookup in a hot-path loop"

    def _maximal_chains(self, loop: ast.AST):
        """Yield (chain, node) for maximal depth>=2 chains in ``loop``.

        Maximal: ``a.b.c`` inside ``a.b.c.d`` is not counted again,
        and nested defs are skipped (they are HOT002's business).
        """
        stack: List[ast.AST] = [loop]
        while stack:
            node = stack.pop()
            chain = _attr_chain(node)
            if chain:
                yield chain, node
                continue  # don't re-count the chain's own prefixes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)) and node is not loop:
                continue
            stack.extend(ast.iter_child_nodes(node))

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for fn in ctx.functions_with("hot"):
            reported = set()
            for node in _body_nodes(fn):
                if not isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                    continue
                chains: Counter = Counter()
                anchors = {}
                for chain, sub in self._maximal_chains(node):
                    chains[chain] += 1
                    anchors.setdefault(chain, sub)
                for chain, count in sorted(chains.items()):
                    anchor = anchors[chain]
                    key = (anchor.lineno, anchor.col_offset, chain)
                    if count >= 2 and key not in reported:
                        reported.add(key)
                        yield self.finding(
                            ctx,
                            anchor,
                            f"attribute chain {chain!r} resolved {count}x "
                            f"in a loop of hot path {fn.qualname}(); "
                            "bind it to a local before the loop",
                        )

