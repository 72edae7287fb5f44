"""Whole-program symbol table, call graph, and reachability.

The per-file linter (:mod:`repro.checks.engine`) sees one module at a
time, which is exactly as far as anchor-comment-driven rules can go.
The analysis behind ``repro check deep`` needs more: *what is
transitively reachable from a hot-path anchor*.  This module supplies
the substrate:

* :func:`extract_symbols` distils one parsed module into a
  :class:`ModuleSymbols` -- functions with their call sites, classes
  with bases/attribute types, imports.  Extraction also pre-computes
  every function's HOT discipline findings, so the expensive AST walk
  happens once per file.
* :class:`ProjectIndex` merges the per-file tables into a project
  view: import/alias resolution, lightweight type inference (parameter
  annotations, ``self.attr`` assignments, local constructor calls,
  registry dicts), method resolution with dynamic dispatch through
  subclass overrides, and BFS reachability over the resulting edges.

The resolver is deliberately *under*-approximate where Python is
dynamic: an edge is added only when a receiver's type can be traced
through annotations, constructor assignments, or a registry dict.
That keeps the hot-set report precise enough to act on; the escape
hatches (anchors, ``allow[...]``, the deep baseline) cover the rest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.checks.engine import (
    ClassInfo,
    FunctionInfo,
    ModuleContext,
    build_context,
)
from repro.checks.findings import Finding

__all__ = [
    "CallSite",
    "FunctionSym",
    "ClassSym",
    "ModuleSymbols",
    "ProjectIndex",
    "extract_symbols",
    "module_name_for",
]

# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    Attributes:
        kind: How the callee is spelled -- ``"name"`` (``f(...)``),
            ``"self"``/``"cls"`` (``self.f(...)``), ``"super"``
            (``super().f(...)``), ``"attr"`` (``recv.f(...)`` for any
            other receiver), or ``"registry"`` (``TABLE[key](...)``).
        func: Bare callee name (method or function name).
        recv: Dotted receiver text (``"self._pool"``, ``"time"``,
            registry dict name for ``"registry"``); empty for
            ``"name"``/``"self"``/``"cls"``/``"super"`` kinds.
        line: 1-based source line of the call.
    """

    kind: str
    func: str
    recv: str = ""
    line: int = 0


@dataclass
class FunctionSym:
    """One function, summarised for cross-module analysis."""

    qualname: str  #: ``<module>.<Class>.<name>`` -- globally unique key
    module: str
    name: str
    cls: Optional[str]  #: enclosing class qualname, or ``None``
    line: int
    anchors: Tuple[str, ...]
    params: Tuple[str, ...]
    param_types: Dict[str, str] = field(default_factory=dict)
    return_type: str = ""
    decorators: Tuple[str, ...] = ()
    calls: Tuple[CallSite, ...] = ()
    nested: Tuple[str, ...] = ()  #: qualnames of nested defs (closures)
    local_types: Dict[str, str] = field(default_factory=dict)
    local_regs: Dict[str, str] = field(default_factory=dict)
    #: Pre-computed HOT findings (already suppression filtered); the
    #: deep driver *selects* from these by reachability.
    hot_findings: Tuple[Finding, ...] = ()


@dataclass
class ClassSym:
    """One class, summarised for cross-module analysis."""

    qualname: str  #: ``<module>.<Class>`` -- globally unique key
    module: str
    name: str
    line: int
    bases: Tuple[str, ...]  #: raw dotted base texts, in order
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSymbols:
    """Everything :class:`ProjectIndex` needs from one source file."""

    module: str  #: dotted module name (``repro.sim.kernel``)
    path: str
    rel: Optional[str]
    imports: Dict[str, str] = field(default_factory=dict)
    functions: List[FunctionSym] = field(default_factory=list)
    classes: List[ClassSym] = field(default_factory=list)
    registries: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    suppressed: int = 0  #: findings dropped by inline ``allow`` comments


# ---------------------------------------------------------------------------
# extraction helpers
# ---------------------------------------------------------------------------

#: Wrapper generics unwrapped when reading an annotation as a type.
_TYPE_WRAPPERS = {"Optional", "List", "Sequence", "Tuple", "Set",
                  "FrozenSet", "Iterable", "Final", "ClassVar",
                  "Deque", "Type"}

def module_name_for(path: str, rel: Optional[str]) -> str:
    """Dotted module name for a file.

    Files inside the ``repro`` package get their real dotted name
    (``repro/sim/kernel.py`` -> ``repro.sim.kernel``; ``__init__.py``
    names the package).  Files outside (test fixtures) get their stem,
    so fixtures form tiny self-contained projects of their own.
    """
    if rel:
        parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)
    stem = path.replace("\\", "/").rsplit("/", 1)[-1]
    return stem[:-3] if stem.endswith(".py") else stem


def _dotted(node: ast.AST) -> str:
    """Dotted text of a Name/Attribute chain, else ``""``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _ann_text(node: Optional[ast.AST]) -> str:
    """Annotation -> dotted type text, unwrapping one generic layer.

    ``Optional[Kernel]`` -> ``Kernel``; ``"Kernel"`` (string
    annotation) -> ``Kernel``; unresolvable shapes -> ``""``.
    """
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return ""
    if isinstance(node, ast.Subscript):
        base = _dotted(node.value)
        tail = base.rsplit(".", 1)[-1]
        if tail in _TYPE_WRAPPERS:
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _ann_text(inner)
        return base
    text = _dotted(node)
    return "" if text in ("None",) else text


def _resolve_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """Module-level alias table: local name -> absolute dotted target."""
    imports: Dict[str, str] = {}
    package = module.rsplit(".", 1)[0] if "." in module else module
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                # level 1 = current package; each extra level pops one.
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def _body_walk(fn_node: ast.AST) -> Iterable[ast.AST]:
    """Body nodes, not descending into nested defs or lambdas."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _call_site(node: ast.Call) -> Optional[CallSite]:
    """Classify one call expression; ``None`` for unresolvable shapes."""
    callee = node.func
    if isinstance(callee, ast.Name):
        return CallSite("name", callee.id, "", node.lineno)
    if isinstance(callee, ast.Attribute):
        value = callee.value
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "super"):
            return CallSite("super", callee.attr, "", node.lineno)
        recv = _dotted(value)
        if recv == "self" or recv == "cls":
            return CallSite(recv if recv == "cls" else "self",
                            callee.attr, "", node.lineno)
        if recv:
            return CallSite("attr", callee.attr, recv, node.lineno)
        return None
    if isinstance(callee, ast.Subscript) and isinstance(callee.value, ast.Name):
        return CallSite("registry", "", callee.value.id, node.lineno)
    return None


def _function_facts(
    ctx: ModuleContext,
    fn: FunctionInfo,
    qualname: str,
    module: str,
    cls: Optional[str],
) -> FunctionSym:
    """Summarise one function's signature, call sites and local types."""
    node = fn.node
    params: List[str] = []
    param_types: Dict[str, str] = {}
    args = node.args
    for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        params.append(a.arg)
        ann = _ann_text(a.annotation)
        if ann:
            param_types[a.arg] = ann
    decorators = tuple(
        d for d in (_dotted(dec.func if isinstance(dec, ast.Call) else dec)
                    for dec in node.decorator_list) if d
    )

    calls: List[CallSite] = []
    local_types: Dict[str, str] = {}
    local_regs: Dict[str, str] = {}
    for sub in _body_walk(node):
        if isinstance(sub, ast.Call):
            site = _call_site(sub)
            if site is not None:
                calls.append(site)
        elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if isinstance(sub, ast.Assign):
                first = sub.targets[0] if sub.targets else None
            else:
                first = sub.target
            value = getattr(sub, "value", None)
            if isinstance(first, ast.Name) and value is not None:
                if isinstance(value, ast.Call):
                    callee = _dotted(value.func)
                    if callee:
                        local_types[first.id] = callee
                elif (isinstance(value, ast.Subscript)
                        and isinstance(value.value, ast.Name)):
                    local_regs[first.id] = value.value.id

    nested = tuple(
        f"{module}.{other.qualname}"
        for other in ctx.functions
        if other is not fn
        and other.qualname.startswith(fn.qualname + ".")
        and "." not in other.qualname[len(fn.qualname) + 1:]
    )

    return FunctionSym(
        qualname=qualname,
        module=module,
        name=node.name,
        cls=cls,
        line=node.lineno,
        anchors=tuple(sorted(fn.anchors)),
        params=tuple(params),
        param_types=param_types,
        return_type=_ann_text(node.returns),
        decorators=decorators,
        calls=tuple(calls),
        nested=nested,
        local_types=local_types,
        local_regs=local_regs,
    )


def _class_facts(
    ctx: ModuleContext,
    info: ClassInfo,
    module: str,
    fn_quals: Dict[str, str],
) -> ClassSym:
    """Summarise one class definition."""
    node = info.node
    qualname = f"{module}.{info.qualname}"
    bases = tuple(t for t in (_dotted(b) for b in node.bases) if t)
    methods: Dict[str, str] = {}
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            key = f"{info.qualname}.{child.name}"
            if key in fn_quals:
                methods[child.name] = fn_quals[key]
    attr_types: Dict[str, str] = {}
    for child in node.body:
        if isinstance(child, ast.AnnAssign) and isinstance(child.target,
                                                           ast.Name):
            ann = _ann_text(child.annotation)
            if ann:
                attr_types[child.target.id] = ann
    init = next(
        (c for c in node.body
         if isinstance(c, ast.FunctionDef) and c.name == "__init__"),
        None,
    )
    if init is not None:
        init_anns = {
            a.arg: _ann_text(a.annotation)
            for a in init.args.args
            if a.annotation is not None
        }
        for sub in _body_walk(init):
            if isinstance(sub, ast.AnnAssign):
                target = sub.target
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    ann = _ann_text(sub.annotation)
                    if ann:
                        attr_types.setdefault(target.attr, ann)
            elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                value = sub.value
                if isinstance(value, ast.Call):
                    callee = _dotted(value.func)
                    if callee:
                        attr_types.setdefault(target.attr, callee)
                elif isinstance(value, ast.Name) and value.id in init_anns:
                    attr_types.setdefault(target.attr, init_anns[value.id])
    return ClassSym(
        qualname=qualname,
        module=module,
        name=node.name,
        line=node.lineno,
        bases=bases,
        methods=methods,
        attr_types=attr_types,
    )


def _registry_tables(tree: ast.Module) -> Dict[str, Tuple[str, ...]]:
    """Module-level ``NAME = {...: SomeClass}`` dispatch tables."""
    registries: Dict[str, Tuple[str, ...]] = {}
    for node in tree.body:
        value: Optional[ast.AST] = None
        name: Optional[str] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            if isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                value = node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                name = node.target.id
                value = node.value
        if name is None or not isinstance(value, ast.Dict):
            continue
        members = tuple(t for t in (_dotted(v) for v in value.values) if t)
        if members and len(members) == len(value.values):
            registries[name] = members
    return registries


def extract_symbols(path: str, source: Optional[str] = None) -> ModuleSymbols:
    """Parse and summarise one file (the per-file half of the scan).

    Raises:
        LintError: when the file cannot be read or parsed.
    """
    ctx = build_context(path, source)
    module = module_name_for(path, ctx.rel)
    imports = _resolve_imports(ctx.tree, module)
    fn_quals = {fn.qualname: f"{module}.{fn.qualname}" for fn in ctx.functions}
    class_quals = {c.qualname for c in ctx.classes}

    # HOT discipline findings are computed for *every* function here;
    # the deep driver selects the transitively-hot subset.
    from repro.checks.rules.hot import HOT_RULES

    suppressed = 0
    functions: List[FunctionSym] = []
    for fn in ctx.functions:
        cls: Optional[str] = None
        if "." in fn.qualname:
            enclosing = fn.qualname.rsplit(".", 1)[0]
            if enclosing in class_quals:
                cls = f"{module}.{enclosing}"
        sym = _function_facts(ctx, fn, fn_quals[fn.qualname], module, cls)
        hot: List[Finding] = []
        for rule_ in HOT_RULES:
            for finding in rule_.check_function(ctx, fn):
                if ctx.is_suppressed(finding.rule_id, finding.line):
                    suppressed += 1
                else:
                    hot.append(finding)
        sym.hot_findings = tuple(hot)
        functions.append(sym)

    classes = [
        _class_facts(ctx, info, module, fn_quals) for info in ctx.classes
    ]
    return ModuleSymbols(
        module=module,
        path=path,
        rel=ctx.rel,
        imports=imports,
        functions=functions,
        classes=classes,
        registries=_registry_tables(ctx.tree),
        suppressed=suppressed,
    )


# ---------------------------------------------------------------------------
# the project index
# ---------------------------------------------------------------------------
class ProjectIndex:
    """Cross-module resolution and reachability over scanned symbols."""

    def __init__(self, modules: Sequence[ModuleSymbols]) -> None:
        self.modules: Dict[str, ModuleSymbols] = {}
        self.functions: Dict[str, FunctionSym] = {}
        self.classes: Dict[str, ClassSym] = {}
        for msym in modules:
            self.modules[msym.module] = msym
            for fn in msym.functions:
                self.functions[fn.qualname] = fn
            for cls in msym.classes:
                self.classes[cls.qualname] = cls
        self._subclasses: Dict[str, Set[str]] = {}
        for cls in self.classes.values():
            for base in cls.bases:
                resolved = self.resolve_class(cls.module, base)
                if resolved:
                    self._subclasses.setdefault(resolved, set()).add(
                        cls.qualname
                    )
        self._edges: Dict[str, Set[str]] = {}
        for fn in self.functions.values():
            self._edges[fn.qualname] = self._callees(fn)

    # -- name resolution ------------------------------------------------
    def _candidates(self, module: str, text: str) -> List[str]:
        """Possible project-qualified spellings of ``text`` in ``module``."""
        if not text:
            return []
        out: List[str] = []
        msym = self.modules.get(module)
        head, _, tail = text.partition(".")
        if msym and head in msym.imports:
            root = msym.imports[head]
            out.append(f"{root}.{tail}" if tail else root)
        out.append(f"{module}.{text}")
        out.append(text)
        return out

    def resolve_class(self, module: str, text: str) -> Optional[str]:
        """Resolve dotted ``text`` (seen in ``module``) to a class key."""
        for cand in self._candidates(module, text):
            if cand in self.classes:
                return cand
        # Unresolved import targets (fixtures referring to classes by
        # bare name defined elsewhere in the same scan) fall back to a
        # unique-by-name match.
        tail = text.rsplit(".", 1)[-1]
        matches = [q for q, c in self.classes.items() if c.name == tail]
        return matches[0] if len(matches) == 1 else None

    def resolve_function(self, module: str, text: str) -> Optional[str]:
        """Resolve dotted ``text`` to a function key (not methods)."""
        for cand in self._candidates(module, text):
            if cand in self.functions:
                return cand
        return None

    # -- class hierarchy ------------------------------------------------
    def mro(self, cls_qual: str) -> List[str]:
        """Ancestor linearisation (self first); unresolved bases skipped."""
        out: List[str] = []
        seen: Set[str] = set()
        stack = [cls_qual]
        while stack:
            cur = stack.pop(0)
            if cur in seen or cur not in self.classes:
                continue
            seen.add(cur)
            out.append(cur)
            csym = self.classes[cur]
            for base in csym.bases:
                resolved = self.resolve_class(csym.module, base)
                if resolved:
                    stack.append(resolved)
        return out

    def transitive_subclasses(self, cls_qual: str) -> Set[str]:
        out: Set[str] = set()
        stack = [cls_qual]
        while stack:
            cur = stack.pop()
            for sub in self._subclasses.get(cur, ()):
                if sub not in out:
                    out.add(sub)
                    stack.append(sub)
        return out

    def find_method(self, cls_qual: str, name: str) -> Optional[str]:
        """Statically-resolved method: first definition along the MRO."""
        for cand in self.mro(cls_qual):
            methods = self.classes[cand].methods
            if name in methods:
                return methods[name]
        return None

    def method_targets(self, cls_qual: str, name: str) -> Set[str]:
        """Possible runtime targets: static + subclass overrides."""
        out: Set[str] = set()
        static = self.find_method(cls_qual, name)
        if static:
            out.add(static)
        for sub in self.transitive_subclasses(cls_qual):
            methods = self.classes[sub].methods
            if name in methods:
                out.add(methods[name])
        return out

    def attr_class(self, cls_qual: str, attr: str) -> Optional[str]:
        """Class of ``self.<attr>``, merged over the MRO."""
        for cand in self.mro(cls_qual):
            csym = self.classes[cand]
            text = csym.attr_types.get(attr)
            if text:
                return self.resolve_class(csym.module, text)
        return None

    # -- call edges -----------------------------------------------------
    def _receiver_class(self, fn: FunctionSym, recv: str) -> Optional[str]:
        """Class of a dotted receiver expression inside ``fn``."""
        parts = recv.split(".")
        head = parts[0]
        cur: Optional[str]
        rest: List[str]
        if head in ("self", "cls"):
            cur = fn.cls
            rest = parts[1:]
        else:
            text = fn.local_types.get(head) or fn.param_types.get(head)
            if text:
                cur = self.resolve_class(fn.module, text)
            else:
                cur = None
            rest = parts[1:]
        if cur is None:
            return None
        for attr in rest:
            cur = self.attr_class(cur, attr)
            if cur is None:
                return None
        return cur

    def _class_targets(self, cls_qual: str) -> Set[str]:
        """Edges for instantiating a class: its reachable ``__init__``."""
        init = self.find_method(cls_qual, "__init__")
        return {init} if init else set()

    def _registry_members(self, fn: FunctionSym, table: str) -> Set[str]:
        msym = self.modules.get(fn.module)
        out: Set[str] = set()
        if not msym:
            return out
        for text in msym.registries.get(table, ()):
            resolved = self.resolve_class(fn.module, text)
            if resolved:
                out.add(resolved)
            else:
                target = self.resolve_function(fn.module, text)
                if target:
                    out.add(target)
        return out

    def _callees(self, fn: FunctionSym) -> Set[str]:
        out: Set[str] = set(q for q in fn.nested if q in self.functions)
        for site in fn.calls:
            if site.kind == "name":
                target = self.resolve_function(fn.module, site.func)
                if target:
                    out.add(target)
                    continue
                cls = None
                for cand in self._candidates(fn.module, site.func):
                    if cand in self.classes:
                        cls = cand
                        break
                if cls:
                    out.update(self._class_targets(cls))
            elif site.kind in ("self", "cls"):
                if fn.cls:
                    out.update(self.method_targets(fn.cls, site.func))
            elif site.kind == "super":
                if fn.cls:
                    for base in self.classes[fn.cls].bases:
                        resolved = self.resolve_class(
                            self.classes[fn.cls].module, base
                        )
                        if resolved:
                            target = self.find_method(resolved, site.func)
                            if target:
                                out.add(target)
                                break
            elif site.kind == "registry":
                for member in self._registry_members(fn, site.recv):
                    if member in self.classes:
                        out.update(self._class_targets(member))
                    else:
                        out.add(member)
            elif site.kind == "attr":
                recv_cls = self._receiver_class(fn, site.recv)
                if recv_cls:
                    out.update(self.method_targets(recv_cls, site.func))
                    continue
                # receiver held a registry lookup result: dispatch to
                # every member class's method.
                head = site.recv.split(".", 1)[0]
                table = fn.local_regs.get(head)
                if table:
                    for member in self._registry_members(fn, table):
                        if member in self.classes:
                            out.update(
                                self.method_targets(member, site.func)
                            )
                    continue
                target = self.resolve_function(
                    fn.module, f"{site.recv}.{site.func}"
                )
                if target:
                    out.add(target)
                else:
                    for cand in self._candidates(
                        fn.module, f"{site.recv}.{site.func}"
                    ):
                        if cand in self.classes:
                            out.update(self._class_targets(cand))
                            break
        return out

    def callees(self, qualname: str) -> Set[str]:
        return self._edges.get(qualname, set())

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Transitive closure over call edges (cycle-safe BFS)."""
        seen: Set[str] = set()
        queue = [r for r in roots if r in self.functions]
        seen.update(queue)
        while queue:
            cur = queue.pop()
            for nxt in self._edges.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    # -- analysis entry points ------------------------------------------
    def functions_with_anchor(self, anchor: str) -> List[FunctionSym]:
        return sorted(
            (f for f in self.functions.values() if anchor in f.anchors),
            key=lambda f: f.qualname,
        )
