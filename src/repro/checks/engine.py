"""The rule framework: contexts, the registry, and the lint driver.

A :class:`Rule` inspects one parsed module (:class:`ModuleContext`)
and yields :class:`~repro.checks.findings.Finding` objects.  The
:class:`LintEngine` walks the input paths, builds a context per file,
runs every registered rule, and applies the two escape hatches:

* **Inline suppressions** -- ``# repro: allow[DET002]`` (or a whole
  family, ``allow[DET]``) on the offending line or the line directly
  above silences that occurrence.  Suppressions are deliberate and
  reviewable; prefer them over baselining for code that is correct
  for a reason the rule cannot see.
* **Baseline** -- a JSON file of fingerprint counts for grandfathered
  findings (see :mod:`repro.checks.baseline`); old findings are
  reported as baselined, new ones fail.

Module-level policy markers (``# repro: config-layer``) and function
anchors (``# repro: hot``) are parsed here once and exposed on the
context so rules stay declarative.
"""

from __future__ import annotations

import ast
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.checks.findings import Finding, Severity, repro_relpath
from repro.errors import LintError

#: ``# repro: allow[DET002, HOT]`` -- inline suppression.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")

#: ``# repro: config-layer`` -- module-level policy marker.
_MARKER_RE = re.compile(r"#\s*repro:\s*([a-z][a-z-]*)\s*(?:$|[^[])")

#: Function anchors recognised on/above a ``def`` (or its decorators).
FUNCTION_ANCHORS = ("hot",)


@dataclass
class FunctionInfo:
    """One function definition plus its recognised anchors."""

    node: ast.AST  # FunctionDef | AsyncFunctionDef
    qualname: str
    anchors: Set[str] = field(default_factory=set)


@dataclass
class ClassInfo:
    """One class definition."""

    node: ast.ClassDef
    qualname: str


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one source file."""

    path: str  #: path as given on the command line (reports print it)
    rel: Optional[str]  #: ``repro/...`` package-relative path, or None
    tree: ast.Module
    lines: List[str]  #: raw source lines (1-based access via line - 1)
    markers: Set[str]  #: module-level ``# repro: <marker>`` comments
    suppressions: Dict[int, Set[str]]  #: line -> allowed rule ids/families
    functions: List[FunctionInfo]
    classes: List[ClassInfo] = field(default_factory=list)

    def source_line(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def functions_with(self, anchor: str) -> List[FunctionInfo]:
        return [fn for fn in self.functions if anchor in fn.anchors]

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True when ``line`` (or the line above) allows ``rule_id``.

        A family name (``DET``) suppresses every rule of that family.
        """
        family = rule_id.rstrip("0123456789")
        for candidate in (line, line - 1):
            allowed = self.suppressions.get(candidate)
            if allowed and (rule_id in allowed or family in allowed):
                return True
        return False


class Rule:
    """One invariant check.

    Subclasses set the class attributes and implement :meth:`check`;
    instances are registered in :data:`REGISTRY` via :func:`rule`.
    """

    id: str = ""
    family: str = ""
    severity: str = Severity.ERROR
    description: str = ""

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=self.id,
            severity=self.severity,
            path=ctx.path,
            line=line,
            col=col,
            message=message,
            source=ctx.source_line(line),
        )


#: rule id -> Rule instance (populated by the ``rules`` package).
REGISTRY: Dict[str, Rule] = {}


def rule(cls):
    """Class decorator registering a :class:`Rule` subclass."""
    instance = cls()
    if not instance.id or not instance.family:
        raise LintError(f"rule {cls.__name__} must define id and family")
    if instance.id in REGISTRY:
        raise LintError(f"duplicate rule id {instance.id!r}")
    REGISTRY[instance.id] = instance
    return cls


def all_rules() -> List[Rule]:
    """Registered rules in id order (imports the builtin families)."""
    import repro.checks.rules  # noqa: F401  (registration side effect)

    return [REGISTRY[rid] for rid in sorted(REGISTRY)]


# ---------------------------------------------------------------------------
# context construction
# ---------------------------------------------------------------------------
def _comment_tables(
    source: str,
) -> Tuple[Set[str], Dict[int, Set[str]], Dict[int, Set[str]]]:
    """Extract (markers, suppressions, anchors-by-line) from comments.

    Uses the tokenizer rather than line regexes so a ``# repro:``
    inside a string literal never counts.
    """
    markers: Set[str] = set()
    suppressions: Dict[int, Set[str]] = {}
    anchors: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string
            line = tok.start[0]
            allow = _ALLOW_RE.search(text)
            if allow:
                ids = {part.strip() for part in allow.group(1).split(",")}
                suppressions.setdefault(line, set()).update(p for p in ids if p)
                continue
            marker = _MARKER_RE.search(text)
            if marker:
                name = marker.group(1)
                if name in FUNCTION_ANCHORS:
                    anchors.setdefault(line, set()).add(name)
                else:
                    markers.add(name)
    except tokenize.TokenError:
        pass  # partial tables are fine; ast.parse reports real errors
    return markers, suppressions, anchors


def _collect_functions(
    tree: ast.Module, anchors_by_line: Dict[int, Set[str]]
) -> List[FunctionInfo]:
    """All function defs with their qualnames and comment anchors.

    An anchor comment binds to a function when it sits on the ``def``
    line, on any decorator line, or on the line directly above the
    first decorator/def line.
    """
    functions: List[FunctionInfo] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                start = min(
                    [child.lineno]
                    + [d.lineno for d in child.decorator_list]
                )
                bound: Set[str] = set()
                for line in range(start - 1, child.lineno + 1):
                    bound.update(anchors_by_line.get(line, ()))
                for deco in child.decorator_list:
                    name = deco
                    if isinstance(name, ast.Call):
                        name = name.func
                    if isinstance(name, ast.Attribute):
                        name = name.attr
                    elif isinstance(name, ast.Name):
                        name = name.id
                    if name == "hot_path":
                        bound.add("hot")
                functions.append(FunctionInfo(child, qual, bound))
                visit(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return functions


def _collect_classes(tree: ast.Module) -> List[ClassInfo]:
    """All class defs with their qualnames."""
    classes: List[ClassInfo] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qual = f"{prefix}{child.name}"
                classes.append(ClassInfo(child, qual))
                visit(child, f"{qual}.")
            elif not isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                visit(child, prefix)
            else:
                visit(child, f"{prefix}{child.name}.")

    visit(tree, "")
    return classes


def build_context(path: str, source: Optional[str] = None) -> ModuleContext:
    """Parse one file into a :class:`ModuleContext`.

    Raises:
        LintError: when the file cannot be read or parsed.
    """
    if source is None:
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"cannot parse {path}: {exc}") from exc
    markers, suppressions, anchors = _comment_tables(source)
    return ModuleContext(
        path=path,
        rel=repro_relpath(path),
        tree=tree,
        lines=source.splitlines(),
        markers=markers,
        suppressions=suppressions,
        functions=_collect_functions(tree, anchors),
        classes=_collect_classes(tree),
    )


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------
def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d != "__pycache__" and not d.startswith(".")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        elif path.endswith(".py"):
            yield path
        else:
            raise LintError(f"not a python file or directory: {path}")


@dataclass
class LintResult:
    """Outcome of one engine run."""

    findings: List[Finding]  #: live findings (suppressed/baselined removed)
    baselined: List[Finding]  #: matched a baseline entry
    suppressed: int  #: count silenced by inline ``allow`` comments
    files: int  #: files scanned

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == Severity.WARNING]


class LintEngine:
    """Run a rule set over files, applying suppressions and a baseline.

    Args:
        rules: Rule instances; defaults to every registered rule.
        baseline: Fingerprint -> grandfathered count (see
            :mod:`repro.checks.baseline`); matching findings are
            reported separately and do not fail the run.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        baseline: Optional[Dict[str, int]] = None,
    ) -> None:
        self.rules = list(rules) if rules is not None else all_rules()
        self.baseline = dict(baseline or {})

    def run(self, paths: Sequence[str]) -> LintResult:
        raw: List[Finding] = []
        suppressed = 0
        files = 0
        for path in iter_python_files(paths):
            ctx = build_context(path)
            files += 1
            for rule_ in self.rules:
                for finding in rule_.check(ctx):
                    if ctx.is_suppressed(finding.rule_id, finding.line):
                        suppressed += 1
                    else:
                        raw.append(finding)
        raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        remaining = dict(self.baseline)
        live: List[Finding] = []
        baselined: List[Finding] = []
        for finding in raw:
            fp = finding.fingerprint()
            if remaining.get(fp, 0) > 0:
                remaining[fp] -= 1
                baselined.append(finding)
            else:
                live.append(finding)
        return LintResult(
            findings=live,
            baselined=baselined,
            suppressed=suppressed,
            files=files,
        )
