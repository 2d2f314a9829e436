"""The analyzer engine behind ``sls lint``.

A rule is a whole-tree pass: it receives every parsed module at once
(:class:`ProjectTree`), so cross-module invariants — "every registry
constant is referenced somewhere", "this call graph flushes before it
names a snapshot" — are first-class, not bolted on.  Modules are
parsed once and shared by all rules.  There are no waivers: a rule
ships with the tree clean, and a finding is fixed, not suppressed
(see ANALYSIS.md).

Everything here is plain :mod:`ast` — no imports of the analyzed code
are ever executed, so the analyzer can safely run over fixtures that
deliberately violate the invariants.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    col: int
    message: str
    #: dotted enclosing scope (``ObjectStore.delete_snapshot``)
    symbol: str = ""

    def render(self) -> str:
        where = f"{self.path}:{self.line}:{self.col}"
        scope = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {self.rule}: {self.message}{scope}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Finding":
        """Rehydrate a finding from :meth:`to_json` output (the shape
        per-module facts caches store)."""
        return cls(
            rule=data["rule"],
            path=data["path"],
            line=data["line"],
            col=data["col"],
            message=data["message"],
            symbol=data.get("symbol", ""),
        )


class ImportMap:
    """Import aliasing of one module, for alias-aware rules.

    Tracks both module aliases (``import time as t`` → ``t`` means
    ``time``) and member imports (``from time import monotonic as mono``
    → ``mono`` means ``time.monotonic``), so a rule reasons about what
    a name *resolves to*, never about how it is spelled.
    """

    def __init__(self, tree: ast.AST):
        #: local alias -> imported module dotted path
        self.modules: Dict[str, str] = {}
        #: local name -> (source module, member name)
        self.members: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.members[local] = (node.module, alias.name)

    def imports_module(self, dotted: str) -> bool:
        """Whether the module is reachable under any local name."""
        if dotted in self.modules.values():
            return True
        return any(
            mod == dotted or f"{mod}.{member}" == dotted
            for mod, member in self.members.values()
        )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted path a Name/Attribute resolves to, through aliases.

        ``t.monotonic`` with ``import time as t`` → ``time.monotonic``;
        ``mono`` with ``from time import monotonic as mono`` → the
        same.  Returns ``None`` for anything not rooted in an import.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in self.members:
            mod, member = self.members[root]
            base = f"{mod}.{member}"
        elif root in self.modules:
            base = self.modules[root]
        else:
            return None
        return ".".join([base] + list(reversed(parts)))


class SourceModule:
    """One source file shared by every rule.

    Parsing is *lazy*: the raw text (and its content hash, the summary
    cache key) are read eagerly, but the AST, import map, and docstring
    index are only built on first access.  A warm-cache run whose rules
    are all served from cached per-module facts therefore never parses
    an unchanged module at all — that is what keeps ``sls lint``
    sub-second incrementally.
    """

    def __init__(self, path: Path, relpath: str, source: str):
        self.path = path
        self.relpath = relpath
        self.source = source
        self._tree: Optional[ast.Module] = None
        self._imports: Optional[ImportMap] = None
        self._docstring_lines: Optional[frozenset] = None
        self._content_hash: Optional[str] = None

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceModule":
        return cls(
            path=path,
            relpath=path.relative_to(root).as_posix(),
            source=path.read_text(),
        )

    @property
    def content_hash(self) -> str:
        """Cache key: hash of the exact bytes the parse would see."""
        if self._content_hash is None:
            self._content_hash = hashlib.sha256(
                self.source.encode()
            ).hexdigest()[:24]
        return self._content_hash

    @property
    def parsed(self) -> bool:
        """Whether any rule has forced this module's AST this run."""
        return self._tree is not None

    @property
    def tree(self) -> ast.Module:
        if self._tree is None:
            self._tree = ast.parse(self.source, filename=str(self.path))
        return self._tree

    @property
    def imports(self) -> ImportMap:
        if self._imports is None:
            self._imports = ImportMap(self.tree)
        return self._imports

    @property
    def docstring_lines(self) -> frozenset:
        """Line numbers occupied by docstrings (skipped by literal scans)."""
        if self._docstring_lines is None:
            doc_lines = set()
            for node in ast.walk(self.tree):
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    body = node.body
                    if body and isinstance(body[0], ast.Expr) and isinstance(
                        body[0].value, ast.Constant
                    ) and isinstance(body[0].value.value, str):
                        expr = body[0].value
                        doc_lines.update(range(expr.lineno, expr.end_lineno + 1))
            self._docstring_lines = frozenset(doc_lines)
        return self._docstring_lines

    def scopes(self) -> Iterable[Tuple[str, ast.AST]]:
        """(qualname, def node) for every function/class, outermost first."""

        def walk(node: ast.AST, prefix: str):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    qual = f"{prefix}.{child.name}" if prefix else child.name
                    yield qual, child
                    yield from walk(child, qual)
                else:
                    yield from walk(child, prefix)

        yield from walk(self.tree, "")

    def enclosing_symbol(self, line: int) -> str:
        """Qualname of the innermost def/class containing ``line``."""
        best = ""
        best_span = None
        for qual, node in self.scopes():
            if node.lineno <= line <= (node.end_lineno or node.lineno):
                span = (node.end_lineno or node.lineno) - node.lineno
                if best_span is None or span <= best_span:
                    best, best_span = qual, span
        return best


@dataclass
class AnalyzerConfig:
    """Tree-shape knobs the rules consult (overridable in tests)."""

    #: registry constants: symbol -> string value, per registry module
    obs_registry: Dict[str, str] = field(default_factory=dict)
    fault_registry: Dict[str, str] = field(default_factory=dict)
    #: dotted module paths of the name registries (their definitions
    #: are exempt from the drift checks; references elsewhere count)
    registry_modules: Tuple[str, ...] = (
        "repro/obs/names.py",
        "repro/fault/names.py",
    )
    #: modules allowed to spell instrument names dynamically (the
    #: planes' own implementation + the analyzer itself)
    drift_exempt: Tuple[str, ...] = (
        "repro/obs/",
        "repro/fault/registry.py",
        "repro/fault/names.py",
        "repro/analysis/",
    )
    #: package the crash-ordering rule checks
    objstore_prefix: str = "repro/objstore/"
    #: the device-adapter module: the one place in the store layer
    #: that writes the device directly
    adapter_modules: Tuple[str, ...] = ("repro/objstore/block.py",)
    #: module defining the unit helpers (exempt from unit-suffix)
    units_modules: Tuple[str, ...] = ("repro/units.py",)
    #: public commit/checkpoint APIs the durability-order rule traces
    #: (matched by function qualname, any module)
    durability_roots: Tuple[str, ...] = (
        "SLS.checkpoint",
        "StoreBackend.persist",
        "ObjectStore.commit_snapshot",
        "ObjectStore.delete_snapshot",
        "SlsFS.sync",
    )
    #: documentation file the obs-coverage rule pins catalogue names
    #: against (looked up in the tree root, then its parent)
    obs_doc: str = "OBSERVABILITY.md"

    def fingerprint(self) -> str:
        """Identity of everything cached facts may depend on — part of
        every cache key, so a config change invalidates cleanly."""
        blob = repr((
            sorted(self.obs_registry.items()),
            sorted(self.fault_registry.items()),
            self.registry_modules, self.drift_exempt, self.objstore_prefix,
            self.adapter_modules, self.units_modules,
            self.durability_roots, self.obs_doc,
        ))
        return hashlib.sha1(blob.encode()).hexdigest()[:12]

    @classmethod
    def default(cls) -> "AnalyzerConfig":
        """Config for the real tree: registry values come from the live
        catalogue modules (the single source of truth the docs tests
        already pin)."""
        from repro.fault import names as fault_names
        from repro.obs import names as obs_names

        def constants(mod) -> Dict[str, str]:
            return {
                key: value
                for key, value in vars(mod).items()
                if key.isupper() and isinstance(value, str)
            }

        return cls(
            obs_registry=constants(obs_names),
            fault_registry=constants(fault_names),
        )


class Rule:
    """One invariant: a whole-tree pass producing findings."""

    name: str = ""
    summary: str = ""

    def check(self, tree: "ProjectTree") -> List[Finding]:  # pragma: no cover
        raise NotImplementedError


@dataclass
class ProjectTree:
    """Every source module plus the config, handed to each rule.

    Rules ask for per-module derived data through :meth:`facts`, which
    consults the summary cache (when one is attached): a module whose
    content hash matches the cached entry is never re-parsed.  The
    whole-program effect analysis is built once per run via
    :meth:`effects` and shared by every graph rule.
    """

    root: Path
    modules: List[SourceModule]
    config: AnalyzerConfig
    #: optional SummaryCache (repro.analysis.cache); None disables
    cache: object = None

    def __post_init__(self):
        self._effects = None

    def module(self, relpath: str) -> Optional[SourceModule]:
        for mod in self.modules:
            if mod.relpath == relpath:
                return mod
        return None

    def facts(self, kind: str, version: int, extract,
              modules: Optional[List[SourceModule]] = None) -> Dict[str, object]:
        """Per-module derived facts, via the summary cache.

        ``extract(mod)`` must return a JSON-serializable value derived
        only from the module source and ``self.config`` — the cache key
        is (content hash, kind, extractor version, config fingerprint),
        so any of those changing re-extracts.  Returns
        ``{relpath: facts}`` in module order.
        """
        key = f"{kind}:v{version}:{self.config.fingerprint()}"
        out: Dict[str, object] = {}
        for mod in modules if modules is not None else self.modules:
            cached = None
            if self.cache is not None:
                cached = self.cache.get(mod.relpath, mod.content_hash, key)
            if cached is None:
                cached = extract(mod)
                if self.cache is not None:
                    self.cache.put(mod.relpath, mod.content_hash, key, cached)
            out[mod.relpath] = cached
        return out

    def effects(self):
        """The whole-program effect analysis, built once per run (see
        :mod:`repro.analysis.effects`)."""
        if self._effects is None:
            from repro.analysis.effects import EffectAnalysis

            self._effects = EffectAnalysis.build(self)
        return self._effects

    @classmethod
    def load(cls, root: Path, paths: Optional[Iterable[Path]] = None,
             config: Optional[AnalyzerConfig] = None,
             cache: object = None) -> "ProjectTree":
        root = Path(root)
        if paths is None:
            paths = sorted(root.rglob("*.py"))
        modules = [SourceModule.load(Path(p), root) for p in paths]
        return cls(
            root=root,
            modules=modules,
            config=config or AnalyzerConfig.default(),
            cache=cache,
        )


@dataclass
class Report:
    """Outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    rules_run: List[str] = field(default_factory=list)
    modules_scanned: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def run_rules(tree: ProjectTree, rules: Iterable[Rule]) -> Report:
    """Run ``rules`` over ``tree``.  All findings are sorted into one
    deterministic (path, line, col, rule) order before anything
    downstream — the human report, the JSON document — sees them."""
    report = Report(modules_scanned=len(tree.modules))
    produced: List[Finding] = []
    for rule in rules:
        report.rules_run.append(rule.name)
        produced.extend(rule.check(tree))
    report.findings = sorted(produced, key=lambda f: (f.path, f.line,
                                                      f.col, f.rule))
    return report
