"""Whole-program effect inference over the import-resolved call graph.

This is the engine behind the graph rules (``durability-order``,
``failpoint-reachability``, ``obs-coverage``) and ``sls lint --graph``.
It answers questions the per-function rules cannot: *which*
externalization paths a public commit API can reach, and whether a
failpoint constant or an instrument is fired anywhere a public entry
point can actually drive.

The pipeline:

1. **Extraction** (per module, cached): every function body is scanned
   once into a JSON-serializable record — its intrinsic effect atoms,
   its outgoing calls (classified ``local`` / ``module`` / ``method``),
   and a tiny type environment (constructor-call locals, parameter and
   attribute annotations).
   Records flow through :meth:`ProjectTree.facts`, so a warm cache
   never re-parses an unchanged module.

2. **Linking** (whole program, cheap): ``module`` calls resolve through
   each module's import map; ``method`` calls resolve through the type
   environment (``self`` → the enclosing class, constructor-typed
   locals, annotated attributes walked through the class index).
   Receivers the types cannot pin fall back to name-based linking —
   minus a blacklist of container/builtin method names that would
   otherwise poison the graph (``.append`` on a list is not
   ``PersistentLog.append``) — with one domain special case: unresolved
   ``write``/``write_batch`` receivers that *mention* a device link
   only to ``*Device`` classes.

3. **Summaries** (bottom-up fixpoint): Tarjan SCC condensation, then
   one pass in reverse topological order unions every function's own
   atoms with its callees' — cycles converge by construction because
   an SCC shares one summary.

Effect atoms are deliberately few and physical:

==================  =====================================================
``MEDIA_WRITE``     bytes leave RAM for the device (volume/device writes)
``SUPERBLOCK_WRITE``the store's commit point (implies ``MEDIA_WRITE``)
``FAILPOINT_FIRE``  a catalogued ``FP_*`` constant fires
``BATCH_FLUSH``     the store's batch is submitted
``CLOCK_ADVANCE``   virtual time moves
``RNG_DRAW``        seeded randomness is consumed
``OBS_EMIT``        a catalogued instrument is emitted
==================  =====================================================

Linking is an over-approximation (all same-named candidates are merged
when types cannot discriminate), which is the correct polarity for
every rule built on top: reachability rules want "possibly reached",
ordering rules scan every candidate's linearization.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import AnalyzerConfig, ProjectTree, SourceModule

# -- effect atoms ----------------------------------------------------------------

MEDIA_WRITE = "MEDIA_WRITE"
SUPERBLOCK_WRITE = "SUPERBLOCK_WRITE"
FAILPOINT_FIRE = "FAILPOINT_FIRE"
CLOCK_ADVANCE = "CLOCK_ADVANCE"
RNG_DRAW = "RNG_DRAW"
OBS_EMIT = "OBS_EMIT"
BATCH_FLUSH = "BATCH_FLUSH"

ALL_EFFECTS = (
    MEDIA_WRITE, SUPERBLOCK_WRITE, FAILPOINT_FIRE, CLOCK_ADVANCE,
    RNG_DRAW, OBS_EMIT, BATCH_FLUSH,
)

#: atoms the durability-order linearization keeps.  A batch flush is
#: one event there, not inlined: it fires its own failpoints and
#: carries only records no superblock names yet (a read of a staged
#: record may trigger one anywhere); that it precedes the superblock
#: naming them holds by construction — the store's one superblock call
#: site flushes first (see the crash-ordering rule)
ORDERED_ATOMS = frozenset(
    {MEDIA_WRITE, SUPERBLOCK_WRITE, FAILPOINT_FIRE, BATCH_FLUSH}
)

#: bump when the extraction shape changes (cache key component)
EXTRACT_VERSION = 5

#: failpoint evaluators: the registry's ``fire``, the device's
#: ``_fire`` and the store-level gate ``ObjectStore._failpoint``
FIRE_CALLS = frozenset({"fire", "_fire", "_failpoint"})

#: store-layer write entry points on the volume (media effects)
VOLUME_WRITES = frozenset({"write_data", "write_data_batch"})
#: raw device submission entry points (media when the receiver is a device)
DEVICE_WRITES = frozenset({"write", "write_async", "write_batch"})
#: instrument emitters on the obs plane
OBS_EMITTERS = frozenset({"counter", "gauge", "histogram", "span", "event"})
#: catalogue symbol prefixes (registry membership is checked first; the
#: prefixes keep fixtures honest without a registry config)
FAULT_PREFIXES = ("FP_",)
OBS_PREFIXES = ("SPAN_", "EV_", "C_", "G_", "H_")

#: method names never linked through the name-based fallback: they are
#: overwhelmingly list/dict/set/str/Path/file methods, and one
#: ``state.pages.append(...)`` linking to ``PersistentLog.append`` would
#: hand the whole graph a phantom MEDIA_WRITE.
FALLBACK_BLACKLIST = frozenset({
    "add", "append", "center", "clear", "close", "copy", "count", "decode",
    "difference", "discard", "encode", "endswith", "exists", "extend",
    "find", "format", "get", "group", "groups", "hexdigest", "index",
    "insert", "intersection", "isoformat", "issubset", "items", "join",
    "keys", "ljust", "lower", "lstrip", "match", "mkdir", "most_common",
    "pop", "popitem", "read", "readline", "readlines", "remove", "replace",
    "resolve", "reverse", "rfind", "rjust", "rsplit", "rstrip", "search",
    "seek", "setdefault", "sort", "split", "splitlines", "startswith",
    "strip", "sub", "tell", "title", "union", "update", "upper", "values",
    "zfill",
})


# -- per-module extraction (pure: module source + config -> JSON) ----------------


def _terminal_name(node: ast.AST) -> Optional[str]:
    """Rightmost identifier of a Name/Attribute/string-annotation chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # string annotation: "ObjectStore" / "repro.objstore.ObjectStore"
        return node.value.rsplit(".", 1)[-1] or None
    if isinstance(node, ast.Subscript):
        # Optional[X] / typing wrappers: the wrapped name when unambiguous
        outer = _terminal_name(node.value)
        if outer == "Optional":
            return _terminal_name(node.slice)
    return None


def _callee_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _receiver_text(node: ast.Call) -> str:
    if isinstance(node.func, ast.Attribute):
        try:
            return ast.unparse(node.func.value)
        except Exception:  # pragma: no cover - unparse is total on exprs
            return ""
    return ""


def _is_fault_symbol(name: str, config: AnalyzerConfig) -> bool:
    return name in config.fault_registry or name.startswith(FAULT_PREFIXES)


def _is_obs_symbol(name: str, config: AnalyzerConfig) -> bool:
    return name in config.obs_registry or name.startswith(OBS_PREFIXES)


def _constant_symbols(node: ast.AST, aliases: Dict[str, List[str]],
                      predicate) -> List[str]:
    """Catalogue symbols an argument expression can denote: a direct
    constant reference, a one-level local alias of one, or either
    branch of a conditional expression over them."""
    if isinstance(node, ast.IfExp):
        return sorted(set(
            _constant_symbols(node.body, aliases, predicate)
            + _constant_symbols(node.orelse, aliases, predicate)
        ))
    name = _terminal_name(node)
    if name is None:
        return []
    if predicate(name):
        return [name]
    if isinstance(node, ast.Name) and node.id in aliases:
        return [sym for sym in aliases[node.id] if predicate(sym)]
    return []


def _own_nodes(body: Sequence[ast.AST]):
    """Walk statements without descending into nested def/class bodies
    (those get their own records); lambdas are inlined."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue
            stack.append(child)


def _collect_aliases(body: Sequence[ast.AST],
                     config: AnalyzerConfig) -> Dict[str, List[str]]:
    """Local names assigned directly from catalogue constants (one
    level), including via a conditional expression — the
    ``fp = FP_A if cond else FP_B; fire(fp)`` shape."""
    aliases: Dict[str, List[str]] = {}

    def predicate(name: str) -> bool:
        return _is_fault_symbol(name, config) or _is_obs_symbol(name, config)

    for node in _own_nodes(body):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            symbols = _constant_symbols(node.value, {}, predicate)
            if symbols:
                aliases[node.targets[0].id] = symbols
    return aliases


def _scan_block(body: Sequence[ast.AST], aliases: Dict[str, List[str]],
                config: AnalyzerConfig) -> Tuple[List[list], List[list]]:
    """(effects, calls) of one statement block, both source-ordered.

    effects: ``[line, col, atom, detail]`` — detail is the catalogue
    symbol for fires/emits, the callee name otherwise.
    calls: ``[line, col, kind, target, name]`` — kind ``local`` (bare
    name), ``module`` (import-resolved, target = dotted module), or
    ``method`` (target = receiver expression text).
    """
    effects: List[list] = []
    calls: List[list] = []
    for node in _own_nodes(body):
        if not isinstance(node, ast.Call):
            continue
        name = _callee_name(node)
        if name is None:
            continue
        line, col = node.lineno, node.col_offset
        receiver = _receiver_text(node)
        lowered = receiver.lower()
        if name == "write_superblock":
            effects.append([line, col, SUPERBLOCK_WRITE, name])
        elif name in VOLUME_WRITES:
            effects.append([line, col, MEDIA_WRITE, name])
        elif name in DEVICE_WRITES and "device" in lowered:
            effects.append([line, col, MEDIA_WRITE, f"{receiver}.{name}"])
        elif name == "flush" and "batch" in lowered:
            effects.append([line, col, BATCH_FLUSH, receiver])
        elif name in FIRE_CALLS and node.args:
            for symbol in _constant_symbols(
                node.args[0], aliases,
                lambda sym: _is_fault_symbol(sym, config),
            ):
                effects.append([line, col, FAILPOINT_FIRE, symbol])
        elif name in OBS_EMITTERS and node.args:
            for symbol in _constant_symbols(
                node.args[0], aliases,
                lambda sym: _is_obs_symbol(sym, config),
            ):
                effects.append([line, col, OBS_EMIT, symbol])
        elif name in ("advance", "advance_to") and "clock" in lowered:
            effects.append([line, col, CLOCK_ADVANCE, f"{receiver}.{name}"])
        elif ("rng" in lowered.rsplit(".", 1)[-1]
              and name not in ("fork", "stream", "seed")):
            effects.append([line, col, RNG_DRAW, f"{receiver}.{name}"])
        # every call is also a graph edge (effects above are the
        # *intrinsic* reading of the same site)
        if isinstance(node.func, ast.Name):
            calls.append([line, col, "local", "", name])
        elif isinstance(node.func, ast.Attribute):
            calls.append([line, col, "method", receiver, name])
    effects.sort(key=lambda item: (item[0], item[1], item[2], item[3]))
    calls.sort(key=lambda item: (item[0], item[1], item[4]))
    return effects, calls


class _ModuleScan:
    """One module -> the JSON facts record (functions/classes/constants)."""

    def __init__(self, mod: SourceModule, config: AnalyzerConfig):
        self.mod = mod
        self.config = config
        self.functions: List[dict] = []
        self.classes: Dict[str, dict] = {}
        self.constants: Dict[str, list] = {}

    def run(self) -> dict:
        self._walk(self.mod.tree.body, prefix="", cls="", parent=None)
        self._module_constants()
        imports = self.mod.imports
        return {
            "functions": self.functions,
            "classes": self.classes,
            "constants": self.constants,
            # the import map rides along so linking never has to
            # re-parse an unchanged module on a warm cache
            "imports": {
                "modules": dict(imports.modules),
                "members": {
                    local: list(pair)
                    for local, pair in imports.members.items()
                },
            },
        }

    def _module_constants(self) -> None:
        for node in self.mod.tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id.isupper()
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                self.constants[node.targets[0].id] = [
                    node.lineno, node.col_offset, node.value.value,
                ]

    def _walk(self, body, prefix: str, cls: str, parent: Optional[dict]):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                qual = f"{prefix}.{stmt.name}" if prefix else stmt.name
                record = self.classes.setdefault(stmt.name, {
                    "bases": sorted(
                        name for name in
                        (_terminal_name(base) for base in stmt.bases) if name
                    ),
                    "attrs": {},
                    "line": stmt.lineno,
                })
                for child in stmt.body:
                    if (isinstance(child, ast.AnnAssign)
                            and isinstance(child.target, ast.Name)):
                        attr_type = _terminal_name(child.annotation)
                        if attr_type:
                            record["attrs"][child.target.id] = attr_type
                self._walk(stmt.body, prefix=qual, cls=stmt.name, parent=None)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{stmt.name}" if prefix else stmt.name
                # defs nested inside a function are plain closures, not
                # methods, whatever class encloses the parent
                record = self._function(
                    stmt, qual, cls if parent is None else "", parent
                )
                if parent is not None:
                    # reaching the parent reaches its nested defs
                    # (callbacks registered and invoked elsewhere)
                    parent["calls"].append(
                        [stmt.lineno, stmt.col_offset, "local", "", stmt.name]
                    )
                    parent["calls"].sort(
                        key=lambda item: (item[0], item[1], item[4])
                    )
                self.functions.append(record)
                self._walk(stmt.body, prefix=qual,
                           cls="" if parent is not None else cls,
                           parent=record)
            else:
                # defs can hide inside if/with/for/try blocks — descend
                # through every compound statement looking for them
                self._walk(list(ast.iter_child_nodes(stmt)),
                           prefix=prefix, cls=cls, parent=parent)

    def _function(self, node, qual: str, cls: str,
                  parent: Optional[dict]) -> dict:
        aliases = _collect_aliases(node.body, self.config)
        effects, calls = _scan_block(node.body, aliases, self.config)
        types = self._type_env(node, cls)
        return {
            "qual": qual,
            "name": node.name,
            "cls": cls,
            "nested_in": parent["qual"] if parent is not None else "",
            "line": node.lineno,
            "col": node.col_offset,
            "effects": effects,
            "calls": calls,
            "types": types,
        }

    def _type_env(self, node, cls: str) -> Dict[str, str]:
        """var -> class name, from annotations and constructor calls."""
        types: Dict[str, str] = {}
        args = node.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            if arg.annotation is not None and arg.arg != "self":
                name = _terminal_name(arg.annotation)
                if name and name[:1].isupper():
                    types[arg.arg] = name
        for stmt in _own_nodes(node.body):
            target = None
            value = None
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.annotation
            if target is None:
                continue
            if isinstance(stmt, ast.AnnAssign):
                name = _terminal_name(value)
            elif isinstance(value, ast.Call):
                name = _terminal_name(value.func)
            else:
                continue
            if not (name and name[:1].isupper()):
                continue
            if isinstance(target, ast.Name):
                types[target.id] = name
            elif (isinstance(target, ast.Attribute) and cls
                  and isinstance(target.value, ast.Name)
                  and target.value.id == "self"):
                # feeds the class attr table at link time via "self.X"
                types[f"self.{target.attr}"] = name
        return types


def extract_effects(mod: SourceModule, config: AnalyzerConfig) -> dict:
    """The facts extractor registered with :meth:`ProjectTree.facts`."""
    return _ModuleScan(mod, config).run()


# -- whole-program linking + fixpoint --------------------------------------------


def _module_dotted(relpath: str) -> str:
    dotted = relpath[:-3] if relpath.endswith(".py") else relpath
    dotted = dotted.replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


class FunctionNode:
    """One function in the linked graph."""

    __slots__ = ("node_id", "relpath", "module", "qual", "name", "cls",
                 "line", "col", "record", "callees", "resolved_calls")

    def __init__(self, node_id: str, relpath: str, module: str, record: dict):
        self.node_id = node_id
        self.relpath = relpath
        self.module = module
        self.qual = record["qual"]
        self.name = record["name"]
        self.cls = record["cls"]
        self.line = record["line"]
        self.col = record["col"]
        self.record = record
        #: sorted unique callee node ids
        self.callees: Tuple[str, ...] = ()
        #: [(line, col, (callee ids), display)] in source order
        self.resolved_calls: List[Tuple[int, int, Tuple[str, ...], str]] = []

    @property
    def public(self) -> bool:
        return (not self.name.startswith("_")) or self.name == "__init__"


class EffectAnalysis:
    """The linked call graph with per-function effect summaries."""

    def __init__(self, tree: ProjectTree):
        self.tree = tree
        self.config = tree.config
        self.nodes: Dict[str, FunctionNode] = {}
        #: relpath -> {NAME: (line, col, value)} module string constants
        self.constants: Dict[str, Dict[str, list]] = {}
        #: transitive effect sets, one frozenset per node
        self.summaries: Dict[str, FrozenSet[str]] = {}
        #: catalogue symbol -> sorted node ids with an *own* fire/emit
        self.fire_sites: Dict[str, List[str]] = {}
        self.emit_sites: Dict[str, List[str]] = {}
        self._seq_cache: Dict[str, Tuple[str, ...]] = {}
        # linking indexes (built in _link)
        self._local: Dict[Tuple[str, str], List[str]] = {}
        self._module_member: Dict[Tuple[str, str], List[str]] = {}
        self._classes: Dict[str, List[Tuple[str, dict]]] = {}
        self._methods: Dict[Tuple[str, str, str], str] = {}
        self._methods_by_name: Dict[str, List[str]] = {}
        self._module_of_class: Dict[Tuple[str, str], bool] = {}
        self._imports: Dict[str, dict] = {}

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(cls, tree: ProjectTree) -> "EffectAnalysis":
        analysis = cls(tree)
        facts = tree.facts(
            "effects", EXTRACT_VERSION,
            lambda mod: extract_effects(mod, tree.config),
        )
        analysis._index(facts)
        analysis._link()
        analysis._fixpoint()
        return analysis

    def _index(self, facts: Dict[str, dict]) -> None:
        for relpath in sorted(facts):
            record = facts[relpath]
            module = _module_dotted(relpath)
            self._imports[relpath] = record.get(
                "imports", {"modules": {}, "members": {}}
            )
            self.constants[relpath] = {
                name: tuple(where)
                for name, where in record.get("constants", {}).items()
            }
            for cls_name, cls_record in record.get("classes", {}).items():
                self._classes.setdefault(cls_name, []).append(
                    (relpath, cls_record)
                )
                self._module_of_class[(module, cls_name)] = True
            for func in record.get("functions", []):
                node_id = f"{relpath}::{func['qual']}"
                node = FunctionNode(node_id, relpath, module, func)
                self.nodes[node_id] = node
                if not node.cls:
                    self._local.setdefault(
                        (relpath, node.name), []
                    ).append(node_id)
                    if not func["nested_in"]:
                        self._module_member.setdefault(
                            (module, node.name), []
                        ).append(node_id)
                else:
                    self._methods[(relpath, node.cls, node.name)] = node_id
                    self._methods_by_name.setdefault(
                        node.name, []
                    ).append(node_id)
                for line, col, atom, detail in func["effects"]:
                    if atom == FAILPOINT_FIRE:
                        sites = self.fire_sites.setdefault(detail, [])
                    elif atom == OBS_EMIT:
                        sites = self.emit_sites.setdefault(detail, [])
                    else:
                        continue
                    if node_id not in sites:
                        sites.append(node_id)
        for sites in self.fire_sites.values():
            sites.sort()
        for sites in self.emit_sites.values():
            sites.sort()

    # -- call resolution ----------------------------------------------------------

    def _class_init(self, relpath: Optional[str], cls_name: str) -> List[str]:
        out = []
        for cand_relpath, _record in self._classes.get(cls_name, []):
            if relpath is not None and cand_relpath != relpath:
                continue
            node_id = self._methods.get((cand_relpath, cls_name, "__init__"))
            if node_id:
                out.append(node_id)
        return out

    def _hierarchy_methods(self, cls_name: str, method: str,
                           seen: Optional[Set[str]] = None) -> List[str]:
        """Method ids for ``method`` on ``cls_name`` or its bases, over
        every same-named class in the tree (merged when ambiguous)."""
        if seen is None:
            seen = set()
        if cls_name in seen:
            return []
        seen.add(cls_name)
        out: List[str] = []
        for relpath, record in self._classes.get(cls_name, []):
            node_id = self._methods.get((relpath, cls_name, method))
            if node_id:
                out.append(node_id)
            else:
                for base in record.get("bases", []):
                    out.extend(self._hierarchy_methods(base, method, seen))
        return out

    def _attr_type(self, cls_names: Set[str], attr: str) -> Set[str]:
        """Declared types of ``attr`` across candidate classes (their
        annotation tables plus ``self.attr = Ctor()`` constructor sites),
        searching base classes when the class itself is silent."""
        out: Set[str] = set()
        pending = list(cls_names)
        seen: Set[str] = set()
        while pending:
            cls_name = pending.pop()
            if cls_name in seen:
                continue
            seen.add(cls_name)
            for relpath, record in self._classes.get(cls_name, []):
                declared = record.get("attrs", {}).get(attr)
                if declared:
                    out.add(declared)
                    continue
                ctor = self._methods.get((relpath, cls_name, "__init__"))
                if ctor:
                    typed = self.nodes[ctor].record["types"].get(f"self.{attr}")
                    if typed:
                        out.add(typed)
                        continue
                pending.extend(record.get("bases", []))
        return out

    def _resolve_receiver(self, node: FunctionNode,
                          target: str) -> Optional[Set[str]]:
        """Candidate class names a method receiver can have, or None
        when the type environment cannot pin it."""
        parts = target.split(".")
        if not all(part.isidentifier() for part in parts):
            return None
        types = node.record["types"]
        if parts[0] == "self":
            if len(parts) >= 2 and f"self.{parts[1]}" in types:
                current = {types[f"self.{parts[1]}"]}
                parts = parts[2:]
            elif node.cls:
                current = {node.cls}
                parts = parts[1:]
            else:
                return None
        elif parts[0] in types:
            current = {types[parts[0]]}
            parts = parts[1:]
        else:
            return None
        for attr in parts:
            current = self._attr_type(current, attr)
            if not current:
                return None
        return current

    def _dotted_from_imports(self, relpath: str, target: str,
                             name: str) -> Optional[str]:
        """Full dotted path a call spells through the module's imports,
        or None when the receiver is not rooted in an import."""
        imports = self._imports.get(relpath)
        if imports is None:
            return None
        parts = (target.split(".") if target else []) + [name]
        if not all(part.isidentifier() for part in parts):
            return None
        root = parts[0]
        member = imports["members"].get(root)
        if member is not None:
            base = f"{member[0]}.{member[1]}"
        elif root in imports["modules"]:
            base = imports["modules"][root]
        else:
            return None
        return ".".join([base] + parts[1:])

    def resolve_call(self, node: FunctionNode, call: Sequence) -> List[str]:
        """Callee node ids of one extracted call record."""
        _line, _col, kind, target, name = call
        if kind == "local":
            dotted = self._dotted_from_imports(node.relpath, "", name)
            if dotted is not None:
                module, member = dotted.rsplit(".", 1)
                return self._resolve_module_member(module, member)
            out = list(self._local.get((node.relpath, name), []))
            if self._module_of_class.get((node.module, name)):
                out.extend(self._class_init(node.relpath, name))
            return sorted(set(out))
        if kind == "method":
            dotted = self._dotted_from_imports(node.relpath, target, name)
            if dotted is not None and "." in dotted:
                module, member = dotted.rsplit(".", 1)
                resolved = self._resolve_module_member(module, member)
                if resolved:
                    return resolved
            classes = self._resolve_receiver(node, target)
            if classes is not None:
                out: List[str] = []
                for cls_name in sorted(classes):
                    out.extend(self._hierarchy_methods(cls_name, name))
                return sorted(set(out))
            if name in FALLBACK_BLACKLIST or name.startswith("__"):
                return []
            if "device" in target.lower():
                return sorted(set(
                    node_id for node_id in self._methods_by_name.get(name, [])
                    if "Device" in self.nodes[node_id].cls
                ))
            return sorted(set(self._methods_by_name.get(name, [])))
        return []

    def _resolve_module_member(self, module: str, member: str) -> List[str]:
        out = list(self._module_member.get((module, member), []))
        if self._module_of_class.get((module, member)):
            for relpath, _record in self._classes.get(member, []):
                if _module_dotted(relpath) == module:
                    node_id = self._methods.get((relpath, member, "__init__"))
                    if node_id:
                        out.append(node_id)
        if not out and "." in module:
            # ``pkg.mod.Class.method`` spelled through an import alias
            head, cls_name = module.rsplit(".", 1)
            if self._module_of_class.get((head, cls_name)):
                for relpath, _record in self._classes.get(cls_name, []):
                    if _module_dotted(relpath) == head:
                        node_id = self._methods.get(
                            (relpath, cls_name, member)
                        )
                        if node_id:
                            out.append(node_id)
        return sorted(set(out))

    def _link(self) -> None:
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            resolved: List[Tuple[int, int, Tuple[str, ...], str]] = []
            edge_set: Set[str] = set()
            for call in node.record["calls"]:
                targets = tuple(self.resolve_call(node, call))
                display = (f"{call[3]}.{call[4]}" if call[3] else call[4])
                resolved.append((call[0], call[1], targets, display))
                edge_set.update(targets)
            node.resolved_calls = resolved
            node.callees = tuple(sorted(edge_set))

    # -- summaries ---------------------------------------------------------------

    def _own_effects(self, node: FunctionNode) -> Set[str]:
        out: Set[str] = set()
        for _line, _col, atom, _detail in node.record["effects"]:
            out.add(atom)
            if atom == SUPERBLOCK_WRITE:
                out.add(MEDIA_WRITE)
        return out

    def _fixpoint(self) -> None:
        """Tarjan condensation, then one reverse-topological union pass."""
        index_of: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work = [(root, iter(self.nodes[root].callees))]
            index_of[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node_id, edges = work[-1]
                advanced = False
                for callee in edges:
                    if callee not in index_of:
                        index_of[callee] = lowlink[callee] = counter[0]
                        counter[0] += 1
                        stack.append(callee)
                        on_stack.add(callee)
                        work.append(
                            (callee, iter(self.nodes[callee].callees))
                        )
                        advanced = True
                        break
                    if callee in on_stack:
                        lowlink[node_id] = min(
                            lowlink[node_id], index_of[callee]
                        )
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node_id])
                if lowlink[node_id] == index_of[node_id]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node_id:
                            break
                    sccs.append(component)

        for node_id in sorted(self.nodes):
            if node_id not in index_of:
                strongconnect(node_id)

        # Tarjan emits SCCs in reverse topological order (callees
        # before callers), so one forward pass over ``sccs`` converges.
        for component in sccs:
            summary: Set[str] = set()
            for node_id in component:
                summary |= self._own_effects(self.nodes[node_id])
            for node_id in component:
                for callee in self.nodes[node_id].callees:
                    done = self.summaries.get(callee)
                    if done is not None:
                        summary |= done
            frozen = frozenset(summary)
            for node_id in component:
                self.summaries[node_id] = frozen

    # -- queries -----------------------------------------------------------------

    def public_roots(self) -> List[str]:
        """Entry points dead-code reachability starts from: every
        non-underscore function/method plus constructors (nested defs
        are reached through their parents)."""
        return sorted(
            node_id for node_id, node in self.nodes.items()
            if node.public and not node.record["nested_in"]
        )

    def reachable_from(self, starts: Sequence[str]) -> Set[str]:
        seen: Set[str] = set()
        pending = [start for start in starts if start in self.nodes]
        while pending:
            node_id = pending.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            pending.extend(self.nodes[node_id].callees)
        return seen

    def roots_matching(self, quals: Sequence[str]) -> List[str]:
        return sorted(
            node_id for node_id, node in self.nodes.items()
            if node.qual in quals
        )

    # -- durability linearization -------------------------------------------------

    @staticmethod
    def _compress(atoms: List[str]) -> Tuple[str, ...]:
        out: List[str] = []
        for atom in atoms:
            if not out or out[-1] != atom:
                out.append(atom)
        return tuple(out)

    def flattened(self, node_id: str,
                  _stack: Tuple[str, ...] = ()) -> Tuple[str, ...]:
        """The function's ordered sequence of :data:`ORDERED_ATOMS`
        with callees inlined (consecutive duplicates collapsed, cycles
        cut at the recursion point)."""
        if node_id in self._seq_cache:
            return self._seq_cache[node_id]
        if node_id in _stack:
            return ()
        result = self._compress([
            atom for _l, _c, atom, _d in self.root_sequence(node_id, _stack)
        ])
        if not _stack:
            self._seq_cache[node_id] = result
        return result

    def root_sequence(self, node_id: str, _stack: Tuple[str, ...] = (),
                      ) -> List[Tuple[int, int, str, str]]:
        """Like :meth:`flattened` for a root, but keeping root-level
        source locations: callee expansions are attributed to their
        call site with a ``via <callee>`` detail."""
        node = self.nodes[node_id]
        merged: List[Tuple[int, int, str, str]] = [
            (line, col, atom, detail)
            for line, col, atom, detail in node.record["effects"]
            if atom in ORDERED_ATOMS
        ]
        # a call site that already yielded an intrinsic kept atom
        # (write_superblock, write_data, fire, ...) IS that event — do
        # not also inline the callee's body, or the volume's internal
        # device write shows up "after" the superblock atom
        intrinsic = {(line, col) for line, col, _atom, _detail in merged}
        for line, col, targets, display in node.resolved_calls:
            if (line, col) in intrinsic:
                continue
            for callee in targets:
                if not (self.summaries[callee] & ORDERED_ATOMS):
                    continue
                for atom in self.flattened(callee, _stack + (node_id,)):
                    merged.append((line, col, atom, f"via {display}"))
        merged.sort(key=lambda item: (item[0], item[1]))
        return merged

    # -- exports -----------------------------------------------------------------

    def to_json(self) -> dict:
        public = self.reachable_from(self.public_roots())
        nodes = []
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            nodes.append({
                "id": node_id,
                "module": node.module,
                "qual": node.qual,
                "line": node.line,
                "effects": sorted(self.summaries[node_id]),
                "own_effects": sorted({
                    atom for _l, _c, atom, _d in node.record["effects"]
                }),
                "reachable_from_public": node_id in public,
            })
        edges = sorted(
            [node_id, callee]
            for node_id, node in self.nodes.items()
            for callee in node.callees
        )
        return {
            "schema": 2,
            "nodes": nodes,
            "edges": edges,
        }

    def to_dot(self) -> str:
        """Graphviz rendering: effectful nodes only (the interesting
        subgraph), colored by their strongest externalization effect."""
        colors = (
            (SUPERBLOCK_WRITE, "#c62828"),
            (MEDIA_WRITE, "#ef6c00"),
            (FAILPOINT_FIRE, "#6a1b9a"),
            (OBS_EMIT, "#2e7d32"),
        )
        keep = {
            node_id for node_id, summary in self.summaries.items() if summary
        }
        lines = [
            "digraph sls_effects {",
            "  rankdir=LR;",
            '  node [shape=box, fontsize=10, fontname="monospace"];',
        ]
        for node_id in sorted(keep):
            node = self.nodes[node_id]
            summary = self.summaries[node_id]
            color = "#9e9e9e"
            for atom, atom_color in colors:
                if atom in summary:
                    color = atom_color
                    break
            label = f"{node.qual}\\n{node.relpath}"
            lines.append(
                f'  "{node_id}" [label="{label}", color="{color}"];'
            )
        for node_id in sorted(keep):
            for callee in self.nodes[node_id].callees:
                if callee in keep:
                    lines.append(f'  "{node_id}" -> "{callee}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
