"""``registry-drift``: instrument names come from the catalogues.

Span, tracepoint, metric, and failpoint names live in exactly two
places — :mod:`repro.obs.names` and :mod:`repro.fault.names` — and
the docs tests pin those catalogues to OBSERVABILITY.md / FAULTS.md.
That chain only holds if instrumented modules *import the constants*:
an inline ``"objstore.gc"`` string would keep working today and drift
silently the day the catalogue renames it.

Three checks:

1. calls to the instrument APIs (``span``/``event``/``counter``/
   ``gauge``/``histogram``/``fire``/``arm``) must not pass a string
   literal as the name — variables and imported constants are fine;
2. no string literal in an instrumented module may equal a catalogue
   value (spelled-out copies of a registry name, wherever they hide);
3. every catalogue constant must be referenced somewhere outside its
   defining module — an unreferenced constant is dead weight the docs
   still advertise (reserve intentionally with an inline suppression).
"""

from __future__ import annotations

import ast
from typing import Dict, List

from repro.analysis.core import Finding, ProjectTree, Rule, SourceModule

#: methods whose first argument names an instrument or failpoint
INSTRUMENT_CALLS = frozenset({
    "span", "event", "counter", "gauge", "histogram", "fire", "arm", "_fire",
    "_failpoint",
})
#: dotted paths that make a module "instrumented" when imported
REGISTRY_IMPORTS = ("repro.obs.names", "repro.fault.names")


class RegistryDriftRule(Rule):
    name = "registry-drift"
    summary = (
        "instrument/failpoint names are imported catalogue constants, "
        "and every catalogue constant is referenced"
    )

    #: facts-cache extractor version (bump when the facts change shape)
    version = 1

    def check(self, tree: ProjectTree) -> List[Finding]:
        config = tree.config
        facts = tree.facts(
            self.name, self.version,
            lambda mod: self._extract(mod, config),
        )

        findings: List[Finding] = []
        referenced: Dict[str, int] = {}
        for relpath in facts:
            findings.extend(
                Finding.from_json(data) for data in facts[relpath]["findings"]
            )
            for symbol, count in facts[relpath]["refs"].items():
                referenced[symbol] = referenced.get(symbol, 0) + count

        for registry_path, constants in (
            (config.registry_modules[0], config.obs_registry),
            (config.registry_modules[-1], config.fault_registry),
        ):
            defined = facts.get(registry_path)
            if defined is None:
                continue
            for name in defined["constants"]:
                if name not in constants or referenced.get(name, 0):
                    continue
                line, col = defined["constants"][name]
                findings.append(Finding(
                    rule=self.name,
                    path=registry_path,
                    line=line,
                    col=col,
                    message=(
                        f"catalogue constant {name} "
                        f"({constants[name]!r}) is never referenced; "
                        "delete it or suppress with a justification"
                    ),
                    symbol=name,
                ))
        return findings

    def _extract(self, mod: SourceModule, config) -> dict:
        """Per-module facts: inline-literal findings, catalogue symbol
        reference counts, and (for the registry modules themselves)
        the constant definition sites."""
        values = {}
        values.update(config.obs_registry)
        values.update(config.fault_registry)
        is_registry_def = mod.relpath in config.registry_modules

        refs: Dict[str, int] = {}
        if not is_registry_def:
            self._count_references(mod, values, refs)

        findings: List[Finding] = []
        exempt = is_registry_def or any(
            mod.relpath.startswith(prefix) for prefix in config.drift_exempt
        )
        if not exempt and any(
            mod.imports.imports_module(dotted) for dotted in REGISTRY_IMPORTS
        ):
            findings = self._check_literals(mod, frozenset(values.values()))

        constants: Dict[str, list] = {}
        if is_registry_def:
            for node in ast.walk(mod.tree):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and node.targets[0].id in values):
                    constants[node.targets[0].id] = [
                        node.lineno, node.col_offset,
                    ]
        return {
            "findings": [finding.to_json() for finding in findings],
            "refs": refs,
            "constants": constants,
        }

    def _count_references(self, mod: SourceModule, values: Dict[str, str],
                          refs: Dict[str, int]) -> None:
        """Count uses of catalogue constants: attribute accesses
        (``obs_names.SPAN_GC``) and imported names."""
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Attribute) and node.attr in values:
                refs[node.attr] = refs.get(node.attr, 0) + 1
            elif isinstance(node, ast.Name) and node.id in values:
                refs[node.id] = refs.get(node.id, 0) + 1

    def _check_literals(self, mod: SourceModule,
                        value_set: frozenset) -> List[Finding]:
        findings: List[Finding] = []

        def finding(node: ast.AST, message: str) -> Finding:
            return Finding(
                rule=self.name,
                path=mod.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=message,
                symbol=mod.enclosing_symbol(node.lineno),
            )

        literal_name_args = set()
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in INSTRUMENT_CALLS
                    and node.args):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                literal_name_args.add(id(first))
                findings.append(finding(
                    first,
                    f"inline instrument name {first.value!r} passed to "
                    f".{node.func.attr}(); import the constant from "
                    "repro.obs.names / repro.fault.names",
                ))
        for node in ast.walk(mod.tree):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value in value_set
                    and id(node) not in literal_name_args
                    and node.lineno not in mod.docstring_lines):
                findings.append(finding(
                    node,
                    f"string literal {node.value!r} duplicates a catalogue "
                    "name; use the imported constant",
                ))
        return findings

