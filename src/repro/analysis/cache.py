"""The per-module summary cache behind incremental ``sls lint``.

Every rule derives its per-module facts (findings, effect summaries,
reference counts) through :meth:`repro.analysis.core.ProjectTree.facts`,
which keys each entry by the module's *content hash* plus the
extractor's kind/version and the analyzer config fingerprint.  This
module stores those entries in one boring JSON file
(``.sls-lint-cache.json`` at the repo root, gitignored): a warm run
re-reads sources only to hash them, serves every unchanged module from
the cache without parsing it, and re-extracts exactly the modules that
changed — that is the whole incremental story, no daemons.

The file is disposable by construction: a missing, truncated, or
version-skewed cache is treated as empty and silently rebuilt, so it
can never wedge a lint run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

DEFAULT_CACHE_NAME = ".sls-lint-cache.json"

#: bump to invalidate every entry (cache schema changes, or an
#: extractor namespace retired: warm files must not carry it forward)
CACHE_SCHEMA = 2


class SummaryCache:
    """Content-hash-keyed per-module facts, one JSON file per tree."""

    def __init__(self, path: Optional[Path] = None):
        self.path = Path(path) if path is not None else None
        #: relpath -> {"hash": content hash, "facts": {key: payload}}
        self.entries: Dict[str, dict] = {}
        #: relpaths touched this run (save() prunes the rest)
        self._seen: set = set()
        self.hits = 0
        self.misses = 0

    @classmethod
    def load(cls, path: Path) -> "SummaryCache":
        cache = cls(path)
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            return cache  # absent or damaged: start empty
        if data.get("schema") != CACHE_SCHEMA:
            return cache
        modules = data.get("modules")
        if isinstance(modules, dict):
            cache.entries = {
                relpath: entry for relpath, entry in modules.items()
                if isinstance(entry, dict) and "hash" in entry
            }
        return cache

    def get(self, relpath: str, content_hash: str, key: str):
        """Cached facts for (module, extractor key), or None."""
        self._seen.add(relpath)
        entry = self.entries.get(relpath)
        if entry is None or entry.get("hash") != content_hash:
            self.misses += 1
            return None
        payload = entry.get("facts", {}).get(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, relpath: str, content_hash: str, key: str, payload) -> None:
        self._seen.add(relpath)
        entry = self.entries.get(relpath)
        if entry is None or entry.get("hash") != content_hash:
            # content changed: every older extractor's facts are stale
            entry = {"hash": content_hash, "facts": {}}
            self.entries[relpath] = entry
        entry["facts"][key] = payload

    def save(self, path: Optional[Path] = None) -> None:
        """Persist, dropping entries for files no longer in the tree."""
        target = Path(path) if path is not None else self.path
        if target is None:
            return
        modules = {
            relpath: self.entries[relpath]
            for relpath in sorted(self.entries)
            if relpath in self._seen
        }
        payload = {"schema": CACHE_SCHEMA, "modules": modules}
        target.write_text(json.dumps(payload, sort_keys=True) + "\n")
