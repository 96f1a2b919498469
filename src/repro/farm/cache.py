"""The content-addressed result cache.

Results live one file per digest under ``<root>/<digest[:2]>/<digest>.json``
holding the job's canonical spec, its ``RunStats.to_dict()``, and the
*code-version fingerprint* of the ``repro`` source tree at write time. A
lookup whose stored fingerprint differs from the running code's is
*stale* and treated as a miss, so editing any simulator source
automatically invalidates every cached result — no manual bookkeeping.

The cache stores pure data (never pickles), so entries survive Python
upgrades and are safe to commit or ship between machines.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time
from typing import Optional, Union

from ..core.stats import RunStats
from .job import JobSpec, sha256

#: cache entry wire format; bump on incompatible layout changes
CACHE_SCHEMA = "repro.farm-result/1"

_FINGERPRINT_CACHE: dict = {}


def code_fingerprint(root: Union[str, pathlib.Path, None] = None) -> str:
    """Digest of every ``*.py`` file of the running ``repro`` package.

    Cached per path per process.
    """
    if root is None:
        import repro
        root = pathlib.Path(repro.__file__).resolve().parent
    root = pathlib.Path(root)
    key = str(root)
    got = _FINGERPRINT_CACHE.get(key)
    if got is not None:
        return got
    h = sha256()
    for p in sorted(root.rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(b"\0")
        h.update(sha256(p.read_bytes()).digest())
    _FINGERPRINT_CACHE[key] = out = h.hexdigest()
    return out


class ResultCache:
    """Digest-keyed store of :class:`~repro.core.stats.RunStats`.

    ``get``/``put`` count hits, misses, stale entries, and writes;
    :meth:`stats` exposes the counters for farm summaries and the CI
    cache-effectiveness assertion.
    """

    def __init__(self, root: Union[str, pathlib.Path],
                 fingerprint: Optional[str] = None):
        self.root = pathlib.Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.puts = 0

    def _path(self, digest: str) -> pathlib.Path:
        return self.root / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------
    def get_entry(self, digest: str) -> Optional[dict]:
        """The raw stored document for ``digest``, fingerprint-checked."""
        path = self._path(digest)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (doc.get("schema") != CACHE_SCHEMA
                or doc.get("fingerprint") != self.fingerprint):
            # A stale entry is also a miss: the caller must execute the
            # job. Keeping the invariant hits + misses == lookups means
            # hit-rate assertions (CI) cannot be skewed by code drift.
            self.stale += 1
            self.misses += 1
            return None
        self.hits += 1
        return doc

    def get(self, digest: str) -> Optional[RunStats]:
        """Cached stats for ``digest``, or None on miss/staleness."""
        doc = self.get_entry(digest)
        if doc is None:
            return None
        return RunStats.from_dict(doc["stats"])

    def put(self, spec: JobSpec, stats: RunStats,
            wall_s: float = 0.0) -> pathlib.Path:
        """Store one result; atomic (write-then-rename) per entry."""
        digest = spec.digest()
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": CACHE_SCHEMA,
            "digest": digest,
            "fingerprint": self.fingerprint,
            "created": time.time(),
            "wall_s": wall_s,
            "spec": spec.canonical(),
            "stats": stats.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(doc, f, indent=2)
                f.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.puts += 1
        return path

    def contains(self, digest: str) -> bool:
        """True when a *fresh* entry exists (does not touch counters)."""
        path = self._path(digest)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return False
        return (doc.get("schema") == CACHE_SCHEMA
                and doc.get("fingerprint") == self.fingerprint)

    # ------------------------------------------------------------------
    def entries(self) -> int:
        """Number of stored result files (fresh or stale)."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = 0
        if self.root.is_dir():
            for p in self.root.glob("*/*.json"):
                p.unlink(missing_ok=True)
                n += 1
            for d in self.root.iterdir():
                if d.is_dir():
                    try:
                        d.rmdir()
                    except OSError:
                        pass
        return n

    def stats(self) -> dict:
        """Counter snapshot: hits/misses/stale/puts plus entry count."""
        return {"hits": self.hits, "misses": self.misses,
                "stale": self.stale, "puts": self.puts,
                "entries": self.entries()}
