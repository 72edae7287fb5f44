"""Content-addressed on-disk cache of run results.

Every slowdown figure in the benchmark suite re-runs the same solo
baselines; across the 21 experiments that is hours of duplicated
simulation.  The cache stores one JSON file per
:meth:`~repro.runner.spec.RunSpec.content_hash` under a cache root
(``.repro_cache/`` by default), so any run is simulated at most once
per machine -- across processes, pytest sessions, and figures.

Layout: entries are **sharded** by the first two hex characters of the
content hash (``<root>/<hh>/<hash>.json``, 256 directories), so a
store holding hundreds of thousands of entries never produces a
directory large enough for lookups, temp-file creation, or ``ls`` to
crawl.

Robustness rules:

* every entry is versioned by a schema tag and validated against the
  spec hash on read; anything corrupt, truncated, or stale is
  *discarded and recomputed*, never trusted and never fatal;
* writes are atomic (temp file + ``os.replace``), so a crashed or
  concurrent writer can not leave a torn entry behind;
* the whole mechanism turns off with ``REPRO_CACHE=off``.
"""

from __future__ import annotations

# repro: config-layer -- this module resolves environment knobs
import json
import os
import tempfile
from typing import Optional

from repro.errors import CacheError
from repro.runner.spec import RunSpec
from repro.runner.summary import RunSummary
from repro.telemetry.log import get_logger

_log = get_logger(__name__)

#: Bump when the cache payload layout changes; old entries are then
#: silently treated as misses and rewritten.
CACHE_SCHEMA = 1

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Hex characters of the content hash used as the shard directory
#: name: 2 -> 256 shards.
SHARD_CHARS = 2



class ResultCache:
    """A sharded directory of ``<hh>/<spec-hash>.json`` result files.

    Args:
        root: Cache directory; created lazily on the first write.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR) -> None:
        self.root = root
        #: Lifetime lookup accounting (cumulative across batches; a
        #: poisoned entry counts as both ``poisoned`` and ``misses``
        #: because the caller recomputes it).
        self.hits = 0
        self.misses = 0
        self.poisoned = 0

    @classmethod
    def from_env(cls) -> Optional["ResultCache"]:
        """Build a cache honouring the ``REPRO_CACHE`` variable.

        Returns:
            ``None`` when caching is disabled (``REPRO_CACHE`` set to
            ``off``, ``0``, ``no``, or ``false``); otherwise a cache
            rooted at ``$REPRO_CACHE`` (default ``.repro_cache/``).
        """
        value = os.environ.get("REPRO_CACHE", "").strip()
        if value.lower() in ("off", "0", "no", "false"):
            return None
        return cls(value or DEFAULT_CACHE_DIR)

    def _entry_path(self, digest: str) -> str:
        return os.path.join(
            self.root, digest[:SHARD_CHARS], f"{digest}.json"
        )

    def path_for(self, spec: RunSpec) -> str:
        """Filesystem path of the entry for ``spec``."""
        return self._entry_path(spec.content_hash())

    def get(self, spec: RunSpec) -> Optional[RunSummary]:
        """Return the cached summary for ``spec``, or None on a miss.

        A poisoned entry (unreadable JSON, wrong schema, hash
        mismatch, malformed payload) is deleted so the caller simply
        recomputes; corruption can cost time, never correctness.
        """
        digest = spec.content_hash()
        path = self._entry_path(digest)
        try:
            with open(path) as fh:
                payload = json.load(fh)
            if payload["schema"] != CACHE_SCHEMA:
                raise CacheError(f"schema {payload['schema']!r}")
            if payload["spec_hash"] != digest:
                raise CacheError("spec hash mismatch")
            summary = RunSummary.from_dict(payload["summary"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception as exc:
            self.poisoned += 1
            self.misses += 1
            _log.warning("discarding poisoned cache entry %s (%s)", path, exc)
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return summary

    def put(self, spec: RunSpec, summary: RunSummary) -> str:
        """Atomically store ``summary`` under ``spec``'s hash."""
        digest = spec.content_hash()
        path = self._entry_path(digest)
        shard = os.path.dirname(path)
        os.makedirs(shard, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "spec_hash": digest,
            "summary": summary.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path
