"""Content-addressed on-disk cache of compiled templates.

Template compilation dominates the batch fast path's cold start: the
floorplanner, the per-architecture ``compile_terms`` closed forms and the
cost terms are all recomputed by every fresh process even though they are
pure functions of the template key.  :class:`DiskCompileCache` persists
compiled templates to a directory so they are shared across processes, runs
and server restarts: a sweep worker (or a restarted ``eco-chip serve``)
that compiles a template some earlier process already compiled loads the
pickled result instead of recomputing it.

Design:

* **Content-addressed.**  Every entry lives at
  ``root/<digest[:2]>/<digest>.pkl`` where the digest is the SHA-256 of the
  entry kind, a *salt* (estimator config, technology-table content hash via
  :func:`repro.technology.nodes.table_signature`, cost flag) and the same
  canonical :data:`TemplateKey` signature the in-memory template cache
  uses.  Floorplans are not persisted: recomputing one costs less than a
  disk probe.  There is no index file and nothing to lock.
* **Versioned.**  The digest also folds in :data:`CACHE_FORMAT_VERSION`
  and :data:`repro.plugins.PLUGIN_API_VERSION`, so a format change, a
  plugin-API bump or a technology-table edit simply makes every old entry
  unreachable — stale entries are never *read*, only orphaned.
* **Crash-safe.**  Writes go to a unique temporary file in the same
  directory followed by :func:`os.replace`, so readers only ever see
  complete entries; concurrent writers of the same entry race benignly
  (last rename wins, all payloads are identical by construction).
* **Self-verifying.**  Each pickle carries its own key material; a load
  whose recorded key mismatches the request (hash collision, truncation
  that still unpickles) — or that fails to unpickle at all — counts as a
  miss and the entry is rewritten.

Results are bit-identical to a cold compile: unpickling floats restores
the exact IEEE-754 bits the compiler produced, and the evaluation
arithmetic downstream of the template is unchanged.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import uuid
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.plugins import PLUGIN_API_VERSION

__all__ = ["CACHE_FORMAT_VERSION", "DiskCompileCache", "as_disk_cache"]

#: Bump when the on-disk entry layout (or the meaning of cached values)
#: changes; old entries become unreachable, not misread.  Version 2: an
#: adjacency-free floorplan entry is a placement-less outline, which a
#: version-1 reader would have "upgraded" to empty adjacencies.  Floorplan
#: entries are no longer written; old ones are simply never read.
CACHE_FORMAT_VERSION = 2


@lru_cache(maxsize=4096)
def _address(fmt: int, api: Any, kind: str, salt: Any, key: Any) -> Tuple[str, str]:
    """(token, relative path) of an entry — memoised.

    A long-running process (sweep workers, the serve loop, back-to-back
    estimators in one run) probes the same handful of keys over and over;
    the token repr and SHA-256 are pure functions of the arguments, so the
    cache trades a dict hit for a hash+repr per probe.  The format/API
    versions are part of the cache key rather than read from the globals
    here, so bumping either (including via monkeypatch) can never serve a
    stale address.
    """
    token = repr((fmt, api, kind, salt, key))
    digest = hashlib.sha256(token.encode("utf-8")).hexdigest()
    return token, os.path.join(digest[:2], f"{digest}.pkl")


class DiskCompileCache:
    """A directory of pickled compile artifacts, shared across processes.

    Args:
        root: Cache directory (created, with parents, when missing).

    The instance itself is cheap and stateless apart from counters; every
    ``load``/``store`` goes straight to the filesystem, so any number of
    processes (and threads) may point at the same directory concurrently.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._root_str = str(self.root)
        #: Probe counters (GIL-atomic increments, mirroring the in-memory
        #: template counters) — surfaced through ``stats()``.
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: Unreadable entries tolerated as misses (corrupt/truncated pickle,
        #: unimportable plugin class, key mismatch).
        self.errors = 0

    # -- addressing -------------------------------------------------------------------
    @staticmethod
    def entry_token(kind: str, salt: Any, key: Any) -> str:
        """The canonical string a (kind, salt, key) triple is addressed by.

        ``repr`` of plain values (floats, strings, bools, ``None``, nested
        tuples) is deterministic across processes, which is exactly the
        value domain of the template signatures.
        """
        return repr((CACHE_FORMAT_VERSION, PLUGIN_API_VERSION, kind, salt, key))

    @staticmethod
    def _address_for(kind: str, salt: Any, key: Any) -> Tuple[str, str]:
        """Memoised (token, relative path); falls back for unhashable keys."""
        try:
            return _address(CACHE_FORMAT_VERSION, PLUGIN_API_VERSION, kind, salt, key)
        except TypeError:
            token = repr((CACHE_FORMAT_VERSION, PLUGIN_API_VERSION, kind, salt, key))
            digest = hashlib.sha256(token.encode("utf-8")).hexdigest()
            return token, os.path.join(digest[:2], f"{digest}.pkl")

    def path_for(self, kind: str, salt: Any, key: Any) -> Path:
        """Entry path of a (kind, salt, key) triple."""
        _token, relative = self._address_for(kind, salt, key)
        return self.root / relative

    # -- I/O --------------------------------------------------------------------------
    def load(self, kind: str, salt: Any, key: Any) -> Optional[Any]:
        """The cached value of a triple, or ``None`` (counts hit/miss).

        Every failure mode — missing file, torn/corrupt pickle, a value
        class that no longer imports, a key mismatch — degrades to a miss:
        the caller recomputes and overwrites the entry.
        """
        token, relative = self._address_for(kind, salt, key)
        try:
            with open(os.path.join(self._root_str, relative), "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:  # noqa: BLE001 - any unreadable entry is a miss
            self.errors += 1
            self.misses += 1
            return None
        if not isinstance(payload, dict) or payload.get("token") != token:
            self.errors += 1
            self.misses += 1
            return None
        self.hits += 1
        return payload["value"]

    def store(self, kind: str, salt: Any, key: Any, value: Any) -> None:
        """Persist ``value`` crash-safely (temp file + atomic rename).

        A failed write (full disk, permission loss) is swallowed: the cache
        is an accelerator, never a correctness dependency.
        """
        token, relative = self._address_for(kind, salt, key)
        path = os.path.join(self._root_str, relative)
        payload = {"token": token, "value": value}
        tmp = f"{path}.tmp-{os.getpid()}-{uuid.uuid4().hex}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            self.writes += 1
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- introspection ----------------------------------------------------------------
    def entry_count(self) -> int:
        """Number of complete entries currently on disk."""
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def stats(self) -> Dict[str, int]:
        """Probe counters plus the on-disk entry count."""
        return {
            "disk_hits": self.hits,
            "disk_misses": self.misses,
            "disk_writes": self.writes,
            "disk_errors": self.errors,
            "disk_entries": self.entry_count(),
        }

    # -- pickling (ships the mount point, not the counters) ---------------------------
    def __reduce__(self) -> Tuple[Any, Tuple[str]]:
        return (self.__class__, (str(self.root),))


def as_disk_cache(
    cache: Union["DiskCompileCache", str, Path, None],
) -> Optional[DiskCompileCache]:
    """Normalise a ``persistent_cache=`` argument: instance, directory or None."""
    if cache is None or isinstance(cache, DiskCompileCache):
        return cache
    if isinstance(cache, (str, Path)):
        return DiskCompileCache(cache)
    raise TypeError(
        f"persistent_cache must be a DiskCompileCache, a directory path or "
        f"None, got {type(cache).__name__}"
    )
