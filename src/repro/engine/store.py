"""Content-addressed on-disk result store.

Layout (under ``~/.cache/repro`` by default, or ``--store PATH`` /
``$REPRO_STORE``)::

    <root>/v1/results/<key[:2]>/<key>.json   one record per job
    <root>/v1/journals/<sweep>.jsonl         run journals (see journal.py)

Each record is ``{"key", "kind", "created", "result"}`` where
``result`` is the job's serialized payload (``RunResult.to_dict()`` for
single-core jobs).  Writes are atomic (temp file + ``os.replace``) so a
parallel sweep or an interrupt can never leave a half-written record;
unreadable records are treated as misses.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional

#: bump when the record format changes; old trees are simply ignored.
STORE_VERSION = "v1"


def default_store_path() -> Path:
    """``$REPRO_STORE`` if set, else ``$XDG_CACHE_HOME``/``~/.cache``."""
    env = os.environ.get("REPRO_STORE")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


class ResultStore:
    """Keyed JSON records on disk; ``get`` misses never raise."""

    def __init__(self, root: "str | Path | None" = None) -> None:
        self.root = (
            Path(root).expanduser() if root is not None else default_store_path()
        )

    @property
    def results_dir(self) -> Path:
        return self.root / STORE_VERSION / "results"

    @property
    def journals_dir(self) -> Path:
        return self.root / STORE_VERSION / "journals"

    def _path(self, key: str) -> Path:
        return self.results_dir / key[:2] / f"{key}.json"

    def get(self, key: Optional[str]) -> Optional[Dict[str, object]]:
        """The full record for ``key``, or ``None`` on any miss."""
        if key is None:
            return None
        try:
            record = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            return None
        return record

    def put(self, key: str, kind: str, result_data: Dict[str, object]) -> Path:
        """Atomically write one record; concurrent writers are safe."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "key": key,
            "kind": kind,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "result": result_data,
        }
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            # dumps runs the C encoder; dump streams through the
            # pure-Python one, about three times slower per record.
            with os.fdopen(handle, "w") as tmp:
                tmp.write(json.dumps(record))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and self.get(key) is not None

    def __len__(self) -> int:
        if not self.results_dir.is_dir():
            return 0
        return sum(
            1
            for p in self.results_dir.rglob("*.json")
            if not p.name.startswith(".tmp-")
        )

    def clear(self) -> None:
        """Drop every stored result (journals are kept)."""
        shutil.rmtree(self.results_dir, ignore_errors=True)


def coerce_store(
    store: "ResultStore | str | Path | None",
) -> Optional[ResultStore]:
    """Accept a ResultStore, a path, or None (store disabled)."""
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)
