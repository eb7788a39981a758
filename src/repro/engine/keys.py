"""Content-addressed job keys.

A job key is the SHA-256 of a canonical-JSON payload describing
*everything that determines the result*: benchmark, policy, the full
:class:`~repro.experiments.runner.ExperimentScale` (which carries the
trace seed), any cache-geometry override, and a digest of the simulator
source code.  Same key -> same result, so the on-disk store can return a
cached :class:`~repro.cpu.core.RunResult` without re-simulating; any
change to an input (or to the simulator itself) changes the key and
naturally invalidates stale entries.

See ``docs/ENGINE.md`` for the exact hashing scheme.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import Dict, Mapping

import repro

#: top-level package entries whose source does NOT affect simulation
#: results: the engine and sweep service (orchestration only) and the CLI.
_NON_SEMANTIC = {"engine", "service", "cli.py", "__main__.py", "__pycache__"}


#: source suffixes that determine results: Python and the native
#: kernel's C source.
_SOURCE_SUFFIXES = {".py", ".c"}


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every simulator source file (orchestration excluded).

    Hashed once per process; editing any ``.py`` or ``.c`` file under
    ``repro/`` other than ``engine/``/``cli.py`` changes the digest and
    therefore every job key, so a stale store can never serve results
    from old code.
    """
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.suffix not in _SOURCE_SUFFIXES:
            continue
        rel = path.relative_to(root).as_posix()
        if rel.split("/", 1)[0] in _NON_SEMANTIC:
            continue
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def scale_payload(scale) -> Dict[str, object]:
    """All fields of an ``ExperimentScale`` (or any frozen dataclass)."""
    return asdict(scale)


def job_key(payload: Mapping[str, object]) -> str:
    """SHA-256 over canonical JSON of ``payload`` + the code version."""
    body = dict(payload)
    body["code"] = code_version()
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
