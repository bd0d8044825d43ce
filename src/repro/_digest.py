"""Canonical JSON and the content digests built on it.

One encoding keys everything content-addressed in the repo: run-ledger
cell and config digests, sealed serving checkpoints and trace-cache
JSON envelopes.  It lives here, below every subsystem, so ``traces``
and ``serve`` can share it without importing ``repro.runs``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["canonical_json", "content_digest", "file_digest"]


def canonical_json(value: Any) -> str:
    """The canonical (sorted-key, compact) JSON encoding of ``value``.

    Content keys — cell identity, config digests, artifact digests —
    are all computed over this encoding, so they are stable across
    processes, dict orderings and Python versions.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def content_digest(value: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json`\\ (value)."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    """SHA-256 hex digest of a file's exact bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
