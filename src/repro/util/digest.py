"""Canonical JSON and content digests.

Three on-disk key spaces hash JSON payloads the same way: result-cache
entry keys (:func:`repro.campaign.cache.cache_key`), study checkpoint
spec hashes (:func:`repro.resilience.checkpoint.spec_digest`) and the
service layer's :attr:`~repro.study.spec.StudySpec.spec_id` job keys.
They must agree byte-for-byte — a client, a checkpoint and the dedupe
index all have to derive the *same* id from the same spec — so the
canonicalisation lives here, once.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["canonical_json", "content_digest"]

# ``json.dumps`` with these options builds the same encoder on every
# call; one shared encoder (it keeps no state between calls) writes the
# same bytes.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """The unique JSON text of a JSON-safe object.

    Keys sorted, no whitespace: two equal payloads serialise to the
    same string regardless of dict insertion order.
    """
    return _ENCODER.encode(obj)


def content_digest(obj) -> str:
    """Hex SHA-256 of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()
