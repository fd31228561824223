"""Canonical JSON: sorted keys, compact separators, one encoder.

Every byte-stable text the package writes or hashes (journal and
history JSONL, SLO ledgers, campaign result lines, the partition-map
digest) goes through :data:`canonical_json`.  ``json.dumps`` with
these options builds a new ``JSONEncoder`` on every call; this one is
built once, and its output is the same text.
"""

import json

#: ``canonical_json(obj)`` -> the canonical JSON text of ``obj``.
canonical_json = json.JSONEncoder(sort_keys=True,
                                  separators=(",", ":")).encode
