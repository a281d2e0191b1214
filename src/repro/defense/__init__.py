"""Mitigations and local defenses (paper §VI-C).

* :mod:`repro.defense.mitigations` — the CDN-side fixes the paper
  proposes (and that several vendors deployed): switching to the
  Laziness policy (G-Core's "slice" option), bounding expansion to a few
  KB, and enforcing RFC 7233 §6.1's guard against overlapping /
  many-small multi-range requests (CDN77's fix).
* :mod:`repro.defense.ratelimit` — per-client token-bucket rate
  limiting, illustrating why the paper considers local DoS defense
  insufficient.
"""

from __future__ import annotations
