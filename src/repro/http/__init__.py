"""HTTP/1.1 message substrate.

This package implements the pieces of HTTP/1.1 that the RangeAmp attacks
exercise, at wire-byte accuracy:

* :mod:`repro.http.headers` — ordered, case-insensitive header map.
* :mod:`repro.http.status` — status codes and reason phrases.
* :mod:`repro.http.body` — byte-exact bodies, including a synthetic body
  type that represents multi-megabyte payloads without allocating them.
* :mod:`repro.http.message` — :class:`HttpRequest` / :class:`HttpResponse`
  with exact wire serialization and size accounting.
* :mod:`repro.http.ranges` — the RFC 7233 ``Range`` / ``Content-Range``
  grammar: parsing, formatting, validation, and satisfiability resolution.
* :mod:`repro.http.multipart` — the ``multipart/byteranges`` codec.
* :mod:`repro.http.grammar` — deterministic generation of valid Range
  headers from the RFC ABNF (the paper's first-experiment dataset).
"""

from __future__ import annotations
