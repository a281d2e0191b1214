"""CDN simulator.

The heart of the reproduction: a CDN edge-node model whose Range-header
handling is configurable per vendor, encoding the behaviors the paper
measured on 13 commercial CDNs (Tables I–III):

* :mod:`repro.cdn.policy` — the three forwarding policies (*Laziness*,
  *Deletion*, *Expansion*) and expansion arithmetic.
* :mod:`repro.cdn.window` — the slice of the resource a node holds after
  fetching from upstream.
* :mod:`repro.cdn.limits` — request-header size limits (they bound the
  OBR attack's ``n``).
* :mod:`repro.cdn.cache` — the edge cache (full-response caching keyed on
  the full URL, which is what query-string cache-busting defeats).
* :mod:`repro.cdn.multirange` — how a node replies to multi-range
  requests (honor / coalesce / first-only / reject).
* :mod:`repro.cdn.node` — the request pipeline tying it all together.
* :mod:`repro.cdn.vendors` — the 13 vendor profiles and their registry.
"""

from __future__ import annotations
