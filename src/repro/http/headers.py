"""Ordered, case-insensitive HTTP header map.

HTTP header field names are case-insensitive (RFC 7230 §3.2), but their
order on the wire matters for byte accounting, and repeated fields (e.g.
``Via``, ``Set-Cookie``) are legal.  :class:`Headers` therefore stores an
ordered list of ``(name, value)`` pairs and provides case-insensitive
lookup on top of it.

Wire-size accounting is a first-class concern for this library: the
amplification factors reported by the paper are ratios of response bytes,
and header weight is exactly what differentiates the per-CDN slopes in
Fig 6a.  :meth:`Headers.wire_size` returns the exact number of bytes the
header block occupies when serialized (``name: value\\r\\n`` per field).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import HeaderError

#: RFC 7230 §3.2.6 ``token``: 1*tchar, i.e. 0x21-0x7E minus the
#: delimiters ``"(),/:;<=>?@[\]{}``.  Header names and Range units are
#: tokens.
TOKEN_RE = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
_token = TOKEN_RE.fullmatch

#: RFC 7230 §3.2.3 optional whitespace, ``*( SP / HTAB )``: all a field
#: value is trimmed of.  ``str.strip()`` would also eat VT, FS, NEL and
#: NBSP, so ``Content-Length: 5\xa0`` would declare 5.
OWS = " \t"


def parse_decimal(text: str) -> Optional[int]:
    """``1*DIGIT`` as an int, or None when ``text`` is anything else.

    DIGIT is ASCII ``0-9`` only (RFC 5234): signs, underscores, other
    scripts' digits and surrounding whitespace are not decimal, and
    neither is a number longer than ``int()`` converts.
    """
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            return None
    return None


def declared_length(headers: Headers) -> Optional[int]:
    """The body length ``headers`` declare, or None without Content-Length.

    RFC 7230 §3.3.3: a repeated Content-Length field or a value that is
    not ``1*DIGIT`` (a sign, a list, text) leaves the framing invalid,
    so it raises instead of guessing which length the sender meant.
    """
    values = headers.get_all("Content-Length")
    if not values:
        return None
    if len(values) > 1:
        raise HeaderError(f"{len(values)} Content-Length fields")
    raw = values[0].strip(OWS)
    length = parse_decimal(raw)
    if length is None:
        raise HeaderError(f"Content-Length is not a non-negative integer: {raw[:32]!r}")
    return length


def _check_name(name: str) -> None:
    """Raise :class:`HeaderError` unless ``name`` is a ``token``."""
    if _token(name) is not None:
        return
    if not name:
        raise HeaderError("header name must be non-empty")
    for ch in name:
        if _token(ch) is None:
            raise HeaderError(f"invalid character {ch!r} in header name {name!r}")


def _check_value(value: str) -> None:
    if "\r" in value or "\n" in value:
        raise HeaderError(f"CR/LF injection in header value {value!r}")


class Headers:
    """An ordered multimap of HTTP header fields.

    Every field is validated on the way in (``add``, ``set``, the
    constructor and :meth:`parse`): the name must be a ``token`` and the
    value must hold no CR or LF.  Lookups are keyed: a list of lowered
    names runs parallel to the fields, so ``get``, ``in`` and friends
    search it with ``list.index`` instead of lowering every stored name.
    :meth:`wire_size` is a running total kept by every mutation.

    >>> h = Headers([("Host", "example.com")])
    >>> h.set("Content-Length", "5")
    >>> h.get("host")
    'example.com'
    >>> h.wire_size()
    38
    """

    __slots__ = ("_items", "_keys", "_size")

    def __init__(self, items: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        self._items: List[Tuple[str, str]] = []
        #: ``name.lower()`` of each field in ``_items``, in the same order.
        self._keys: List[str] = []
        self._size = 0
        if items is None:
            return
        fields, keys = self._items, self._keys
        size = 0
        # The checks of add(), inline: vendor and origin header blocks
        # are built here on every simulated exchange.
        for name, value in items:
            value = str(value)
            if _token(name) is None:
                _check_name(name)
            if "\r" in value or "\n" in value:
                _check_value(value)
            fields.append((name, value))
            keys.append(name.lower())
            size += len(name) + len(value) + 4
        self._size = size

    # -- mutation -----------------------------------------------------------

    def add(self, name: str, value: str) -> None:
        """Append a field, keeping any existing fields of the same name."""
        value = str(value)
        if _token(name) is None:
            _check_name(name)
        if "\r" in value or "\n" in value:
            _check_value(value)
        self._items.append((name, value))
        self._keys.append(name.lower())
        self._size += len(name) + len(value) + 4

    def set(self, name: str, value: str) -> None:
        """Replace all fields named ``name`` with a single field.

        The replacement occupies the position of the first existing field
        of that name, or is appended if the name is new.
        """
        key = name.lower()
        if key not in self._keys:
            self.add(name, value)
            return
        value = str(value)
        _check_name(name)
        _check_value(value)
        self._replace(key, [(name, value)])

    def remove(self, name: str) -> int:
        """Delete all fields named ``name``; return how many were removed."""
        key = name.lower()
        if key not in self._keys:
            return 0
        before = len(self._items)
        self._replace(key, [])
        return before - len(self._items)

    def _replace(self, key: str, fields: List[Tuple[str, str]]) -> None:
        """Drop every field keyed ``key`` and put ``fields`` where the
        first of them stood."""
        keys, items = self._keys, self._items
        first = keys.index(key)
        kept = [i for i in range(first + 1, len(keys)) if keys[i] != key]
        self._items = items[:first] + fields + [items[i] for i in kept]
        self._keys = keys[:first] + [key] * len(fields) + [keys[i] for i in kept]
        self._size = sum(len(n) + len(v) + 4 for n, v in self._items)

    # -- lookup -------------------------------------------------------------

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the first value of ``name``, or ``default``."""
        key = name.lower()
        if key in self._keys:
            return self._items[self._keys.index(key)][1]
        return default

    def get_all(self, name: str) -> List[str]:
        """Return every value of ``name``, in wire order."""
        key = name.lower()
        if key not in self._keys:
            return []
        return [v for k, (_, v) in zip(self._keys, self._items) if k == key]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._keys

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        return self._keys == other._keys and [v for _, v in self._items] == [
            v for _, v in other._items
        ]

    def items(self) -> List[Tuple[str, str]]:
        """Return a copy of the ordered ``(name, value)`` pairs."""
        return list(self._items)

    def names(self) -> List[str]:
        """Return the field names in wire order (duplicates preserved)."""
        return [n for n, _ in self._items]

    def copy(self) -> "Headers":
        """Return an independent copy of this header map."""
        clone = Headers.__new__(Headers)
        clone._items = self._items.copy()
        clone._keys = self._keys.copy()
        clone._size = self._size
        return clone

    # -- serialization ------------------------------------------------------

    def serialize(self) -> bytes:
        """Serialize the header block, without the terminating blank line."""
        return b"".join(
            f"{name}: {value}\r\n".encode("latin-1") for name, value in self._items
        )

    def wire_size(self) -> int:
        """Exact byte length of :meth:`serialize`'s output."""
        return self._size

    def field_line_size(self, name: str) -> int:
        """Wire size of the first field line named ``name`` (0 if absent).

        Several CDNs limit the size of a *single* header line (e.g.
        CDN77/CDNsun cap any one header at 16 KB); this helper measures
        against that limit.
        """
        key = name.lower()
        if key not in self._keys:
            return 0
        item_name, item_value = self._items[self._keys.index(key)]
        return len(item_name) + len(item_value) + 4

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"

    @classmethod
    def parse(cls, blob: bytes) -> "Headers":
        """Parse a serialized header block (no terminating blank line).

        RFC 7230 §3.2.4: whitespace between a field name and its colon,
        and a line that starts with SP or HTAB (obs-fold, or whitespace
        before the first field), are rejected rather than repaired.
        """
        fields: List[Tuple[str, str]] = []
        for line in blob.split(b"\r\n") if blob else ():
            if not line:
                continue
            if line.startswith((b" ", b"\t")):
                raise HeaderError(f"header line starts with whitespace {line!r}")
            name, sep, value = line.partition(b":")
            if not sep:
                raise HeaderError(f"malformed header line {line!r}")
            if name.endswith((b" ", b"\t")):
                raise HeaderError(f"whitespace before the colon in {line!r}")
            fields.append((name.decode("latin-1"), value.decode("latin-1").strip(OWS)))
        return cls(fields)
