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

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import HeaderError

#: Characters that must never appear inside a header name.
_TOKEN_FORBIDDEN = set(' \t\r\n:"(),/;<=>?@[\\]{}')


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
    raw = values[0].strip()
    length = parse_decimal(raw)
    if length is None:
        raise HeaderError(f"Content-Length is not a non-negative integer: {raw[:32]!r}")
    return length


def _check_name(name: str) -> None:
    if not name:
        raise HeaderError("header name must be non-empty")
    for ch in name:
        if ch in _TOKEN_FORBIDDEN or ord(ch) < 0x21 or ord(ch) > 0x7E:
            raise HeaderError(f"invalid character {ch!r} in header name {name!r}")


def _check_value(value: str) -> None:
    if "\r" in value or "\n" in value:
        raise HeaderError(f"CR/LF injection in header value {value!r}")


class Headers:
    """An ordered multimap of HTTP header fields.

    >>> h = Headers([("Host", "example.com")])
    >>> h.set("Content-Length", "5")
    >>> h.get("host")
    'example.com'
    >>> h.wire_size()
    38
    """

    __slots__ = ("_items", "_size_cache")

    def __init__(self, items: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        self._items: List[Tuple[str, str]] = []
        # Memoized wire_size(); invalidated by every mutation.  The
        # traffic accounting calls wire_size() at least twice per
        # message (origin stats + connection framing), and vendor
        # profiles re-measure their fixed response header blocks on
        # every exchange of a sweep.
        self._size_cache: Optional[int] = None
        if items is not None:
            for name, value in items:
                self.add(name, value)

    # -- mutation -----------------------------------------------------------

    def add(self, name: str, value: str) -> None:
        """Append a field, keeping any existing fields of the same name."""
        value = str(value)
        _check_name(name)
        _check_value(value)
        self._items.append((name, value))
        self._size_cache = None

    def set(self, name: str, value: str) -> None:
        """Replace all fields named ``name`` with a single field.

        The replacement occupies the position of the first existing field
        of that name, or is appended if the name is new.
        """
        value = str(value)
        _check_name(name)
        _check_value(value)
        lowered = name.lower()
        replaced = False
        kept: List[Tuple[str, str]] = []
        for item_name, item_value in self._items:
            if item_name.lower() == lowered:
                if not replaced:
                    kept.append((name, value))
                    replaced = True
            else:
                kept.append((item_name, item_value))
        if not replaced:
            kept.append((name, value))
        self._items = kept
        self._size_cache = None

    def remove(self, name: str) -> int:
        """Delete all fields named ``name``; return how many were removed."""
        lowered = name.lower()
        before = len(self._items)
        self._items = [(n, v) for n, v in self._items if n.lower() != lowered]
        self._size_cache = None
        return before - len(self._items)

    # -- lookup -------------------------------------------------------------

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the first value of ``name``, or ``default``."""
        lowered = name.lower()
        for item_name, item_value in self._items:
            if item_name.lower() == lowered:
                return item_value
        return default

    def get_all(self, name: str) -> List[str]:
        """Return every value of ``name``, in wire order."""
        lowered = name.lower()
        return [v for n, v in self._items if n.lower() == lowered]

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        return self.get(name) is not None

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        mine = [(n.lower(), v) for n, v in self._items]
        theirs = [(n.lower(), v) for n, v in other._items]
        return mine == theirs

    def items(self) -> List[Tuple[str, str]]:
        """Return a copy of the ordered ``(name, value)`` pairs."""
        return list(self._items)

    def names(self) -> List[str]:
        """Return the field names in wire order (duplicates preserved)."""
        return [n for n, _ in self._items]

    def copy(self) -> "Headers":
        """Return an independent copy of this header map."""
        clone = Headers()
        clone._items = list(self._items)
        clone._size_cache = self._size_cache
        return clone

    # -- serialization ------------------------------------------------------

    def serialize(self) -> bytes:
        """Serialize the header block, without the terminating blank line."""
        return b"".join(
            f"{name}: {value}\r\n".encode("latin-1") for name, value in self._items
        )

    def wire_size(self) -> int:
        """Exact byte length of :meth:`serialize`'s output (memoized)."""
        if self._size_cache is None:
            # name + ": " + value + CRLF
            self._size_cache = sum(
                len(name) + len(value) + 4 for name, value in self._items
            )
        return self._size_cache

    def field_line_size(self, name: str) -> int:
        """Wire size of the first field line named ``name`` (0 if absent).

        Several CDNs limit the size of a *single* header line (e.g.
        CDN77/CDNsun cap any one header at 16 KB); this helper measures
        against that limit.
        """
        lowered = name.lower()
        for item_name, item_value in self._items:
            if item_name.lower() == lowered:
                return len(item_name) + len(item_value) + 4
        return 0

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"

    @classmethod
    def parse(cls, blob: bytes) -> "Headers":
        """Parse a serialized header block (no terminating blank line)."""
        headers = cls()
        if not blob:
            return headers
        for line in blob.split(b"\r\n"):
            if not line:
                continue
            name, sep, value = line.partition(b":")
            if not sep:
                raise HeaderError(f"malformed header line {line!r}")
            headers.add(name.decode("latin-1").strip(), value.decode("latin-1").strip())
        return headers
