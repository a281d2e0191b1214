"""Byte-exact HTTP message bodies.

The SBR experiments move resources of up to 25 MB through the simulated
CDN pipeline, thirteen vendors at a time.  Allocating real buffers for
every transfer would be wasteful and slow, so bodies are modeled behind a
small :class:`Body` interface with four implementations:

* :class:`BytesBody` — a plain in-memory payload.
* :class:`SyntheticBody` — a deterministic, pattern-addressable payload of
  arbitrary length that supports slicing *without* materialization.  Byte
  ``i`` of a synthetic body is ``pattern[(offset + i) % len(pattern)]``,
  so any slice of a synthetic body materializes to exactly the same bytes
  as the corresponding slice of the materialized whole — a property the
  test suite checks with hypothesis.
* :class:`CompositeBody` — an ordered concatenation of other bodies, used
  to assemble ``multipart/byteranges`` payloads out of literal separators
  and (possibly synthetic) resource slices without copying.
* :class:`RepeatedBody` — one body repeated back to back ``count`` times,
  so an OBR reply of thousands of identical parts costs one part.

All four report their exact wire length via ``len()``; the traffic
accounting throughout the library relies on it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List, Union

DEFAULT_PATTERN = bytes(range(256))


class Body(ABC):
    """A read-only, length-exact HTTP payload."""

    @abstractmethod
    def __len__(self) -> int:
        """Exact payload length in bytes."""

    @abstractmethod
    def slice(self, start: int, stop: int) -> "Body":
        """Return bytes ``[start, stop)`` as a new body.

        Indices are clamped to ``[0, len(self)]``; a reversed or empty
        window yields an empty body.  Slicing never materializes synthetic
        content.
        """

    @abstractmethod
    def materialize(self) -> bytes:
        """Return the payload as real bytes."""

    def first(self, n: int) -> "Body":
        """Return the first ``n`` bytes as a new body."""
        return self.slice(0, n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Body):
            return NotImplemented
        if len(self) != len(other):
            return False
        return self.materialize() == other.materialize()

    def __hash__(self) -> int:  # pragma: no cover - bodies are not dict keys
        return hash((len(self), self.materialize()))


class BytesBody(Body):
    """A body backed by an in-memory byte string."""

    __slots__ = ("_data",)

    def __init__(self, data: bytes = b"") -> None:
        self._data = bytes(data)

    def __len__(self) -> int:
        return len(self._data)

    def slice(self, start: int, stop: int) -> "BytesBody":
        start = max(0, min(start, len(self._data)))
        stop = max(start, min(stop, len(self._data)))
        return BytesBody(self._data[start:stop])

    def materialize(self) -> bytes:
        return self._data

    def __repr__(self) -> str:
        preview = self._data[:16]
        return f"BytesBody({len(self._data)} bytes, {preview!r}...)"


class SyntheticBody(Body):
    """A deterministic pattern body of arbitrary length.

    ``SyntheticBody(n)`` represents an ``n``-byte payload whose ``i``-th
    byte is ``pattern[(offset + i) % len(pattern)]``.  Slices share the
    pattern and shift the offset, so content is consistent between a slice
    of the body and the body of a slice.
    """

    __slots__ = ("_length", "_pattern", "_offset")

    #: Materializing more than this many bytes is almost always a bug in
    #: calling code (the whole point of the class is to avoid it).
    MATERIALIZE_LIMIT = 256 * 1024 * 1024

    def __init__(self, length: int, pattern: bytes = DEFAULT_PATTERN, offset: int = 0) -> None:
        if length < 0:
            raise ValueError(f"body length must be >= 0, got {length}")
        if not pattern:
            raise ValueError("pattern must be non-empty")
        self._length = length
        self._pattern = bytes(pattern)
        self._offset = offset % len(pattern)

    @property
    def pattern(self) -> bytes:
        return self._pattern

    @property
    def offset(self) -> int:
        return self._offset

    def __len__(self) -> int:
        return self._length

    def slice(self, start: int, stop: int) -> "SyntheticBody":
        start = max(0, min(start, self._length))
        stop = max(start, min(stop, self._length))
        return SyntheticBody(stop - start, self._pattern, self._offset + start)

    def materialize(self) -> bytes:
        if self._length > self.MATERIALIZE_LIMIT:
            raise MemoryError(
                f"refusing to materialize {self._length} bytes of synthetic body"
            )
        reps = (self._offset + self._length) // len(self._pattern) + 1
        window = self._pattern * reps
        return window[self._offset:self._offset + self._length]

    def byte_at(self, index: int) -> int:
        """Return byte ``index`` without materializing anything else."""
        if not 0 <= index < self._length:
            raise IndexError(index)
        return self._pattern[(self._offset + index) % len(self._pattern)]

    def __repr__(self) -> str:
        return (
            f"SyntheticBody(length={self._length}, offset={self._offset}, "
            f"pattern={len(self._pattern)}B)"
        )


class CompositeBody(Body):
    """An ordered concatenation of bodies, with lazy materialization."""

    __slots__ = ("_parts", "_length")

    def __init__(self, parts: Iterable[Union[Body, bytes]] = ()) -> None:
        self._parts: List[Body] = [make_body(p) for p in parts]
        self._length = sum(len(p) for p in self._parts)

    def __len__(self) -> int:
        return self._length

    @property
    def parts(self) -> List[Body]:
        return list(self._parts)

    def slice(self, start: int, stop: int) -> "CompositeBody":
        start = max(0, min(start, self._length))
        stop = max(start, min(stop, self._length))
        picked: List[Body] = []
        position = 0
        for part in self._parts:
            part_end = position + len(part)
            if part_end > start and position < stop:
                picked.append(part.slice(max(0, start - position), stop - position))
            position = part_end
            if position >= stop:
                break
        return CompositeBody(picked)

    def materialize(self) -> bytes:
        return b"".join(part.materialize() for part in self._parts)

    def __repr__(self) -> str:
        return f"CompositeBody({len(self._parts)} parts, {self._length} bytes)"


class RepeatedBody(Body):
    """``count`` back-to-back copies of ``unit``, sized and sliced lazily."""

    __slots__ = ("_unit", "_count", "_unit_length")

    def __init__(self, unit: Body, count: int) -> None:
        if count < 0:
            raise ValueError(f"repeat count must be >= 0, got {count}")
        self._unit = unit
        self._count = count
        self._unit_length = len(unit)

    def __len__(self) -> int:
        return self._unit_length * self._count

    def slice(self, start: int, stop: int) -> Body:
        """At most a head piece, a middle repeat and a tail piece."""
        length = len(self)
        start = max(0, min(start, length))
        stop = max(start, min(stop, length))
        if start == stop:
            return CompositeBody()
        first, head = divmod(start, self._unit_length)
        last, tail = divmod(stop, self._unit_length)
        if first == last:
            return self._unit.slice(head, tail)
        pieces: List[Body] = []
        if head:
            pieces.append(self._unit.slice(head, self._unit_length))
            first += 1
        if last - first == 1:
            pieces.append(self._unit)
        elif last > first:
            pieces.append(RepeatedBody(self._unit, last - first))
        if tail:
            pieces.append(self._unit.slice(0, tail))
        return CompositeBody(pieces)

    def materialize(self) -> bytes:
        return self._unit.materialize() * self._count

    def __repr__(self) -> str:
        return f"RepeatedBody({self._count} x {self._unit!r})"


def make_body(value: Union[Body, bytes, bytearray, memoryview, str, int, None]) -> Body:
    """Coerce common payload spellings to a :class:`Body`.

    * ``Body`` instances pass through unchanged.
    * ``bytes``-like values become :class:`BytesBody`.
    * ``str`` is encoded as UTF-8.
    * an ``int`` ``n`` becomes an ``n``-byte :class:`SyntheticBody`.
    * ``None`` becomes an empty body.
    """
    if value is None:
        return BytesBody(b"")
    if isinstance(value, Body):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return BytesBody(bytes(value))
    if isinstance(value, str):
        return BytesBody(value.encode("utf-8"))
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("cannot make a body from a bool")
    if isinstance(value, int):
        return SyntheticBody(value)
    raise TypeError(f"cannot make a body from {type(value).__name__}")
