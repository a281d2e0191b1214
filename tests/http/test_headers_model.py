"""Equivalence tests for the header map's token check, keys and size.

``_check_name`` is one ``fullmatch`` against the RFC 7230 ``token``
pattern; it must accept and reject exactly what the per-character
predicate it replaced did, with the same message.  ``Headers`` keeps a
list of lowered names and a running wire size next to its fields; a
random sequence of mutations must leave every lookup where a plain list
of ``(name, value)`` pairs would.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HeaderError
from repro.http.headers import Headers, _check_name

_OLD_FORBIDDEN = set(' \t\r\n:"(),/;<=>?@[\\]{}')


def _old_check_name(name: str) -> None:
    """The per-character predicate ``_check_name`` used to be."""
    if not name:
        raise HeaderError("header name must be non-empty")
    for ch in name:
        if ch in _OLD_FORBIDDEN or ord(ch) < 0x21 or ord(ch) > 0x7E:
            raise HeaderError(f"invalid character {ch!r} in header name {name!r}")


def _outcome(check, name: str) -> Optional[str]:
    """None when ``check`` accepts ``name``, else its error message."""
    try:
        check(name)
    except HeaderError as exc:
        return str(exc)
    return None


class TestTokenCheck:
    def test_every_one_character_name(self):
        differ = [
            hex(cp)
            for cp in range(0x110000)
            if _outcome(_check_name, chr(cp)) != _outcome(_old_check_name, chr(cp))
        ]
        assert differ == []

    def test_the_accepted_characters(self):
        accepted = "".join(chr(cp) for cp in range(0x80) if _outcome(_check_name, chr(cp)) is None)
        assert accepted == "!#$%&'*+-.0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ^_`abcdefghijklmnopqrstuvwxyz|~"

    def test_empty_name(self):
        assert _outcome(_check_name, "") == "header name must be non-empty"

    @given(st.text())
    @settings(max_examples=300)
    def test_any_string(self, name):
        assert _outcome(_check_name, name) == _outcome(_old_check_name, name)

    @given(st.text(alphabet=st.characters(max_codepoint=0x80), max_size=12))
    @settings(max_examples=500)
    def test_near_token_strings(self, name):
        # Mostly tchars, so a single delimiter, control or DEL shows up
        # at every position, and a trailing newline is not forgiven.
        assert _outcome(_check_name, name) == _outcome(_old_check_name, name)


_NAMES = ["Host", "host", "HOST", "Via", "via", "Range", "X-Pad", "x-PAD"]
_VALUES = st.one_of(st.text(alphabet="ab 0-", max_size=4), st.integers(0, 99))
_FIELDS = st.tuples(st.sampled_from(_NAMES), _VALUES)
_OPS = st.lists(
    st.tuples(st.sampled_from(["add", "set", "remove", "copy"]), st.sampled_from(_NAMES), _VALUES),
    max_size=30,
)

Model = List[Tuple[str, str]]


def _model_set(model: Model, name: str, value: str) -> Model:
    kept: Model = []
    replaced = False
    for item_name, item_value in model:
        if item_name.lower() != name.lower():
            kept.append((item_name, item_value))
        elif not replaced:
            kept.append((name, value))
            replaced = True
    return kept if replaced else kept + [(name, value)]


def _assert_matches(headers: Headers, model: Model) -> None:
    assert headers.items() == model
    assert list(headers) == model
    assert len(headers) == len(model)
    assert headers == Headers(model)
    assert headers != Headers(model + [("X-Extra", "1")])
    assert headers.wire_size() == len(headers.serialize())
    assert headers.wire_size() == sum(len(n) + len(v) + 4 for n, v in model)
    for name in _NAMES + ["Absent"]:
        fields = [(n, v) for n, v in model if n.lower() == name.lower()]
        values = [v for _, v in fields]
        assert headers.get_all(name) == values
        assert headers.get(name, "default") == (values[0] if values else "default")
        assert (name in headers) == bool(fields)
        first_size = len(fields[0][0]) + len(fields[0][1]) + 4 if fields else 0
        assert headers.field_line_size(name) == first_size


class TestHeadersAgainstAListOfPairs:
    @given(initial=st.lists(_FIELDS, max_size=6), ops=_OPS)
    @settings(max_examples=300)
    def test_random_mutations(self, initial, ops):
        headers = Headers(initial)
        model = [(n, str(v)) for n, v in initial]
        copies = []
        _assert_matches(headers, model)
        for op, name, value in ops:
            if op == "add":
                headers.add(name, value)
                model.append((name, str(value)))
            elif op == "set":
                headers.set(name, value)
                model = _model_set(model, name, str(value))
            elif op == "remove":
                expected = [(n, v) for n, v in model if n.lower() != name.lower()]
                assert headers.remove(name) == len(model) - len(expected)
                model = expected
            else:
                copies.append((headers, list(model)))
                headers = headers.copy()
            _assert_matches(headers, model)
        # Mutating a copy leaves the map it was copied from alone.
        for original, snapshot in copies:
            _assert_matches(original, snapshot)

    def test_non_string_lookups(self):
        headers = Headers([("Host", "h")])
        assert 1 not in headers
        assert None not in headers
