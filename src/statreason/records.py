r"""Line-oriented record format used by corpus files and prediction dumps.

One record per line, a line ending at "\n" only: an identifier token
followed by key=value fields. Values are typed by shape: quoted strings are
text, "$123" or "$-5" is a dollar amount, bare integers such as "42" or "-3"
are numbers, "true"/"false", decimals and exponent forms such as "1e-05" are
truth scores, "2017-02-03" is a date, "(15, 27)" is a character span, and
brackets hold lists, whose items may themselves be "key=value" pairs
(a value map) or "Label:[...]" groups (a named cluster); a key or label
that is not a bare record key is a quoted string. Lines starting
with "#" are comments. Inside quoted text, a backslash escapes a quote, a
backslash and "\n"; every other `str.splitlines` line break is written as
"\uXXXX", for tools that split lines there.

A list reads as a list, a "(start, end)" span as that tuple, a "key=value"
item as the tuple (key, value) and a "Label:[...]" group as {label: items}.
Lists, groups and entries nest at most `model.MAX_NESTING` (100) levels.
"""

from __future__ import annotations

import datetime
import re

from .model import MAX_NESTING, Frozen, Money, Value, ValueMap, value_kind


class RecordError(ValueError):
    """A malformed record; `line` is its 1-based line number when it was
    read by `iter_records`."""

    line: int | None = None


class Record(Frozen):
    """One line: its identifier and its fields by key."""

    __slots__ = ("id", "fields")

    def require(self, key: str) -> object:
        if key not in self.fields:
            raise RecordError(f"missing field {key!r}")
        return self.fields[key]


_KEY = r"[A-Za-z0-9@_][A-Za-z0-9@_.\-]*"
_KEY_RE = re.compile(_KEY)
# Blanks, then a field key, blanks and its "=" if they follow.
_FIELD_RE = re.compile(rf"[ \t]*(?:({_KEY})[ \t]*=)?")
# An atom: true, false, money, a date, a number or what repr gives for a
# float in [0, 1] ("0.25", "1e-05", "2.5e-310"), each up to where a value
# ends. Its groups, in this order, hold the word of one kind.
_ATOM = r"(?:(true)|(false)|\$(-?\d+)|(\d{4}-\d{2}-\d{2})|(-?\d+)|(\d+(?:\.\d+)?(?:e[-+]?\d+)?))(?=[\s\[\](),=]|\Z)"
# Blanks, then what starts an item: a quoted string's run to its next quote or
# backslash and that quote if it closes the string (groups 1, 2), a pair of two
# integers (3, 4), a bracket (5), a key and the "=" of an entry or ":" of a
# group right after it (6, 7), or an atom (8 to 13).
_ITEM_RE = re.compile(
    rf'[ \t]*(?:"([^"\\]*)(")?|\([ \t]*(-?\d+)[ \t]*,[ \t]*(-?\d+)[ \t]*\)|([\[(])|({_KEY})([=:])|{_ATOM})'
)
_ID_RE = re.compile(r"[ \t]*(\S*)")
_HEX4_RE = re.compile(r"[0-9a-fA-F]{4}")
# The run of a quoted string up to its next quote or backslash.
_STRING_RUN_RE = re.compile(r'[^"\\]*')
# What str.splitlines splits on, "\n" aside (written as "\n"), and how it is written.
_LINE_SEPARATORS = {ord(ch): f"\\u{ord(ch):04x}" for ch in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}

# The scanner: functions of a text and a position that return what they read
# and the position after it. Blanks (" " and "\t") may stand before any token.


def _error(message: str, pos: int) -> RecordError:
    return RecordError(f"{message} (column {pos + 1})")


def _int(text: str, end: int) -> int:
    """The integer `text`, which ends before `end`."""
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise _error(f"integer too long ({len(text)} characters)", end) from None


def _take(ch: str, text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in " \t":
        pos += 1
    if text.startswith(ch, pos):
        return pos + 1
    raise _error(f"expected {ch!r}", pos)


def _string(text: str, pos: int) -> tuple[str, int]:
    """The quoted string whose opening quote ends before `pos`."""
    out = []
    while True:
        run = _STRING_RUN_RE.match(text, pos)
        out.append(run.group())
        pos = run.end()
        if pos >= len(text):
            raise _error("unterminated string", pos)
        if text[pos] == '"':
            return "".join(out), pos + 1
        pos += 1  # past the backslash
        if pos >= len(text):
            raise _error("dangling escape", pos)
        esc = text[pos]
        pos += 1
        if esc == "n":
            out.append("\n")
        elif esc in ('"', "\\"):
            out.append(esc)
        elif esc == "u" and _HEX4_RE.match(text, pos):
            out.append(chr(int(text[pos : pos + 4], 16)))
            pos += 4
        else:
            raise _error(f"unknown escape \\{esc}", pos)


def _typed(m: re.Match, first: int) -> Value:
    """The value of the atom that `m` matched; its group `first` is "true"."""
    kind = m.lastindex - first
    word = m.group(m.lastindex)
    if kind == 4:
        return _int(word, m.end())
    if kind == 5:
        return float(word)
    if kind == 2:
        return Money(_int(word, m.end()))
    if kind == 3:
        try:
            return datetime.date(*map(int, word.split("-")))
        except ValueError as exc:
            raise _error(f"invalid date {word!r}: {exc}", m.end()) from None
    return 1.0 if kind == 0 else 0.0


def _no_atom(text: str, pos: int) -> RecordError:
    """The error for the word after the blanks at `pos`, which is no atom."""
    word = re.compile(r"[ \t]*([^\s\[\]\(\),=]*)").match(text, pos)  # re caches it; only errors need it
    if not word.group(1):
        return _error("expected a value", word.start(1))
    return _error(f"cannot type value {word.group(1)!r} (strings must be quoted)", word.end())


def _list(text: str, pos: int, depth: int) -> tuple[list, int]:
    """The items of the list whose "[" ends before `pos`, which nests
    `depth` levels deep."""
    if depth > MAX_NESTING:
        raise _error(f"nested deeper than {MAX_NESTING} levels", pos)
    n = len(text)
    while pos < n and text[pos] in " \t":
        pos += 1
    items: list = []
    if text.startswith("]", pos):
        return items, pos + 1
    while True:
        item, pos = _item(text, pos, depth)
        items.append(item)
        while pos < n and text[pos] in " \t":
            pos += 1
        if text.startswith(",", pos):
            pos += 1
        elif text.startswith("]", pos):
            return items, pos + 1
        else:
            raise _error("expected ']'", pos)


def _item(text: str, pos: int, depth: int = 0) -> tuple[object, int]:
    """The value, list or list item after the blanks at `pos`, inside
    `depth` lists and entries."""
    if depth > MAX_NESTING:
        raise _error(f"nested deeper than {MAX_NESTING} levels", pos)
    m = _ITEM_RE.match(text, pos)
    if m is None:
        raise _no_atom(text, pos)
    kind = m.lastindex
    pos = m.end()
    if kind > 7:
        return _typed(m, 8), pos
    if kind == 7:
        if m.group(7) == "=":
            value, pos = _item(text, pos, depth + 1)
            return (m.group(6), value), pos
        items, pos = _list(text, _take("[", text, pos), depth + 1)
        return {m.group(6): items}, pos
    if kind == 4:
        return (_int(m.group(3), m.end(3)), _int(m.group(4), m.end(4))), pos
    if kind == 5:
        if m.group(5) == "[":
            return _list(text, pos, depth + 1)
        atom_re = re.compile(r"[ \t]*" + _ATOM)  # re caches it; only a bad pair needs it
        for ch in ",)":  # a "(" that does not start a pair of two integers: find where
            atom = atom_re.match(text, pos)
            if atom is None:
                raise _no_atom(text, pos)
            _typed(atom, 1)  # raises for an impossible date
            pos = _take(ch, text, atom.end())
        raise _error("span pairs must hold two integers", pos)
    if kind == 2:
        value = m.group(1)
    else:  # the string holds an escape, or is not closed
        value, pos = _string(text, m.start(1))
    while pos < len(text) and text[pos] in " \t":
        pos += 1
    if text.startswith(":", pos):
        items, pos = _list(text, _take("[", text, pos + 1), depth + 1)
        return {value: items}, pos
    if text.startswith("=", pos):
        entry, pos = _item(text, pos + 1, depth + 1)
        return (value, entry), pos
    return value, pos


def parse_record(line: str) -> Record:
    m = _ID_RE.match(line)
    if m.start(1) == len(line):
        raise RecordError("empty record")
    rid, pos = m.group(1), m.end()
    fields: dict[str, object] = {}
    while True:
        m = _FIELD_RE.match(line, pos)
        key, pos = m.group(1), m.end()
        if key is None:
            if pos == len(line):
                return Record(rid, fields)
            m = _KEY_RE.match(line, pos)
            if m is None:
                raise _error("expected a field key", pos)
            _take("=", line, m.end())  # raises, as no "=" follows the key
        if key in fields:
            raise _error(f"duplicate field {key!r}", pos)
        fields[key], pos = _item(line, pos)


def parse_value_literal(text: str) -> object:
    """Parse a single standalone value literal (as found in field positions)."""
    value, pos = _item(text, 0)
    if text[pos:].strip(" \t"):
        raise RecordError(f"trailing input after value: {text!r}")
    return value


def iter_records(text: str):
    """Yield (line_number, Record) for every non-comment, non-blank line. A
    line that does not parse raises RecordError with `line` set."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            record = parse_record(stripped)
        except RecordError as exc:
            exc.line = lineno
            raise
        yield lineno, record


def item_repr(item: object) -> str:
    """An item as error messages print it: as an Entry, PairLit or Labeled."""
    if type(item) is tuple:
        if type(item[0]) is str:
            return f"Entry(key={item[0]!r}, value={item_repr(item[1])})"
        return f"PairLit(start={item[0]!r}, end={item[1]!r})"
    if type(item) is dict:
        [(label, items)] = item.items()
        return f"Labeled(label={label!r}, items={item_repr(items)})"
    if type(item) is list:
        return "[" + ", ".join(map(item_repr, item)) + "]"
    return repr(item)


# ---------------------------------------------------------------------------
# Writing


def write_text(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped.translate(_LINE_SEPARATORS)}"'


def write_value(value: Value) -> str:
    kind = value_kind(value)
    if kind == "text":
        return write_text(value)
    if kind == "money":
        return f"${value.dollars}"
    if kind == "number":
        return str(value)
    if kind == "date":
        return value.isoformat()
    if kind == "truth":
        if value == 1.0:
            return "true"
        if value == 0.0:
            return "false"
        return repr(value)
    return "[" + ", ".join(write_value(v) for v in value) + "]"


def write_name(name: str) -> str:
    """A value map's key or a cluster's label: bare when it is a record key,
    quoted otherwise."""
    return name if _KEY_RE.fullmatch(name) else write_text(name)


def write_value_map(values: ValueMap) -> str:
    return "[" + ", ".join(f"{write_name(k)}={write_value(v)}" for k, v in values.items()) + "]"


def write_spans(spans) -> str:
    return "[" + ", ".join(f"({s.start}, {s.end})" for s in spans) + "]"


def write_clusters(clusters, names=()) -> str:
    """Clusters as `[Name:[0, 1], [2]]`."""
    names = names or (None,) * len(clusters)
    parts = []
    for name, cluster in zip(names, clusters):
        body = "[" + ", ".join(str(i) for i in cluster) + "]"
        parts.append(body if name is None else f"{write_name(name)}:{body}")
    return "[" + ", ".join(parts) + "]"


def as_value_map(items: object, where: str = "") -> ValueMap:
    """Interpret a parsed bracket list of key=value entries as a value map."""
    if type(items) is not list:
        raise RecordError(f"{where}: expected a [key=value, ...] list")
    pairs = []
    item_at = None  # the first entry whose value is an item, not a value
    for item in items:
        if type(item) is not tuple or type(item[0]) is not str:
            raise RecordError(f"{where}: expected key=value entries, found {item_repr(item)}")
        if type(item[1]) is list:
            item = (item[0], _plain(item[1], where))
        elif item_at is None and type(item[1]) in (tuple, dict):
            item_at = len(pairs)
        pairs.append(item)
    try:
        if item_at is not None:
            # The value map's checks of the entries before, and of this key.
            ValueMap(pairs[:item_at] + [(pairs[item_at][0], 1.0)])
            raise ValueError(f"unsupported value type: {item_repr(pairs[item_at][1]).partition('(')[0]}")
        return ValueMap(pairs)
    except ValueError as exc:
        raise RecordError(f"{where}: {exc}") from exc


def _plain(items: list, where: str) -> tuple:
    values = []
    for item in items:
        if type(item) in (tuple, dict):
            raise RecordError(f"{where}: unexpected structured item {item_repr(item)} in a value list")
        values.append(_plain(item, where) if type(item) is list else item)
    return tuple(values)
