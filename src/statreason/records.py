r"""Line-oriented record format used by corpus files and prediction dumps.

One record per line: an identifier token followed by key=value fields.
Values are typed by shape: quoted strings are text, "$123" or "$-5" is a
dollar amount, bare integers such as "42" or "-3" are numbers,
"true"/"false", decimals and exponent forms such as "1e-05" are truth
scores, "2017-02-03" is a date, "(15, 27)" is a character span, and
brackets hold lists, whose items may themselves be "key=value" pairs
(a value map) or "Label:[...]" groups (a named cluster). Lines starting
with "#" are comments. Inside quoted text, a backslash escapes a quote, a
backslash and "\n"; every other line separator is written as "\uXXXX",
so one record always stays on one line.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass

from .model import Money, Value, ValueMap, value_kind


class RecordError(ValueError):
    """A malformed record; `line` is its 1-based line number when it was
    read by `iter_records`."""

    line: int | None = None


@dataclass(frozen=True)
class PairLit:
    """A literal "(start, end)" character-span pair."""

    start: int
    end: int


@dataclass(frozen=True)
class Entry:
    """A "key=value" item inside a bracketed list."""

    key: str
    value: object


@dataclass(frozen=True)
class Labeled:
    """A "Label:[...]" item inside a bracketed list."""

    label: str | None
    items: list


@dataclass(frozen=True)
class Record:
    id: str
    fields: dict[str, object]

    def require(self, key: str) -> object:
        if key not in self.fields:
            raise RecordError(f"missing field {key!r}")
        return self.fields[key]


_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}$")
_NUMBER_RE = re.compile(r"-?\d+$")
_MONEY_RE = re.compile(r"\$(-?\d+)$")
# What repr gives for a float in [0, 1]: "0.25", "1e-05", "2.5e-310".
_DECIMAL_RE = re.compile(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?$")
_ATOM_END = re.compile(r"[^\s\[\]\(\),=]+")
_KEY_RE = re.compile(r"[A-Za-z0-9@_][A-Za-z0-9@_.\-]*")
_HEX4_RE = re.compile(r"[0-9a-fA-F]{4}")
# What str.splitlines splits on, "\n" aside (written as "\n").
_LINE_SEPARATORS = re.compile("[\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> RecordError:
        return RecordError(f"{message} (column {self.pos + 1})")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def scan_string(self) -> str:
        self.take('"')
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string")
            ch = self.text[self.pos]
            self.pos += 1
            if ch == '"':
                return "".join(out)
            if ch == "\\":
                if self.pos >= len(self.text):
                    raise self.error("dangling escape")
                esc = self.text[self.pos]
                self.pos += 1
                if esc == "n":
                    out.append("\n")
                elif esc in ('"', "\\"):
                    out.append(esc)
                elif esc == "u" and _HEX4_RE.match(self.text, self.pos):
                    out.append(chr(int(self.text[self.pos : self.pos + 4], 16)))
                    self.pos += 4
                else:
                    raise self.error(f"unknown escape \\{esc}")
            else:
                out.append(ch)

    def scan_atom(self) -> Value:
        self.skip_ws()
        m = _ATOM_END.match(self.text, self.pos)
        if m is None:
            raise self.error("expected a value")
        word = m.group()
        self.pos = m.end()
        if word == "true":
            return 1.0
        if word == "false":
            return 0.0
        money = _MONEY_RE.match(word)
        if money:
            return Money(int(money.group(1)))
        if _DATE_RE.match(word):
            year, month, day = word.split("-")
            try:
                return datetime.date(int(year), int(month), int(day))
            except ValueError as exc:
                raise self.error(f"invalid date {word!r}: {exc}") from None
        if _NUMBER_RE.match(word):
            return int(word)
        if _DECIMAL_RE.match(word):
            return float(word)
        raise self.error(f"cannot type value {word!r} (strings must be quoted)")

    def scan_pair(self) -> PairLit:
        self.take("(")
        a = self.scan_atom()
        self.take(",")
        b = self.scan_atom()
        self.take(")")
        if not isinstance(a, int) or not isinstance(b, int):
            raise self.error("span pairs must hold two integers")
        return PairLit(a, b)

    def scan_list(self) -> list:
        self.take("[")
        items: list = []
        if self.peek() != "]":
            while True:
                items.append(self.scan_item())
                if self.peek() != ",":
                    break
                self.take(",")
        self.take("]")
        return items

    def scan_item(self) -> object:
        ch = self.peek()
        if ch == '"':
            text = self.scan_string()
            if self.peek() == ":":
                self.take(":")
                return Labeled(text, self.scan_list())
            return text
        if ch == "(":
            return self.scan_pair()
        if ch == "[":
            return self.scan_list()
        m = _KEY_RE.match(self.text, self.pos)
        if m is not None:
            end = m.end()
            follow = self.text[end : end + 1]
            if follow == "=":
                self.pos = end + 1
                return Entry(m.group(), self.scan_item())
            if follow == ":":
                self.pos = end + 1
                return Labeled(m.group(), self.scan_list())
        return self.scan_atom()

    def scan_fields(self) -> dict[str, object]:
        fields: dict[str, object] = {}
        while not self.at_end():
            m = _KEY_RE.match(self.text, self.pos)
            if m is None:
                raise self.error("expected a field key")
            key = m.group()
            self.pos = m.end()
            self.take("=")
            if key in fields:
                raise self.error(f"duplicate field {key!r}")
            fields[key] = self.scan_item()
        return fields


def parse_record(line: str) -> Record:
    scanner = _Scanner(line)
    if scanner.at_end():
        raise RecordError("empty record")
    start = scanner.pos
    while scanner.pos < len(line) and not line[scanner.pos].isspace():
        scanner.pos += 1
    rid = line[start : scanner.pos]
    return Record(rid, scanner.scan_fields())


def parse_value_literal(text: str) -> Value | list | Entry | Labeled | PairLit:
    """Parse a single standalone value literal (as found in field positions)."""
    scanner = _Scanner(text)
    value = scanner.scan_item()
    if not scanner.at_end():
        raise RecordError(f"trailing input after value: {text!r}")
    return value


def iter_records(text: str):
    """Yield (line_number, Record) for every non-comment, non-blank line. A
    line that does not parse raises RecordError with `line` set."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            record = parse_record(stripped)
        except RecordError as exc:
            exc.line = lineno
            raise
        yield lineno, record


# ---------------------------------------------------------------------------
# Writing


def write_text(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    escaped = _LINE_SEPARATORS.sub(lambda m: f"\\u{ord(m.group()):04x}", escaped)
    return f'"{escaped}"'


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


def write_value_map(values: ValueMap) -> str:
    return "[" + ", ".join(f"{k}={write_value(v)}" for k, v in values.items()) + "]"


def write_spans(spans) -> str:
    return "[" + ", ".join(f"({s.start}, {s.end})" for s in spans) + "]"


def write_clusters(clusters, names=()) -> str:
    names = names or (None,) * len(clusters)
    parts = []
    for name, cluster in zip(names, clusters):
        body = "[" + ", ".join(str(i) for i in cluster) + "]"
        parts.append(body if name is None else f"{name}:{body}")
    return "[" + ", ".join(parts) + "]"


def as_value_map(items: object, where: str = "") -> ValueMap:
    """Interpret a parsed bracket list of key=value entries as a value map."""
    if not isinstance(items, list):
        raise RecordError(f"{where}: expected a [key=value, ...] list")
    pairs = []
    for item in items:
        if not isinstance(item, Entry):
            raise RecordError(f"{where}: expected key=value entries, found {item!r}")
        value = item.value
        if isinstance(value, list):
            value = tuple(_plain(v, where) for v in value)
        pairs.append((item.key, value))
    try:
        return ValueMap(pairs)
    except ValueError as exc:
        raise RecordError(f"{where}: {exc}") from exc


def _plain(item: object, where: str) -> Value:
    if isinstance(item, (Entry, Labeled, PairLit)):
        raise RecordError(f"{where}: unexpected structured item {item!r} in a value list")
    if isinstance(item, list):
        return tuple(_plain(v, where) for v in item)
    return item
