"""Core domain types: statute subsections, argument annotations, cases, values.

Everything here is immutable after construction and carries no I/O; the
one algorithm is `components`, the union-find behind CEAF's alignment and
the import's coreference matrices. Values are ordinary Python objects
wherever that is unambiguous (str, int, float, datetime.date, tuple); only
dollar amounts get a wrapper type so they stay distinguishable from plain
integers. A `ValueMap`, the values of a case, is a dict that refuses changes.
"""

from __future__ import annotations

import datetime
import re
import sys
from collections.abc import Iterable, Mapping
from operator import attrgetter

TRUTH_KEY = "@truth"
# `int` reads and `str` writes an integer of at most this many digits (0: any).
_DIGITS = sys.get_int_max_str_digits()
_INT_BOUND = 10**_DIGITS if _DIGITS else float("inf")
# How deep a record value (lists, groups, entries) or a rule body (brackets,
# NOTs) may nest: the readers refuse deeper input, which recursion could not take.
MAX_NESTING = 100

_set = object.__setattr__


class Frozen:
    """Base of the record classes; far cheaper to define than a dataclass,
    which matters as every command defines its classes at start-up.

    `__slots__` names the fields in order. They are set once, by position
    or keyword (a class with defaults or checks sets them in its own
    `__init__` with `_set`), and never assigned again. Instances of one
    class are equal when their fields are, hash as the tuple of their
    fields and print as `Name(field=value, ...)`.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *values, **named):
        names = self.__slots__
        if named:
            values += tuple(named.pop(name) for name in names[len(values) :] if name in named)
        if len(values) != len(names) or named:
            raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(names)}")
        for name, value in zip(names, values):
            _set(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        key = self._key(self)
        return hash(key if len(self.__slots__) > 1 else (key,))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


class Money(Frozen):
    """A dollar amount, whole dollars."""

    __slots__ = ("dollars",)

    def __init__(self, dollars: int):
        if not isinstance(dollars, int) or isinstance(dollars, bool):
            raise ValueError(f"money must be an integer dollar amount, got {dollars!r}")
        if not -_INT_BOUND < dollars < _INT_BOUND:
            raise ValueError(f"integer too long (more than {_DIGITS} digits)")
        _set(self, "dollars", dollars)


# A value bound to an argument. Floats are truth scores in [0, 1]; bare ints
# are unitless numbers (week indices and the like); tuples are homogeneous
# lists of any other kind.
Value = str | int | float | datetime.date | Money | tuple

_KIND_NAMES = {str: "text", int: "number", float: "truth", datetime.date: "date", Money: "money"}


def value_kind(value: Value) -> str:
    """Classify a value: text, number, truth, date, money or list."""
    kind = _KIND_NAMES.get(type(value))  # exact types: the writer carries no subclass
    if kind is not None:
        return kind
    if isinstance(value, tuple):
        return "list"
    if isinstance(value, bool):
        raise ValueError("booleans are not values; encode truth as a score in [0, 1]")
    raise ValueError(f"unsupported value type: {type(value).__name__}")


def check_text(text: str) -> str:
    """Validate text that a corpus file can hold (UTF-8 can encode it), returning it unchanged."""
    if not text.isascii():
        text.encode()  # a lone surrogate raises UnicodeEncodeError, a ValueError
    return text


def check_id(name: str) -> str:
    """Validate an id that a record carries bare, returning it unchanged: text with no character
    `str.isspace` accepts (so no line separator), not empty, not starting a comment with "#" and
    not starting with U+FEFF, which a file cannot start with."""
    if name.split() != [name] or name[0] == "#":
        raise ValueError(f"malformed id {name!r}: an id is non-empty, holds no whitespace and starts with no '#'")
    if name[0] == "\ufeff":
        raise ValueError(f"malformed id {name!r}: an id starts with no byte order mark (U+FEFF)")
    return check_text(name)


def check_value(value: Value) -> Value:
    """Validate a value's invariants, returning it unchanged."""
    kind = value_kind(value)
    if kind == "text":
        check_text(value)
    elif kind == "truth" and not 0.0 <= value <= 1.0:
        raise ValueError(f"truth score out of [0, 1]: {value}")
    elif kind == "number" and not -_INT_BOUND < value < _INT_BOUND:
        raise ValueError(f"integer too long (more than {_DIGITS} digits)")
    elif kind == "list":
        kinds = {value_kind(check_value(v)) for v in value}
        if len(kinds) > 1:
            raise ValueError(f"heterogeneous list value: kinds {sorted(kinds)}")
    return value


def check_truth(value: Value) -> float:
    """Validate a value held under "@truth", returning it unchanged."""
    if value_kind(check_value(value)) != "truth":
        raise ValueError(f"{TRUTH_KEY} must hold a truth score, got {value!r}")
    return value


def _read_only(self, *args, **kwargs):
    raise TypeError("a ValueMap cannot be changed")


class ValueMap(dict):
    """An ordered, read-only dict of argument names to values: a case's
    inputs and expected values as loaded.

    Keys are unique by construction; the distinguished "@truth" key, when
    present, must hold a truth score. Every method that would change the
    dict raises TypeError; `dict(vm)`, `vm | other` and `vm.copy()` are
    plain dicts.
    """

    __slots__ = ()

    def __init__(self, pairs: Iterable[tuple[str, Value]] | Mapping[str, Value] = ()):
        if isinstance(pairs, Mapping):
            pairs = pairs.items()
        put = dict.__setitem__
        for name, value in pairs:
            if name in self:
                raise ValueError(f"duplicate argument name: {name!r}")
            put(self, check_text(name), check_truth(value) if name == TRUTH_KEY else check_value(value))

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.items())
        return f"ValueMap({inner})"

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))


class Span(Frozen):
    """A character range [start, end) within one subsection's text."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int):
        if not (0 <= start < end):
            raise ValueError(f"invalid span ({start}, {end})")
        _set(self, "start", start)
        _set(self, "end", end)

    def slice(self, text: str) -> str:
        if self.end > len(text):
            raise ValueError(f"span ({self.start}, {self.end}) exceeds text of length {len(text)}")
        return text[self.start : self.end]


# Whether a subsection id nests balanced, non-empty parenthesized groups and
# does not start with one.
_well_formed_id = re.compile(r"(?!\()(?:[^()]|\([^()]+\))*").fullmatch


class Subsection(Frozen):
    """One subsection of a statute, the atomic natural-language predicate. Its text, a slice
    of a section file, is not empty (an offsets record has start < end), holds no "\\r",
    which reading with universal newlines makes "\\n", and does not start with U+FEFF, which
    a section file cannot start with."""

    __slots__ = ("id", "text")

    def __init__(self, id: str, text: str):
        if not _well_formed_id(check_id(id)):
            raise ValueError(f"malformed subsection id {id!r}")
        if not text:
            raise ValueError(f"subsection {id}: empty text, which no offsets record can slice")
        if text[0] == "\ufeff":
            raise ValueError(f"subsection {id}: text starts with a byte order mark (U+FEFF)")
        if "\r" in check_text(text):
            raise ValueError(f"subsection {id}: a section file cannot hold '\\r'")
        _set(self, "id", id)
        _set(self, "text", text)


class ArgumentLayer(Frozen):
    """Placeholder spans of one subsection and their grouping into arguments.

    `clusters` is an exact partition of span indices; `cluster_names`
    optionally labels each cluster with the argument name used by the
    subsection's rule, which is what lets value maps reach mention spans.
    """

    __slots__ = ("subsection_id", "spans", "clusters", "cluster_names")

    def __init__(
        self,
        subsection_id: str,
        spans: tuple[Span, ...],
        clusters: tuple[tuple[int, ...], ...],
        cluster_names: tuple[str | None, ...] = (),
    ):
        spans = tuple(spans)
        if any(len(c) == 0 for c in clusters):
            raise ValueError(f"{subsection_id}: empty cluster")
        canonical = canonical_partition(clusters)
        names = tuple(cluster_names)
        if names and len(names) != len(clusters):
            raise ValueError("cluster_names must parallel clusters")
        if names:
            # canonical_partition may reorder clusters; keep labels attached.
            order = {tuple(sorted(c)): i for i, c in enumerate(clusters)}
            names = tuple(names[order[c]] for c in canonical)
        for a, b in zip(spans, spans[1:]):
            if b.start < a.end:
                raise ValueError(f"{subsection_id}: spans out of order or overlapping: {a}, {b}")
        covered = [i for cluster in canonical for i in cluster]
        if sorted(covered) != list(range(len(spans))):
            raise ValueError(f"{subsection_id}: clusters are not a partition of span indices")
        labelled = [check_text(n) for n in names if n is not None]
        if len(labelled) != len(set(labelled)):
            raise ValueError(f"{subsection_id}: duplicate cluster names")
        _set(self, "subsection_id", check_id(subsection_id))
        _set(self, "spans", spans)
        _set(self, "clusters", canonical)
        _set(self, "cluster_names", names)

    @property
    def labelled_clusters(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """The labelled (name, cluster) pairs in order of first mention
        (clusters are sorted by first member)."""
        return tuple((n, c) for n, c in zip(self.cluster_names, self.clusters) if n is not None)


def layer_of(layers: Mapping[str, ArgumentLayer], subsection_id: str) -> ArgumentLayer:
    """A subsection's layer, or an empty one when it has no annotation."""
    layer = layers.get(subsection_id)
    return layer if layer is not None else ArgumentLayer(subsection_id, (), (), ())


def canonical_partition(clusters: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Sort members within clusters and clusters by first member."""
    normal = tuple(tuple(sorted(c)) for c in clusters)
    return tuple(sorted(normal, key=lambda c: c[0]))


def components(n: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The connected components of the graph on 0..n-1 whose edges are
    `links`, found with union-find: each ascending, in order of their
    smallest member."""
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in links:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def check_split(split: str) -> str:
    """Validate a split, returning it unchanged: it names `cases/<split>.cases`, so it is
    an id that holds no "/" or NUL, and not "all", which means every split."""
    try:
        if "/" in check_id(split) or "\x00" in split or split == "all":
            raise ValueError("it cannot name a cases file")
    except ValueError as exc:
        raise ValueError(f"split {split!r}: {exc}") from None
    return split


class Case(Frozen):
    """A natural-language fact pattern with a query subsection and gold values, in a split
    that `check_split` accepts. Some value is expected, and a binary case expects @truth."""

    __slots__ = ("id", "description", "query", "inputs", "expected", "split")

    def __init__(
        self, id: str, description: str, query: str, inputs: ValueMap, expected: ValueMap, split: str = "train"
    ):
        if not expected:
            raise ValueError("expected values must be non-empty")
        _set(self, "id", check_id(id))
        _set(self, "description", check_text(description))
        _set(self, "query", check_text(query))
        _set(self, "inputs", inputs)
        _set(self, "expected", expected)
        _set(self, "split", check_split(split))
        if self.kind == "binary" and TRUTH_KEY not in expected:
            raise ValueError("binary cases must expect @truth")

    @property
    def kind(self) -> str:
        """"numerical" when a non-@truth dollar amount is expected, else "binary"."""
        for name, value in self.expected.items():
            if name != TRUTH_KEY and value_kind(value) == "money":
                return "numerical"
        return "binary"

    @property
    def pair_id(self) -> str | None:
        """Shared id of a positive/negative case pair, None for unpaired cases."""
        for suffix in ("-positive", "-negative"):
            if self.id.endswith(suffix):
                return self.id[: -len(suffix)]
        return None
