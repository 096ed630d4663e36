"""Seeded random generators and hypothesis strategies shared by property
and acceptance tests."""

from __future__ import annotations

import datetime
import enum
import random
import re
import sys

import hypothesis.strategies as st

from statreason.corpus import Corpus
from statreason.model import TRUTH_KEY, ArgumentLayer, Case, Money, Span, Subsection, ValueMap
from statreason.rules import Op, Program, Ref, Rule, iter_refs, parse_program


def random_partition(rng: random.Random, n: int, ensure_link: bool = False):
    """A random partition of range(n); optionally with >= 1 multi-mention cluster."""
    if n == 0:
        return ()
    while True:
        labels = [rng.randrange(1 + n // 2) for _ in range(n)]
        groups: dict[int, list[int]] = {}
        for i, label in enumerate(labels):
            groups.setdefault(label, []).append(i)
        clusters = tuple(tuple(c) for c in groups.values())
        if not ensure_link or n < 2 or any(len(c) > 1 for c in clusters):
            return clusters


_NAMES = ["Taxp", "Taxy", "Spouse", "Grossinc", "Caly", "Workday", "S13A", "Dep", "Emp", "Srv"]


def random_clause(rng: random.Random, may_have_body: bool = True) -> Rule:
    head = _random_id(rng)
    params = tuple(rng.sample(_NAMES, rng.randrange(0, 6)))
    body = None
    if may_have_body and params and rng.random() < 0.7:
        body = _random_body(rng, list(params), depth=0)
    return Rule(head, params, body)


def _random_id(rng: random.Random) -> str:
    if rng.random() < 0.1:
        return rng.choice(["Tax", "Gross", "Dedint"])
    base = f"§{rng.randrange(1, 9000)}"
    for _ in range(rng.randrange(0, 3)):
        base += f"({rng.choice('abcdef123456AB')})"
    return base


def _random_body(rng: random.Random, params: list[str], depth: int):
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        bindings = []
        for param in rng.sample(_NAMES, rng.randrange(0, 4)):
            caller = rng.choice(params)
            bindings.append((param, caller))
        return Ref(_random_id(rng), tuple(bindings))
    if roll < 0.6:
        return Op("NOT", (_random_body(rng, params, depth + 1),))
    children = tuple(_random_body(rng, params, depth + 1) for _ in range(rng.randrange(2, 4)))
    return Op("AND" if roll < 0.8 else "OR", children)


def random_program(rng: random.Random, n_rules: int, max_refs: int = 3) -> Program:
    """An acyclic rule base: rule i only references rules with larger indices,
    so fully unrolled trees are finite."""
    heads = [f"§{100 + i}(a)" for i in range(n_rules)]
    rules: dict[str, Rule] = {}
    for i, head in enumerate(heads):
        params = tuple(f"X{j}" for j in range(rng.randrange(1, 4)))
        body = None
        callable_heads = heads[i + 1 :]
        if callable_heads and rng.random() < 0.8:
            refs = []
            for _ in range(rng.randrange(1, max_refs + 1)):
                callee = rng.choice(callable_heads)
                bindings = tuple(
                    (f"X{j}", rng.choice(params)) for j in range(rng.randrange(0, 3))
                )
                refs.append(Ref(callee, bindings))
            if len(refs) == 1:
                body = refs[0]
            else:
                body = Op("AND" if rng.random() < 0.5 else "OR", tuple(refs))
        rules[head] = Rule(head, params, body)
    return rules


def random_nested_program(rng: random.Random, n_rules: int) -> Program:
    """`random_program` with each body's references regrouped into a random
    nesting of AND, OR and NOT, one of them sometimes referenced twice."""
    rules: dict[str, Rule] = {}
    for head, rule in random_program(rng, n_rules).items():
        refs = list(iter_refs(rule.body))
        if refs and rng.random() < 0.3:
            refs.append(rng.choice(refs))
        rules[head] = Rule(head, rule.params, _nest(rng, refs) if refs else None)
    return rules


def _nest(rng: random.Random, refs: list[Ref]):
    if len(refs) == 1:
        expr = refs[0]
    else:
        cut = rng.randrange(1, len(refs))
        expr = Op("AND" if rng.random() < 0.5 else "OR", (_nest(rng, refs[:cut]), _nest(rng, refs[cut:])))
    return Op("NOT", (expr,)) if rng.random() < 0.25 else expr


def random_value_map(rng: random.Random, keys=("X", "Y", "Z")) -> ValueMap:
    pairs: dict[str, object] = {"@truth": rng.random()}
    for key in keys:
        if rng.random() < 0.6:
            pairs[key] = rng.choice(["a", "b", "c", "d"])
    return ValueMap(pairs)


# Every value kind, unrestricted: text over every code point (surrogates
# included), signed numbers and money, dates, truth scores over [0, 1]
# including subnormals, and homogeneous lists of any of these. Text draws the
# characters a writer must escape (quotes, backslashes and every
# str.splitlines separator) often, not only by chance.
ESCAPED_CHARACTERS = '"\\\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'
MONEY_VALUES = st.integers().map(Money)
TRUTH_VALUES = st.floats(min_value=0.0, max_value=1.0)


def _texts(exclude_categories: tuple[str, ...]) -> st.SearchStrategy[str]:
    return st.text(st.one_of(st.characters(exclude_categories=exclude_categories), st.sampled_from(ESCAPED_CHARACTERS)))


def _values(text: st.SearchStrategy[str]) -> st.SearchStrategy:
    kinds = [text, st.integers(), MONEY_VALUES, TRUTH_VALUES, st.dates()]
    return st.one_of(*kinds, st.sampled_from(kinds).flatmap(lambda kind: st.lists(kind, max_size=3).map(tuple)))


TEXT_VALUES = _texts(())
VALUES = _values(TEXT_VALUES)
# What of these the model admits (`check_value`, `ValueMap`): text that UTF-8
# can encode, so no lone surrogate.
MODEL_TEXT_VALUES = _texts(("Cs",))
MODEL_VALUES = _values(MODEL_TEXT_VALUES)


class Label(str):
    pass


class Count(enum.IntEnum):
    ONE = 1


# Instances of subclasses of value types, which the record format cannot
# carry (a datetime would be written as 2017-02-03T04:05:00).
SUBCLASSED_VALUES = [datetime.datetime(2017, 2, 3, 4, 5), Label("Alice"), Count.ONE]


@st.composite
def texts_with_layers(draw, mentions=st.text(min_size=1, max_size=4), gaps=st.text(max_size=3)):
    """A text and a layer over it: spans in text order, adjacent or apart,
    grouped into clusters of one or more mentions, each cluster named or
    unlabelled, and at most one named @truth."""
    pieces = draw(st.lists(st.tuples(gaps, mentions), max_size=6))
    text, spans = "", []
    for gap, mention in pieces:
        text += gap
        spans.append(Span(len(text), len(text) + len(mention)))
        text += mention
    text += draw(gaps)
    labels = draw(st.lists(st.integers(0, 3), min_size=len(spans), max_size=len(spans)))
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    clusters = tuple(tuple(c) for c in groups.values())
    names = [draw(st.sampled_from([f"A{k}", None])) for k in range(len(clusters))]
    if clusters and draw(st.booleans()):
        names[draw(st.integers(0, len(clusters) - 1))] = TRUTH_KEY
    return text, ArgumentLayer("§x", tuple(spans), clusters, tuple(names))


# ---------------------------------------------------------------------------
# Whole corpora


def _chars(exclude: str = "") -> st.SearchStrategy[str]:
    """Characters that UTF-8 can encode, apart from those `str.isspace`
    accepts (the separators and these controls) and those in `exclude`."""
    controls = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85"
    return st.characters(exclude_categories=("Cs", "Zs", "Zl", "Zp"), exclude_characters=controls + exclude)


def _words(chars: st.SearchStrategy[str], max_size: int = 6) -> st.SearchStrategy[str]:
    return st.text(chars, min_size=1, max_size=max_size)


# Names of the structure language: what its tokenizer reads as one name.
_TOKENS = _words(_chars("()[],=.%:")).filter(lambda t: t not in ("AND", "OR", "NOT"))
# Rule heads: a name and its identifier groups.
_HEADS = st.builds(
    lambda name, groups: name + "".join(f"({g})" for g in groups), _TOKENS, st.lists(_TOKENS, max_size=2)
)
# Text of every code point, surrogates included, drawing whitespace, "#" and
# what a writer must escape often: the model's constructors decide what of
# it a corpus can hold.
_ANY_CHARACTER = st.one_of(st.characters(exclude_categories=()), st.sampled_from(ESCAPED_CHARACTERS + " \t#"))
_ANY_TEXT = st.text(_ANY_CHARACTER)
# Ids that the constructors should mostly accept, so that corpora have some.
_ID_PIECES = _words(_chars("()"))
_SUBSECTION_IDS = st.builds(
    lambda first, rest: first + "".join(rest),
    _ID_PIECES,
    st.lists(st.one_of(_ID_PIECES, _ID_PIECES.map("({})".format))),
)
# Case ids name files in the distributed layout, and section files are file
# names.
_CASE_IDS = _words(_chars("/\x00"), 8).filter(lambda t: t[0] != "#" and t not in (".", ".."))
_SECTION_FILES = _words(_chars("/\x00")).map(lambda name: name + ".txt").filter(lambda name: name != "offsets.txt")
# A gold split names its file, cases/<split>.cases: three times in four
# "train" or "test", which the commands read, and otherwise words that `Case`
# mostly accepts, and text of every code point, of which `Case` refuses what
# that file cannot carry. Short enough for any file system's names, and not
# "silver", the split of the silver cases.
_OTHER_SPLITS = st.one_of(_words(_chars(), 5), st.text(_ANY_CHARACTER, max_size=40)).filter(
    lambda split: split != "silver"
)
_SPLITS = st.integers(0, 3).flatmap(lambda k: _OTHER_SPLITS if k == 0 else st.sampled_from(["train", "test"]))
# Numbers and dollar amounts of either sign at the interpreter's digit limit:
# the model takes 10**limit - 2 and 10**limit - 1, of `limit` digits, and
# refuses 10**limit, of one more (a dollar amount it refuses is drawn as
# None, which a value map refuses in turn).
_BOUND = 10 ** sys.get_int_max_str_digits()
_LONG_INTEGERS = st.builds(lambda sign, d: sign * (_BOUND + d), st.sampled_from([1, -1]), st.integers(-2, 0))
_LONG_VALUES = st.one_of(_LONG_INTEGERS, _LONG_INTEGERS.map(lambda n: _made(Money, n)))
# Subsection text, not empty as `Subsection` requires.
_SECTION_TEXTS = st.text(
    st.one_of(st.characters(exclude_categories=("Cs",)), st.sampled_from(ESCAPED_CHARACTERS)), min_size=1, max_size=12
)

# What the distributed layout carries: a layer's id through its file stem
# (`sara_import.file_stem_to_id`), names that its "<index> <name>" and
# "<name>=<value>" lines can hold, a description with its whitespace
# collapsed, and the splits train and test.
_PLAIN_TOKENS = st.from_regex(r"[A-Za-z@][A-Za-z0-9@']{0,4}", fullmatch=True).filter(
    lambda t: t not in ("AND", "OR", "NOT")
)
_PLAIN_HEADS = st.one_of(
    # "OR" is an operator, not an identifier group.
    st.from_regex(r"§[0-9]{1,3}(\([A-Za-z0-9]{1,2}\)){0,3}", fullmatch=True).filter(lambda t: "(OR)" not in t),
    st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,4}", fullmatch=True).filter(lambda t: t not in ("AND", "OR", "NOT")),
)
_BLOCK_LINE = re.compile(r"%\s*(Text|Question|Input|Output)\s*")


def _one_line(text: str) -> str:
    return " ".join(text.split())


def _made(make, *args):
    """`make(*args)`, or None when it raises ValueError."""
    try:
        return make(*args)
    except ValueError:
        return None


_REFERENCE_PROBLEM = re.compile(
    r"clause \d+: .+: (reference to undefined rule .+|binding .+, which is not a parameter of .+)", re.DOTALL
)


@st.composite
def _program(draw, heads: list[str], params: dict[str, list[str]], names, valid: bool, calls: dict) -> Program:
    """A program parsed from clause text, every head a subsection: a clause
    per head, its body an AND/OR/NOT nesting of references, ANDed with the
    reference `calls` holds for the head, if any. A binding passes a
    parameter of the callee, or a name. When `valid`, every callee has a
    rule and every binding passes a parameter of the caller; otherwise the
    parser leaves out each clause that calls a name that heads no clause or
    binds a name its head does not declare, and its callers keep their
    references to it."""

    def pick(pool: list[str]) -> st.SearchStrategy[str]:
        pool = st.sampled_from(pool) if pool else st.nothing()
        return pool if valid else st.one_of(pool, names)

    def reference(head: str, callee: str) -> st.SearchStrategy[str]:
        own = [p for p in params.get(callee, ()) if p != TRUTH_KEY]
        passed = names.filter(lambda n: n != TRUTH_KEY)
        passed = st.one_of(st.sampled_from(own), passed) if own else passed
        return st.lists(
            st.tuples(passed, pick(params[head])),
            unique_by=lambda b: b[0],
            max_size=3 if params[head] or not valid else 0,
        ).map(lambda pairs: f"{callee}({', '.join(p if p == v else f'{p}={v}' for p, v in pairs)})")

    clauses = []
    for head in heads:
        clause = f"{head}({', '.join(params[head])})"
        body = None
        if draw(st.booleans()):
            ref = pick(heads).flatmap(lambda callee, head=head: reference(head, callee))
            body = st.recursive(
                ref,
                lambda inner: st.one_of(
                    inner.map("NOT {}".format),
                    st.lists(inner, min_size=2, max_size=3).map(lambda c: "[" + " AND ".join(c) + "]"),
                    st.lists(inner, min_size=2, max_size=3).map(lambda c: "[" + " OR ".join(c) + "]"),
                ),
                max_leaves=5,
            )
            body = draw(body)
        if head in calls:
            body = f"[{body} AND {calls[head]}]" if body else calls[head]
        clauses.append(clause + (f" :- {body}." if body else "."))
    program, problems = parse_program("\n".join(clauses), heads)
    assert not (valid and problems), problems
    # Every clause parses and every head is a subsection: a clause has a rule or a reference problem.
    assert len(program) + len(problems) == len(heads), problems
    assert all(_REFERENCE_PROBLEM.fullmatch(message) for _, message in problems), problems
    return program


def _layer(draw, sid: str, text: str, labels: st.SearchStrategy[str | None], min_size: int = 0) -> ArgumentLayer | None:
    """A layer over `text`, or None when the constructor refuses its labels:
    sorted, disjoint spans (from at least `min_size` drawn) that cover more
    than whitespace, grouped into clusters that are labelled or not."""
    spans, end = [], 0
    starts = st.lists(st.tuples(st.integers(0, len(text) - 1), st.integers(1, 4)), min_size=min_size, max_size=5)
    for start, length in sorted(draw(starts)):
        stop = min(start + length, len(text))
        if start >= end and text[start:stop].strip():
            spans.append(Span(start, stop))
            end = stop
    groups: dict[int, list[int]] = {}
    for i, group in enumerate(draw(st.lists(st.integers(0, 3), min_size=len(spans), max_size=len(spans)))):
        groups.setdefault(group, []).append(i)
    names: list[str | None] = []
    for _ in groups:
        name = draw(labels)
        names.append(None if name in names else name)
    return _made(ArgumentLayer, sid, tuple(spans), tuple(map(tuple, groups.values())), tuple(names))


def _value_map(draw, keys: st.SearchStrategy[str], values: st.SearchStrategy, expected: bool) -> ValueMap | None:
    """A value map over `keys` and "@truth", which holds a truth score, or
    None when the constructor refuses it. An `expected` map expects
    something, and "@truth" unless it expects an amount."""
    truth = draw(st.booleans())
    # The first of each name, so that no draw is retried to make them unique.
    names = [name for name in dict.fromkeys(draw(st.lists(keys, max_size=3 - truth))) if name != TRUTH_KEY]
    if truth:
        names.insert(draw(st.integers(0, len(names))), TRUTH_KEY)
    pairs = [(name, draw(TRUTH_VALUES if name == TRUTH_KEY else values)) for name in names]
    if expected and TRUTH_KEY not in names and all(type(v) is not Money for _, v in pairs):
        pairs.append((TRUTH_KEY, draw(TRUTH_VALUES)))
    return _made(ValueMap, pairs)


@st.composite
def corpora(draw, distributed: bool = False) -> Corpus:
    """A corpus of what the model's constructors accept, drawn from text of
    every code point, within the loader's own rules: each layer has a
    subsection, its spans lie in the subsection's text and cover more than
    whitespace, a case expects something (a binary case, "@truth"), case ids
    are unique per cases directory, and no gold case is in the split
    "silver". Gold cases are mostly in "train" or "test". Values are of
    every kind, numbers and dollar amounts on both sides of the digit limit
    among them, and rules enter as parsed clause text. In three corpora in
    four the references from file to file hold, so that `load_corpus`
    accepts the corpus as `layouts.write_corpus` writes it: every rule head
    has a subsection, callees have rules, bindings pass the caller's
    parameters, labels name parameters of the layer's rule and queries name
    rules. In the others, queries, callees, bindings and labels name what
    exists or anything. The corpus comes without a manifest, its cases in
    the order the loader reads them.

    With `distributed`, the references hold, and the corpus is one that the
    distributed layout carries (see `_PLAIN_HEADS`), so
    `layouts.write_distributed` and `import_corpus` give it back. Half of
    those with a rule are drawn to send a value up through a binding: the
    first rule calls a rule (itself, at times) binding the callee's
    parameter P to its own parameter V, the callee's layer labels P and the
    caller's does not label V, and the first two gold cases are a "train"
    and a "test" case of the first rule, so that a constant resolver fits
    and predicts V from P."""
    names = _PLAIN_TOKENS if distributed else _TOKENS
    sound = distributed or draw(st.sampled_from([True, True, True, False]))
    heads = draw(st.lists(_PLAIN_HEADS if distributed else _HEADS, max_size=4, unique=True))
    heads = [head for head in heads if _made(Rule, head, ()) is not None]
    if sound:  # every head has a subsection
        heads = [head for head in heads if _made(Subsection, head, "-") is not None]
    params = {head: draw(st.lists(names, max_size=3, unique=True)) for head in heads}
    carry = distributed and bool(heads) and draw(st.booleans())
    if carry:
        query, callee = heads[0], draw(st.sampled_from(heads))
        p, v = draw(st.lists(names.filter(lambda n: n != TRUTH_KEY), min_size=2, max_size=2, unique=True))
        params[callee] = list(dict.fromkeys([*params[callee], p]))
        params[query] = list(dict.fromkeys([*params[query], v]))
    program = draw(_program(heads, params, names, sound, {query: f"{callee}({p}={v})"} if carry else {}))
    # Text that `Subsection` accepts: it holds no "\r" and starts with no U+FEFF.
    head_texts = _SECTION_TEXTS.map(lambda t: t.replace("\r", "\n")).filter(lambda t: t[0] != "\ufeff")
    if distributed:
        ids, labels = heads + draw(st.lists(_PLAIN_HEADS, max_size=3)), st.nothing()
        texts = head_texts
        descriptions = MODEL_TEXT_VALUES.map(_one_line).filter(lambda d: not _BLOCK_LINE.fullmatch(d))
        keys = MODEL_TEXT_VALUES.map(lambda k: _one_line(k.replace("=", "")))
        # One value in four is at the digit limit, so that most cases keep their values.
        values = st.one_of(MODEL_VALUES, MODEL_VALUES, MODEL_VALUES, _LONG_VALUES)
        queries = st.sampled_from(heads) if heads else st.nothing()
        case_ids, splits = _CASE_IDS, st.sampled_from(["train", "test"])
    else:
        ids = [h for h in heads if sound or draw(st.booleans())]
        ids += draw(st.lists(st.one_of(_SUBSECTION_IDS, _ANY_TEXT), max_size=3))
        texts = st.one_of(_SECTION_TEXTS, _ANY_TEXT)
        labels = st.nothing() if sound else st.one_of(st.none(), _ANY_TEXT)
        descriptions = keys = _ANY_TEXT
        queries = st.nothing() if sound else _ANY_TEXT
        values = st.one_of(MODEL_VALUES, _ANY_TEXT, _LONG_VALUES)
        case_ids, splits = st.one_of(_CASE_IDS, _ANY_TEXT), _SPLITS

    subsections = {}
    for sid in dict.fromkeys(ids):
        subsection = _made(Subsection, sid, draw(texts))
        if subsection is None and sound and sid in heads:
            subsection = Subsection(sid, draw(head_texts))
        if subsection is not None:
            subsections[sid] = subsection
    layers = {}
    for sid, subsection in subsections.items():
        if carry and sid == callee:
            layers[sid] = _layer(draw, sid, subsection.text, st.just(p), 1)
        elif draw(st.booleans()):
            rule_labels = st.sampled_from([None, *(n for n in params.get(sid, ()) if not (carry and n == v))])
            layers[sid] = _layer(draw, sid, subsection.text, st.one_of(rule_labels, labels))
    layers = {sid: layer for sid, layer in layers.items() if layer is not None}

    def cases(split: str | None) -> list[Case]:
        out = []
        first = ["train", "test"] if carry and split is None else []
        ids = draw(st.lists(case_ids, min_size=len(first), max_size=3 if heads or not sound else 0))
        if first and ids[0] == ids[1]:  # the carry's two cases, each with its own id
            ids[1] += "2"
        for i, cid in enumerate(dict.fromkeys(ids)):  # the first of each id
            inputs, expected = _value_map(draw, keys, values, False), _value_map(draw, keys, values, True)
            case = inputs is not None and expected is not None and _made(
                Case, cid, draw(descriptions),
                query if i < len(first) else draw(st.one_of(st.sampled_from(heads or [""]), queries)), inputs,
                expected, first[i] if i < len(first) else split or draw(splits),
            )
            if case:
                out.append(case)
        return out

    gold = sorted(cases(None), key=lambda case: f"{case.split}.cases")
    # At most one section file per subsection, so that the offsets index names each.
    files = st.lists(_SECTION_FILES, min_size=min(1, len(subsections)), max_size=min(3, len(subsections)))
    section_files = tuple(sorted(set(draw(files))))
    return Corpus(None, subsections, layers, program, tuple(gold), tuple(cases("silver")), section_files)


def corpus_fields(corpus: Corpus) -> tuple:
    """Everything a corpus holds but its manifest."""
    return tuple(getattr(corpus, name) for name in Corpus.__slots__[1:])


def corpus_of(program: Program, layers: dict[str, ArgumentLayer], texts: dict[str, str], cases=()) -> Corpus:
    """A corpus made from parts: a subsection per text, the layers and the
    program as given, the gold cases and one section file, which
    `layouts.write_corpus` writes; no manifest and no silver case. Like a
    loaded corpus, it should give every id that the program names a text."""
    subsections = {sid: Subsection(sid, text) for sid, text in texts.items()}
    return Corpus(None, subsections, layers, program, tuple(cases), (), ("statute.txt",))


def one_case_corpus(program: Program, query: str) -> Corpus:
    """A corpus of `program` with a text for its first rule only and one
    case, of `query`."""
    head = next(iter(program))
    case = Case("c", "d", query, ValueMap(), ValueMap({TRUTH_KEY: 1.0}), "test")
    return corpus_of(program, {}, {head: f"{head} holds"}, [case])


# Corpora that every drawn-corpus property also checks by name: one the
# loader reads, one it refuses as a case's query is no rule, and one it
# refuses as a rule calls an id that is neither a rule nor a subsection.
ONE_RULE = one_case_corpus({"A": Rule("A", ())}, "A")
QUERY_NOT_A_RULE = one_case_corpus({"A": Rule("A", ())}, "B")
CALLEE_UNDEFINED = one_case_corpus({"A": Rule("A", (), Ref("B", ()))}, "A")
EXPLICIT_CORPORA = (ONE_RULE, QUERY_NOT_A_RULE, CALLEE_UNDEFINED)
