"""Seeded random generators and hypothesis strategies shared by property
and acceptance tests."""

from __future__ import annotations

import datetime
import enum
import random

import hypothesis.strategies as st

from statreason.model import TRUTH_KEY, ArgumentLayer, Money, Span, ValueMap
from statreason.rules import And, Not, Or, Program, Ref, Rule, iter_refs


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
        return Not(_random_body(rng, params, depth + 1))
    children = tuple(_random_body(rng, params, depth + 1) for _ in range(rng.randrange(2, 4)))
    return And(children) if roll < 0.8 else Or(children)


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
                body = (And if rng.random() < 0.5 else Or)(tuple(refs))
        rules[head] = Rule(head, params, body)
    return Program(rules)


def random_nested_program(rng: random.Random, n_rules: int) -> Program:
    """`random_program` with each body's references regrouped into a random
    nesting of AND, OR and NOT, one of them sometimes referenced twice."""
    rules: dict[str, Rule] = {}
    for head, rule in random_program(rng, n_rules).rules.items():
        refs = list(iter_refs(rule.body))
        if refs and rng.random() < 0.3:
            refs.append(rng.choice(refs))
        rules[head] = Rule(head, rule.params, _nest(rng, refs) if refs else None)
    return Program(rules)


def _nest(rng: random.Random, refs: list[Ref]):
    if len(refs) == 1:
        expr = refs[0]
    else:
        cut = rng.randrange(1, len(refs))
        expr = (And if rng.random() < 0.5 else Or)((_nest(rng, refs[:cut]), _nest(rng, refs[cut:])))
    return Not(expr) if rng.random() < 0.25 else expr


def random_value_map(rng: random.Random, keys=("X", "Y", "Z")) -> ValueMap:
    pairs: dict[str, object] = {"@truth": rng.random()}
    for key in keys:
        if rng.random() < 0.6:
            pairs[key] = rng.choice(["a", "b", "c", "d"])
    return ValueMap(pairs)


# Every value kind, unrestricted within what the model admits: text over
# every code point (surrogates included), signed numbers and money, dates,
# truth scores over [0, 1] including subnormals, and homogeneous lists of any
# of these. Text draws the characters a writer must escape (quotes,
# backslashes and every str.splitlines separator) often, not only by chance.
ESCAPED_CHARACTERS = '"\\\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'
TEXT_VALUES = st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from(ESCAPED_CHARACTERS)))
MONEY_VALUES = st.integers().map(Money)
TRUTH_VALUES = st.floats(min_value=0.0, max_value=1.0)
_KINDS = [TEXT_VALUES, st.integers(), MONEY_VALUES, TRUTH_VALUES, st.dates()]
VALUES = st.one_of(
    *_KINDS, st.sampled_from(_KINDS).flatmap(lambda kind: st.lists(kind, max_size=3).map(tuple))
)


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
