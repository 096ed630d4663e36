"""Seeded generator for a SARA-scale synthetic corpus.

The corpus has the fixture's shape at SARA's size: section files of nested
subsections whose placeholder mentions form labelled clusters, a structure
file whose rules pass `check_references`, a wide nested `Tax` root rule,
`-positive`/`-negative` case pairs, numerical `Tax` cases and silver cases.
Every record file is written through `statreason.corpus.serialize_*`, so it
is canonical. The same seed and scale always give the same bytes.

Alongside the files the generator returns the answer they imply without
running statreason: the oracle resolver's `unified` accuracy on each split.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from statreason.corpus import serialize_cases, serialize_coref, serialize_spans
from statreason.model import TRUTH_KEY, ArgumentLayer, Case, Money, Span, ValueMap


@dataclass(frozen=True)
class Scale:
    sections: int  # section files, each one `§N(a)` top with nested children
    children: int  # `(1)`, `(2)`, ... under each top
    grandchildren: int  # at most this many `(A)`, `(B)`, ... under each child
    tax_refs: int  # section tops referenced by the Tax root rule
    pairs: int  # positive/negative pairs per split
    tax_cases: int  # numerical Tax cases per split
    silver: int


SCALES = {
    "smoke": Scale(sections=3, children=2, grandchildren=2, tax_refs=3, pairs=4, tax_cases=2, silver=4),
    "sara": Scale(sections=16, children=4, grandchildren=3, tax_refs=14, pairs=200, tax_cases=60, silver=40),
}

# name -> (kind, mention surfaces). Surfaces that normalize alike
# ("the taxpayer", "such taxpayer") are merged by the string-matching
# baseline; the others ("the individual") and the surfaces shared between
# arguments are what keep it imperfect, as on SARA.
ARGUMENTS = {
    "Taxp": ("person", ["the taxpayer", "such taxpayer", "the individual", "such individual", "a taxpayer"]),
    "Spouse": ("person", ["the spouse", "such spouse", "a taxpayer spouse"]),
    "Employee": ("person", ["an employee", "the employee", "such employee", "the individual"]),
    "Employer": ("person", ["an employer", "the employer", "such employer"]),
    "Dependent": ("person", ["a dependent", "the dependent", "such dependent"]),
    "Taxy": ("year", ["the taxable year", "such taxable year", "the year"]),
    "Caly": ("year", ["the calendar year", "such calendar year", "any calendar year"]),
    "Preccaly": ("year", ["the preceding calendar year"]),
    "Grossinc": ("money", ["the gross income", "such gross income", "his gross income"]),
    "Taxinc": ("money", ["the taxable income", "such taxable income"]),
    "Wages": ("money", ["the wages", "such wages", "the amount of wages"]),
    "Bassd": ("money", ["the basic standard deduction", "such deduction"]),
    "Tax": ("money", ["the tax", "such tax", "the tax imposed"]),
    "Remun": ("money", ["the remuneration", "such remuneration", "any remuneration"]),
}
THINGS = [
    ["a household", "such household", "the household"],
    ["the principal place of abode", "such place of abode"],
    ["any service", "such service", "the service performed"],
    ["a trade or business", "such trade or business"],
    ["the property", "such property", "any property"],
    ["a joint return", "such return", "the return"],
    ["some portion of the day", "each day", "the day"],
    ["an election", "such election"],
]
CORE = ("Taxp", "Taxy")
CONNECTORS = [
    " shall be treated as paid by ",
    " with respect to ",
    " for ",
    " is allowable to ",
    " during ",
    " under this section to ",
    " if paid in cash to ",
    " shall not exceed ",
    " in connection with ",
    " is includible in ",
]
OPENERS = ["In the case of ", "For purposes of this paragraph, ", "Except as provided in subsection (b), ", ""]
NAMES = ["Alice", "Bob", "Charlie", "Dana", "Erin", "Frank", "Grace", "Heidi", "Ivan", "Judy", "Mallory", "Oscar"]
SECTION_NUMBERS = [1, 2, 3, 21, 32, 63, 68, 132, 151, 152, 162, 213, 217, 219, 274, 280, 401, 408, 409, 411,
                   1001, 1011, 1012, 3301, 3306, 7703, 6001, 6011, 2001, 2010]
LETTERS = "ABCDEFGH"


@dataclass
class _Sub:
    id: str
    label: str  # the "(x)" group that opens the text; "" for tops and Tax
    args: list[str]  # named clusters, in order of first mention
    params: list[str]
    children: list["_Sub"]


def generate(dest: Path, seed: int, scale: str = "sara") -> dict[str, float]:
    """Write a corpus under `dest`, which must not exist; return the oracle's
    unified accuracy on each split ("train", "test", "all")."""
    return _Generator(random.Random(seed), SCALES[scale]).write(Path(dest))


class _Generator:
    def __init__(self, rng: random.Random, scale: Scale):
        self.rng = rng
        self.scale = scale
        self.things: dict[str, list[str]] = {}
        self.decks: dict[str, list] = {}

    def _deal(self, deck: str, pattern: list):
        """Draw from a shuffled deck of `pattern`, refilled when empty. Sizes
        come from decks rather than free draws so that every seed gives a
        corpus of nearly the same size, and the benchmark's figures differ
        little from seed to seed."""
        if not self.decks.get(deck):
            self.decks[deck] = self.rng.sample(pattern, len(pattern))
        return self.decks[deck].pop()

    # -- statutes ------------------------------------------------------------

    def _thing(self, section: int) -> str:
        name = f"S{section}_{sum(t.startswith(f'S{section}_') for t in self.things)}"
        self.things[name] = self.rng.choice(THINGS)
        return name

    def _args_for(self, section: int, local: list[str], top: bool = False) -> list[str]:
        """Pick arguments for one subsection from its section's pool: 0-5, or
        all of them plus one or two more for a section top, since tops are
        what most cases query."""
        if top:
            return list(CORE) + local + [self._thing(section) for _ in range(self._deal("top things", [1, 2]))]
        picked = self.rng.sample(list(CORE) + local, self._deal("arguments", [0, 1, 2, 2, 3, 3, 3, 4, 4, 5]))
        if picked and self._deal("things", [1, 0, 0]):
            picked.append(self._thing(section))
        return picked

    def _sections(self) -> list[_Sub]:
        rng, scale = self.rng, self.scale
        numbers = rng.sample(SECTION_NUMBERS, scale.sections)
        tops = []
        extra = [a for a in ARGUMENTS if a not in CORE and a != "Tax"]
        for number in numbers:
            local = rng.sample(extra, 4)
            section_params = list(CORE) + local
            top = _Sub(f"§{number}(a)", "", self._args_for(number, local, top=True), [], [])
            for i in range(1, scale.children + 1):
                child = _Sub(f"§{number}(a)({i})", f"({i})", self._args_for(number, local), [], [])
                for j in range(self._deal("grandchildren", list(range(scale.grandchildren + 1)))):
                    letter = LETTERS[j]
                    leaf = _Sub(f"§{number}(a)({i})({letter})", f"({letter})",
                                self._args_for(number, local), [], [])
                    leaf.params = list(leaf.args)
                    child.children.append(leaf)
                child.params = _union(child.args, *[c.params for c in child.children if rng.random() < 0.5])
                top.children.append(child)
            top.params = _union(list(CORE), top.args, [p for p in section_params if rng.random() < 0.5])
            tops.append(top)
        return tops

    def _text(self, sub: _Sub) -> tuple[str, list[Span], list[tuple[int, ...]], list[str]]:
        """Subsection text plus its gold spans and labelled clusters."""
        rng = self.rng
        mentions = []
        for name in sub.args:
            mentions.append(name)
        deck, extra = ("top mentions", [0, 1, 1, 2]) if sub.label == "" else ("mentions", [0, 0, 0, 1, 1, 2, 3])
        for name in sub.args:
            mentions += [name] * self._deal(deck, extra)
        first, rest = mentions[: len(sub.args)], mentions[len(sub.args) :]
        rng.shuffle(rest)
        order = first + rest
        text = f"{sub.label} " if sub.label else ""
        if not order:
            amount = rng.randint(2, 90) * 250
            return text + f"${amount:,}, or", [], [], []
        text += rng.choice(OPENERS)
        spans: list[Span] = []
        members: dict[str, list[int]] = {name: [] for name in sub.args}
        for k, name in enumerate(order):
            if k:
                text += rng.choice(CONNECTORS)
            surfaces = ARGUMENTS[name][1] if name in ARGUMENTS else self.things[name]
            surface = rng.choice(surfaces)
            members[name].append(len(spans))
            spans.append(Span(len(text), len(text) + len(surface)))
            text += surface
        text += "."
        return text, spans, [tuple(members[n]) for n in sub.args], list(sub.args)

    # -- rules ---------------------------------------------------------------

    def _ref(self, callee: _Sub, caller_params: list[str]) -> str:
        bindings = []
        for param in callee.params:
            if param in caller_params:
                bindings.append(param)
            elif ARGUMENTS.get(param, ("",))[0] == "person" and "Taxp" in caller_params and self.rng.random() < 0.5:
                bindings.append(f"{param}=Taxp")
        return f"{callee.id}({', '.join(bindings)})"

    def _body(self, refs: list[str]) -> str:
        """Nest refs under random AND/OR/NOT, bracketing every inner group."""
        rng = self.rng
        if len(refs) == 1:
            return f"NOT {refs[0]}" if rng.random() < 0.15 else refs[0]
        if len(refs) > 3 and rng.random() < 0.7:
            cut = rng.randint(1, len(refs) - 1)
            parts = [self._body(refs[:cut]), self._body(refs[cut:])]
        else:
            parts = [self._body([r]) for r in refs]
        op = rng.choice([" AND ", " OR "])
        return op.join(f"[{p}]" if " AND " in p or " OR " in p else p for p in parts)

    def _rule(self, sub: _Sub) -> str:
        head = f"{sub.id}({', '.join(sub.params)})"
        if not sub.children:
            return head + "."
        return head + " :- " + self._body([self._ref(c, sub.params) for c in sub.children]) + "."

    # -- cases ---------------------------------------------------------------

    def _description(self, people: list[str], year: int, income: int) -> str:
        rng = self.rng
        a, b, c = people
        sentences = [
            f"In {year}, {a} was paid ${income}.",
            f"{a} and {b} have been married since {rng.choice(['Feb', 'Mar', 'Oct'])} {rng.randint(1, 28)}th,"
            f" {year - rng.randint(0, 20)}.",
            f"{b} earned ${rng.randint(0, 9000)} in {year}.",
            f"{a} maintains a household which is the principal place of abode of {c}.",
            f"{a} has employed {c} on {rng.randint(2, 40)} days during the year {year}.",
        ]
        rng.shuffle(sentences)
        return " ".join(sentences[: rng.randint(2, 5)])

    def _case(self, cid: str, query: _Sub, truth: bool, split: str, money: bool) -> Case:
        rng = self.rng
        people = rng.sample(NAMES, 3)
        year = rng.randint(2010, 2019)
        income = rng.randint(5, 400) * 1000
        inputs = {"Taxp": people[0], "Taxy": str(year)}
        inputs = {k: v for k, v in inputs.items() if k in query.params}
        expected: dict = {}
        if money:
            expected["Tax"] = Money(income // 4 + rng.randint(0, 999))
        else:
            named = [a for a in query.args if a not in inputs and ARGUMENTS.get(a, ("",))[0] == "person"]
            if named and truth and rng.random() < 0.5:
                expected[named[0]] = people[2]
        expected[TRUTH_KEY] = 1.0 if truth else 0.0
        return Case(cid, self._description(people, year, income), query.id, ValueMap(inputs), ValueMap(expected), split)

    # -- output --------------------------------------------------------------

    def write(self, dest: Path) -> dict[str, float]:
        rng, scale = self.rng, self.scale
        tops = self._sections()
        tax_refs = rng.sample(tops, scale.tax_refs)
        tax = _Sub("Tax", "", ["Tax", "Taxp", "Taxy", "Taxinc", "Grossinc"], [], tax_refs)
        tax.params = _union(tax.args, ["Bassd", "Wages"])

        statutes = dest / "statutes"
        statutes.mkdir(parents=True)
        offsets, layers, rules = [], [], ["% Generated structure annotations."]
        files = [(f"section{top.id[1:].split('(')[0]}.txt", _walk(top)) for top in tops]
        files.append(("tax.txt", [tax]))
        for fname, subs in files:
            body = ""
            for sub in subs:
                text, spans, clusters, names = self._text(sub)
                if body:
                    body += "\n\n"
                offsets.append(f'{sub.id} file="{fname}" start={len(body)} end={len(body) + len(text)}')
                body += text
                layers.append(ArgumentLayer(sub.id, tuple(spans), tuple(clusters), tuple(names)))
                rules.append(self._rule(sub))
            (statutes / fname).write_text(body + "\n", encoding="utf-8")
        (statutes / "offsets.txt").write_text("\n".join(offsets) + "\n", encoding="utf-8")
        (dest / "spans.txt").write_text(serialize_spans(layers), encoding="utf-8")
        (dest / "coref.txt").write_text(serialize_coref(layers), encoding="utf-8")
        (dest / "structure.txt").write_text("\n".join(rules) + "\n", encoding="utf-8")

        # Many cases share a query, as on SARA: the queries are the section
        # tops, the child of each with the most children, and Tax.
        queries = tops + [max(top.children, key=lambda c: len(c.children)) for top in tops]
        cases: dict[str, list[Case]] = {}
        for split in ("train", "test"):
            out = []
            for k in range(scale.pairs):
                query = self._deal("queries", queries)
                stem = f"{query.id[1:]}-{split}{k}"
                out.append(self._case(f"{stem}-positive", query, True, split, False))
                out.append(self._case(f"{stem}-negative", query, False, split, False))
            out += [self._case(f"tax-{split}-{k}", tax, True, split, True) for k in range(scale.tax_cases)]
            rng.shuffle(out)
            cases[split] = out
        silver = [self._case(f"silver-{k}", rng.choice([tax] + queries), True, "silver", True)
                  for k in range(scale.silver)]

        (dest / "cases").mkdir()
        for split, items in cases.items():
            (dest / "cases" / f"{split}.cases").write_text(serialize_cases(items), encoding="utf-8")
        (dest / "silver").mkdir()
        (dest / "silver" / "silver.cases").write_text(serialize_cases(silver), encoding="utf-8")
        (dest / "manifest.txt").write_text(
            "statutes=statutes\nspans=spans.txt\ncoref=coref.txt\nstructure=structure.txt\n"
            "cases=cases\nsilver=silver\n",
            encoding="utf-8",
        )

        by_id = {l.subsection_id: l for l in layers}
        oracle = {split: _oracle_unified(items, by_id) for split, items in cases.items()}
        oracle["all"] = _oracle_unified(cases["train"] + cases["test"], by_id)
        return oracle


def _oracle_unified(cases: list[Case], layers: dict[str, ArgumentLayer]) -> float:
    """The oracle answers @truth and every argument its query subsection
    mentions that is not an input; anything else it misses."""
    hits = total = 0
    for case in cases:
        named = set(layers[case.query].cluster_names)
        for name in case.expected:
            total += 1
            hits += name == TRUTH_KEY or (name in named and name not in case.inputs)
    return hits / total


def _walk(sub: _Sub) -> list[_Sub]:
    out = [sub]
    for child in sub.children:
        out += _walk(child)
    return out


def _union(*lists: list[str]) -> list[str]:
    return list(dict.fromkeys(name for items in lists for name in items))
