"""Horn-clause structure annotations: parsing, printing, linking, unrolling.

The annotation language covers one clause per statement:

    clause  :=  head [ ":-" body ] "."
    head    :=  term                       (argument list holds parameter names)
    body    :=  or_expr
    or_expr :=  and_expr { "OR" and_expr }
    and_expr:=  not_expr { "AND" not_expr }
    not_expr:=  "NOT" not_expr | "[" body "]" | term
    term    :=  identifier group* "(" args ")"

A term's final parenthesized group is always its argument list; any earlier
groups belong to the section identifier (so "§63(c)(5)(A)()" is the
identifier "§63(c)(5)(A)" called with no arguments). Identifiers may also be
bare names such as "Tax". In a body argument list, "A=B" passes the caller's
variable B as the callee's parameter A, and a bare name N abbreviates "N=N".
"%" starts a comment that runs to the end of the line. Brackets and NOTs
nest at most `model.MAX_NESTING` (100) levels in a body.

A parsed body is plain data: a `Ref`, or an `Op` whose `kind` ("AND", "OR"
or "NOT") is the string `engine.do_operation` combines by. A program is a
dict of `Rule`s by head; `parse_program` returns it with a (line, message)
pair per problem.
"""

from __future__ import annotations

import re

from .model import MAX_NESTING, TRUTH_KEY, Frozen, _set


class RuleSyntaxError(ValueError):
    """Parse failure, with a character position into the parsed text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class _Unterminated(RuleSyntaxError):
    """A clause that lacks only its final "."."""


# ---------------------------------------------------------------------------
# Clause AST


class Ref(Frozen):
    """A reference to another subsection, with (callee param, caller var) bindings."""

    __slots__ = ("callee_id", "bindings")

    def __init__(self, callee_id: str, bindings: tuple[tuple[str, str], ...]):
        # Checked here so that value propagation never builds a map with a
        # parameter bound twice or a non-truth value under "@truth".
        params = [param for param, _ in bindings]
        if len(params) != len(set(params)):
            raise ValueError(f"{callee_id}: parameter bound twice")
        if TRUTH_KEY in params:
            raise ValueError(f"{callee_id}: {TRUTH_KEY} cannot be bound")
        _set(self, "callee_id", callee_id)
        _set(self, "bindings", bindings)


class Op(Frozen):
    """An operator over body expressions: "AND" or "OR" over at least 2
    children, or "NOT" over exactly 1."""

    __slots__ = ("kind", "children")

    def __init__(self, kind: str, children: tuple):
        if kind == "NOT":
            if len(children) != 1:
                raise ValueError("NOT needs exactly 1 child")
        elif kind != "AND" and kind != "OR":
            raise ValueError(f"unknown operator {kind!r}")
        elif len(children) < 2:
            raise ValueError(f"{kind} needs at least 2 children")
        _set(self, "kind", kind)
        _set(self, "children", children)


BodyExpr = Ref | Op


class Rule(Frozen):
    __slots__ = ("head_id", "params", "body")

    def __init__(self, head_id: str, params: tuple[str, ...], body: BodyExpr | None = None):
        if len(params) != len(set(params)):
            raise ValueError(f"{head_id}: duplicate parameter names")
        _set(self, "head_id", head_id)
        _set(self, "params", params)
        _set(self, "body", body)


Program = dict[str, Rule]  # the rule base: one rule per section identifier


# ---------------------------------------------------------------------------
# Tokenizer and parser

# Blanks and comments match with group 1 empty; every other match is a
# token (":-", a punctuation mark or a name) or a ":" that starts no ":-",
# the one character no token takes, which the parser reports.
_TOKEN_RE = re.compile(r"\s+|%[^\n]*|(:-|[()\[\],=.]|[^\s()\[\],=.%:]+|:)")

# Every token that is not a name; "" ends the input.
_NOT_NAMES = frozenset([":-", "(", ")", "[", "]", ",", "=", ".", "AND", "OR", "NOT", ""])


class _Parser:
    """Recursive descent over the token texts; `index` is the next token.
    Token positions are found only for an error message."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = [token for token in _TOKEN_RE.findall(text) if token] + [""]
        self.index = 0
        self._positions: list[int] | None = None
        if ":" in self.tokens:
            raise RuleSyntaxError("unexpected character ':'", self.position(self.tokens.index(":")))

    def position(self, index: int) -> int:
        """The character offset of token `index`."""
        if self._positions is None:
            self._positions = [m.start() for m in _TOKEN_RE.finditer(self.text) if m.group(1)] + [len(self.text)]
        return self._positions[index]

    def expect(self, text: str, error: type[RuleSyntaxError] = RuleSyntaxError) -> None:
        token = self.tokens[self.index]
        if token != text:
            raise error(f"expected {text!r}, found {token or 'end of input'!r}", self.position(self.index))
        self.index += 1

    # -- terms --------------------------------------------------------------

    def parse_term(self) -> tuple[str, list[tuple[str, str | None]], int]:
        """A section identifier, its final argument list as (name,
        bound_name_or_None) items, and the index of its first token."""
        start = self.index
        ident = self.tokens[start]
        if ident in _NOT_NAMES:
            raise RuleSyntaxError(
                f"expected a section identifier, found {ident or 'end of input'!r}", self.position(start)
            )
        self.index += 1
        groups: list[tuple[list[tuple[str, str | None]], int]] = []
        while self.tokens[self.index] == "(":
            groups.append(self._parse_group())
        if not groups:
            raise RuleSyntaxError(f"term {ident!r} is missing its argument list", self.position(start))
        *ident_groups, (args, _) = groups
        for items, index in ident_groups:
            if len(items) != 1 or items[0][1] is not None:
                raise RuleSyntaxError("identifier group must hold a single plain name", self.position(index))
            ident += f"({items[0][0]})"
        return ident, args, start

    def _parse_group(self) -> tuple[list[tuple[str, str | None]], int]:
        tokens = self.tokens
        start = i = self.index  # at its "("
        i += 1
        items: list[tuple[str, str | None]] = []
        if tokens[i] != ")":
            while True:
                name = tokens[i]
                if name in _NOT_NAMES:
                    raise RuleSyntaxError(f"expected a name, found {name or 'end of input'!r}", self.position(i))
                i += 1
                bound: str | None = None
                if tokens[i] == "=":
                    i += 1
                    if tokens[i] in _NOT_NAMES:
                        raise RuleSyntaxError(f"expected a name after '=', found {tokens[i]!r}", self.position(i))
                    bound = tokens[i]
                    i += 1
                items.append((name, bound))
                if tokens[i] != ",":
                    break
                i += 1
        self.index = i
        self.expect(")")
        return items, start

    # -- body expressions (NOT > AND > OR) -----------------------------------

    def parse_body(self, depth: int = 0) -> BodyExpr:
        """A body inside `depth` brackets and NOTs."""
        children = [self._parse_and(depth)]
        while self.tokens[self.index] == "OR":
            self.index += 1
            children.append(self._parse_and(depth))
        return children[0] if len(children) == 1 else Op("OR", tuple(children))

    def _parse_and(self, depth: int) -> BodyExpr:
        children = [self._parse_not(depth)]
        while self.tokens[self.index] == "AND":
            self.index += 1
            children.append(self._parse_not(depth))
        return children[0] if len(children) == 1 else Op("AND", tuple(children))

    def _parse_not(self, depth: int) -> BodyExpr:
        token = self.tokens[self.index]
        if token == "NOT" or token == "[":
            if depth == MAX_NESTING:
                message = f"brackets and NOTs nest deeper than {MAX_NESTING} levels"
                raise RuleSyntaxError(message, self.position(self.index))
            self.index += 1
            if token == "NOT":
                return Op("NOT", (self._parse_not(depth + 1),))
            body = self.parse_body(depth + 1)
            self.expect("]")
            return body
        ident, items, start = self.parse_term()
        bindings = tuple((name, bound if bound is not None else name) for name, bound in items)
        try:
            return Ref(ident, bindings)
        except ValueError as exc:
            raise RuleSyntaxError(str(exc), self.position(start)) from exc

    # -- clauses --------------------------------------------------------------

    def parse_clause(self) -> Rule:
        ident, items, start = self.parse_term()
        params = []
        for name, bound in items:
            if bound is not None:
                raise RuleSyntaxError(f"head parameter {name!r} cannot carry a binding", self.position(start))
            params.append(name)
        body: BodyExpr | None = None
        if self.tokens[self.index] == ":-":
            self.index += 1
            body = self.parse_body()
        self.expect(".", _Unterminated)
        try:
            return Rule(ident, tuple(params), body)
        except ValueError as exc:
            raise RuleSyntaxError(str(exc), self.position(start)) from exc


def parse_program(text: str) -> tuple[Program, list[tuple[int, str]]]:
    """Parse a whole structure-annotation file into the rules of the clauses
    that parse, by head, and a (line, message) problem per clause that does
    not or repeats a head, each message with its 1-based clause number, or
    one problem for text that does not tokenize."""
    try:
        parser = _Parser(text)
    except RuleSyntaxError as exc:
        return {}, [(text.count("\n", 0, exc.position) + 1, str(exc))]
    rules: Program = {}
    problems: list[tuple[int, str]] = []  # (position, message) pairs
    clause_no = 0
    tokens = parser.tokens
    while tokens[parser.index]:
        clause_no += 1
        start = parser.index
        try:
            rule = parser.parse_clause()
        except RuleSyntaxError as exc:
            problems.append((exc.position, f"clause {clause_no}: {exc}"))
            # A clause that lacks only its "." ends where the next line
            # begins; resume there. Otherwise skip to just past the next ".".
            line_start = text.rfind("\n", 0, exc.position) + 1
            if isinstance(exc, _Unterminated) and not text[line_start : exc.position].strip():
                continue
            while tokens[parser.index]:
                parser.index += 1
                if tokens[parser.index - 1] == ".":
                    break
            continue
        if rule.head_id in rules:
            problems.append((parser.position(start), f"clause {clause_no}: duplicate rule for {rule.head_id}"))
        else:
            rules[rule.head_id] = rule
    return rules, [(text.count("\n", 0, position) + 1, message) for position, message in problems]


# ---------------------------------------------------------------------------
# Pretty-printer


def print_body(expr: BodyExpr, parent: str = "OR") -> str:
    if isinstance(expr, Ref):
        parts = [p if p == v else f"{p}={v}" for p, v in expr.bindings]
        return f"{expr.callee_id}({', '.join(parts)})"
    op = expr.kind
    text = f" {op} ".join(print_body(c, op) for c in expr.children)
    if op == "NOT":
        return f"NOT {text}"
    # Brackets wherever re-parsing would otherwise regroup: under NOT, an OR
    # chain under AND, and same-operator nesting (parsing flattens chains).
    needs_brackets = (parent == "NOT") or (parent == "AND" and op == "OR") or parent == op
    return f"[{text}]" if needs_brackets else text


def print_rule(rule: Rule) -> str:
    head = f"{rule.head_id}({', '.join(rule.params)})"
    if rule.body is None:
        return f"{head}."
    return f"{head} :- {print_body(rule.body)}."


# ---------------------------------------------------------------------------
# Cross-reference checking


def iter_refs(body: BodyExpr | None):
    """All references in a rule body (None for a rule without one), in
    textual order."""
    if isinstance(body, Ref):
        yield body
    elif body is not None:
        for child in body.children:
            yield from iter_refs(child)


def reference_problems(program: Program) -> list[tuple[Rule, str]]:
    """Dangling callees and bindings to undeclared variables, each with the
    rule it is about."""
    problems = []
    for rule in program.values():
        params = set(rule.params)
        for ref in iter_refs(rule.body):
            if ref.callee_id not in program:
                problems.append((rule, f"{rule.head_id}: reference to undefined rule {ref.callee_id}"))
            for callee_param, caller_var in ref.bindings:
                if caller_var not in params:
                    problems.append((
                        rule,
                        f"{rule.head_id}: binding {callee_param}={caller_var} uses {caller_var!r}, "
                        f"which is not a parameter of {rule.head_id}",
                    ))
    return problems


# ---------------------------------------------------------------------------
# Unrolling


def unroll(program: Program, root_id: str, depth_cap: int):
    """The rule base unrolled below `root_id` with a stack of its own, so any
    cap unrolls: its nodes in post order as (op, id, depth, bindings, body,
    arity) tuples. The root is at depth 1, a callee one deeper than its
    caller and an operator ("AND", "OR", "NOT") at its subsection's depth,
    after its `arity` operands. A subsection at depth == depth_cap gets no
    body, so a recursive rule unrolls until the cap, and a callee without a
    rule is a leaf. A subsection with a body comes as "open" (`body` False)
    before it and "subsection" after; `bindings` are its reference's (callee
    param, caller var) pairs, empty for the root."""
    todo: list = [(Ref(root_id, ()), 0)]  # tuples to yield and (expression, caller depth) pairs
    while todo:
        item = todo.pop()
        if isinstance(item[0], str):
            yield item
        elif isinstance(item[0], Ref):
            ref, depth = item[0], item[1] + 1
            rule = program.get(ref.callee_id)
            body = rule.body if rule is not None and depth < depth_cap else None
            todo.append(("subsection", ref.callee_id, depth, ref.bindings, body is not None, 0))
            if body is not None:
                yield ("open", ref.callee_id, depth, ref.bindings, False, 0)
                todo.append((body, depth))
        else:
            expr, depth = item
            todo.append((expr.kind, None, depth, (), False, len(expr.children)))
            todo += [(child, depth) for child in reversed(expr.children)]


class SubsectionNode(Frozen):
    """A subsection of an unrolled tree, as `unroll` gives it, and its body or None."""

    __slots__ = ("id", "depth", "bindings", "child")


class OpNode(Frozen):
    """An operator of an unrolled tree: `kind` is "AND", "OR" or "NOT"."""

    __slots__ = ("kind", "depth", "children")


class DepTree(Frozen):
    __slots__ = ("root", "depth_cap")


def build_dependency_tree(program: Program, root_id: str, depth_cap: int) -> DepTree:
    """`unroll`'s tuples below `root_id` folded into a tree of nodes, which
    only the benchmark's tree probe reads; the engine compiles `unroll`'s."""
    if root_id not in program:
        raise KeyError(f"unknown rule: {root_id}")
    if depth_cap < 1:
        raise ValueError(f"depth cap must be >= 1, got {depth_cap}")
    nodes: list = []
    for op, sid, depth, bindings, body, arity in unroll(program, root_id, depth_cap):
        if op == "subsection":
            nodes.append(SubsectionNode(sid, depth, bindings, nodes.pop() if body else None))
        elif op != "open":
            nodes[-arity:] = [OpNode(op, depth, tuple(nodes[-arity:]))]
    return DepTree(nodes.pop(), depth_cap)
