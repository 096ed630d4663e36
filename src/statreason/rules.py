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
"%" starts a comment that runs to the end of the line.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .model import TRUTH_KEY, Frozen, ValueMap, _set


class RuleSyntaxError(ValueError):
    """Parse failure, with a character position into the parsed text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ProgramSyntaxError(RuleSyntaxError):
    """Every problem of a structure file: `problems` holds a (position,
    message) pair per bad clause, or one for text that does not tokenize."""

    def __init__(self, problems: list[tuple[int, str]]):
        ValueError.__init__(self, "; ".join(message for _, message in problems))
        self.position = problems[0][0]
        self.problems = problems


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


class And(Frozen):
    __slots__ = ("children",)

    def __init__(self, children: tuple):
        if len(children) < 2:
            raise ValueError("AND needs at least 2 children")
        _set(self, "children", children)


class Or(Frozen):
    __slots__ = ("children",)

    def __init__(self, children: tuple):
        if len(children) < 2:
            raise ValueError("OR needs at least 2 children")
        _set(self, "children", children)


class Not(Frozen):
    __slots__ = ("child",)


BodyExpr = Ref | And | Or | Not


class Rule(Frozen):
    __slots__ = ("head_id", "params", "body")

    def __init__(self, head_id: str, params: tuple[str, ...], body: BodyExpr | None = None):
        if len(params) != len(set(params)):
            raise ValueError(f"{head_id}: duplicate parameter names")
        _set(self, "head_id", head_id)
        _set(self, "params", params)
        _set(self, "body", body)


class Program(Frozen):
    """The rule base: one rule per section identifier."""

    __slots__ = ("rules",)

    def __contains__(self, head_id: str) -> bool:
        return head_id in self.rules

    def get(self, head_id: str) -> Rule | None:
        return self.rules.get(head_id)

    def __len__(self) -> int:
        return len(self.rules)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<neck>:-)
  | (?P<punct>[()\[\],=.])
  | (?P<name>[^\s()\[\],=.%:]+)
""",
    re.VERBOSE,
)

_KEYWORDS = {"AND", "OR", "NOT"}


# kind is "neck", "punct", "name", "keyword" or "end".
_Token = namedtuple("_Token", "kind text pos")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup not in ("ws", "comment"):
            kind = m.lastgroup
            word = m.group()
            if kind == "name" and word in _KEYWORDS:
                kind = "keyword"
            tokens.append(_Token(kind, word, pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, text: str) -> _Token:
        token = self.peek()
        if token.text != text:
            raise RuleSyntaxError(f"expected {text!r}, found {token.text or 'end of input'!r}", token.pos)
        return self.advance()

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    # -- terms --------------------------------------------------------------

    def parse_term(self) -> tuple[str, list[tuple[str, str | None]], int]:
        """A section identifier plus its final argument list.

        Returns (identifier, items, position) where each item is
        (name, bound_name_or_None).
        """
        token = self.peek()
        if token.kind != "name":
            raise RuleSyntaxError(f"expected a section identifier, found {token.text or 'end of input'!r}", token.pos)
        ident = self.advance().text
        groups: list[tuple[list[tuple[str, str | None]], int]] = []
        while self.peek().text == "(":
            groups.append(self._parse_group())
        if not groups:
            raise RuleSyntaxError(f"term {ident!r} is missing its argument list", token.pos)
        *ident_groups, (args, _) = groups
        for items, pos in ident_groups:
            if len(items) != 1 or items[0][1] is not None:
                raise RuleSyntaxError("identifier group must hold a single plain name", pos)
            ident += f"({items[0][0]})"
        return ident, args, token.pos

    def _parse_group(self) -> tuple[list[tuple[str, str | None]], int]:
        open_token = self.expect("(")
        items: list[tuple[str, str | None]] = []
        if self.peek().text != ")":
            while True:
                name = self.peek()
                if name.kind != "name":
                    raise RuleSyntaxError(f"expected a name, found {name.text or 'end of input'!r}", name.pos)
                self.advance()
                bound: str | None = None
                if self.peek().text == "=":
                    self.advance()
                    target = self.peek()
                    if target.kind != "name":
                        raise RuleSyntaxError(f"expected a name after '=', found {target.text!r}", target.pos)
                    bound = self.advance().text
                items.append((name.text, bound))
                if self.peek().text != ",":
                    break
                self.advance()
        self.expect(")")
        return items, open_token.pos

    # -- body expressions (NOT > AND > OR) -----------------------------------

    def parse_body(self) -> BodyExpr:
        children = [self._parse_and()]
        while self.peek().text == "OR":
            self.advance()
            children.append(self._parse_and())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def _parse_and(self) -> BodyExpr:
        children = [self._parse_not()]
        while self.peek().text == "AND":
            self.advance()
            children.append(self._parse_not())
        return children[0] if len(children) == 1 else And(tuple(children))

    def _parse_not(self) -> BodyExpr:
        if self.peek().text == "NOT":
            self.advance()
            return Not(self._parse_not())
        if self.peek().text == "[":
            self.advance()
            body = self.parse_body()
            self.expect("]")
            return body
        ident, items, pos = self.parse_term()
        bindings = tuple((name, bound if bound is not None else name) for name, bound in items)
        try:
            return Ref(ident, bindings)
        except ValueError as exc:
            raise RuleSyntaxError(str(exc), pos) from exc

    # -- clauses --------------------------------------------------------------

    def parse_clause(self) -> Rule:
        ident, items, pos = self.parse_term()
        params = []
        for name, bound in items:
            if bound is not None:
                raise RuleSyntaxError(f"head parameter {name!r} cannot carry a binding", pos)
            params.append(name)
        body: BodyExpr | None = None
        if self.peek().kind == "neck":
            self.advance()
            body = self.parse_body()
        self.expect(".")
        try:
            return Rule(ident, tuple(params), body)
        except ValueError as exc:
            raise RuleSyntaxError(str(exc), pos) from exc


def parse_rule(text: str) -> Rule:
    """Parse exactly one clause."""
    parser = _Parser(text)
    rule = parser.parse_clause()
    if not parser.at_end():
        token = parser.peek()
        raise RuleSyntaxError(f"trailing input after clause: {token.text!r}", token.pos)
    return rule


def parse_program(text: str) -> Program:
    """Parse a whole structure-annotation file.

    Syntax errors and duplicate heads are aggregated across clauses into
    one ProgramSyntaxError, each with its 1-based clause number and the
    position it was found at.
    """
    try:
        parser = _Parser(text)
    except RuleSyntaxError as exc:
        raise ProgramSyntaxError([(exc.position, str(exc))]) from None
    rules: dict[str, Rule] = {}
    problems: list[tuple[int, str]] = []
    clause_no = 0
    while not parser.at_end():
        clause_no += 1
        start = parser.peek().pos
        try:
            rule = parser.parse_clause()
        except RuleSyntaxError as exc:
            problems.append((exc.position, f"clause {clause_no}: {exc}"))
            # Skip to just past the next "." so later clauses still parse.
            while not parser.at_end() and parser.advance().text != ".":
                pass
            continue
        if rule.head_id in rules:
            problems.append((start, f"clause {clause_no}: duplicate rule for {rule.head_id}"))
        else:
            rules[rule.head_id] = rule
    if problems:
        raise ProgramSyntaxError(problems)
    return Program(rules)


# ---------------------------------------------------------------------------
# Pretty-printer


def print_body(expr: BodyExpr, parent: str = "OR") -> str:
    if isinstance(expr, Ref):
        parts = [p if p == v else f"{p}={v}" for p, v in expr.bindings]
        return f"{expr.callee_id}({', '.join(parts)})"
    if isinstance(expr, Not):
        inner = print_body(expr.child, "NOT")
        return f"NOT {inner}"
    op = "AND" if isinstance(expr, And) else "OR"
    text = f" {op} ".join(print_body(c, op) for c in expr.children)
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


def _iter_refs(expr: BodyExpr):
    if isinstance(expr, Ref):
        yield expr
    elif isinstance(expr, Not):
        yield from _iter_refs(expr.child)
    else:
        for child in expr.children:
            yield from _iter_refs(child)


def iter_refs(rule: Rule):
    """All references in a rule's body, in textual order."""
    if rule.body is not None:
        yield from _iter_refs(rule.body)


def check_references(program: Program) -> list[str]:
    """Diagnostics for dangling callees and bindings to undeclared variables."""
    diagnostics = []
    for rule in program.rules.values():
        params = set(rule.params)
        for ref in iter_refs(rule):
            if ref.callee_id not in program:
                diagnostics.append(f"{rule.head_id}: reference to undefined rule {ref.callee_id}")
            for callee_param, caller_var in ref.bindings:
                if caller_var not in params:
                    diagnostics.append(
                        f"{rule.head_id}: binding {callee_param}={caller_var} uses {caller_var!r}, "
                        f"which is not a parameter of {rule.head_id}"
                    )
    return diagnostics


# ---------------------------------------------------------------------------
# Dependency trees


class SubsectionNode(Frozen):
    """A subsection occurrence in an unrolled dependency tree.

    `bindings` are the (callee param, caller var) pairs of the reference that
    introduced this node; empty for the root. `values` holds input values
    propagated down to this node.
    """

    __slots__ = ("id", "depth", "bindings", "child", "values")

    def __init__(
        self,
        id: str,
        depth: int,
        bindings: tuple[tuple[str, str], ...] = (),
        child: "TreeNode | None" = None,
        values: ValueMap = ValueMap(),
    ):
        _set(self, "id", id)
        _set(self, "depth", depth)
        _set(self, "bindings", bindings)
        _set(self, "child", child)
        _set(self, "values", values)


class OpNode(Frozen):
    __slots__ = ("kind", "depth", "children")

    def __init__(self, kind: str, depth: int, children: tuple):
        _set(self, "kind", kind)  # "AND", "OR" or "NOT"
        _set(self, "depth", depth)
        _set(self, "children", children)


TreeNode = SubsectionNode | OpNode


class DepTree(Frozen):
    __slots__ = ("root", "depth_cap")


def build_dependency_tree(program: Program, root_id: str, depth_cap: int) -> DepTree:
    """Unroll the rule base into a tree below `root_id`.

    A subsection node at depth == depth_cap gets no child even if its rule
    has a body; recursive references simply unroll until the cap. Referenced
    identifiers without a rule become leaves.
    """
    if root_id not in program:
        raise KeyError(f"unknown rule: {root_id}")
    if depth_cap < 1:
        raise ValueError(f"depth cap must be >= 1, got {depth_cap}")

    def subsection(sid: str, depth: int, bindings: tuple[tuple[str, str], ...]) -> SubsectionNode:
        rule = program.get(sid)
        child = None
        if rule is not None and rule.body is not None and depth < depth_cap:
            child = expand(rule.body, depth)
        return SubsectionNode(sid, depth, bindings, child)

    def expand(expr: BodyExpr, depth: int) -> TreeNode:
        if isinstance(expr, Ref):
            return subsection(expr.callee_id, depth + 1, expr.bindings)
        if isinstance(expr, Not):
            return OpNode("NOT", depth, (expand(expr.child, depth),))
        kind = "AND" if isinstance(expr, And) else "OR"
        return OpNode(kind, depth, tuple(expand(c, depth) for c in expr.children))

    return DepTree(subsection(root_id, 1, ()), depth_cap)


def populate_values(tree: DepTree, inputs: ValueMap) -> DepTree:
    """Propagate input values from the root down through reference bindings.

    Values cross a reference by renaming: the callee's parameter takes the
    caller's value for the bound variable. Operator nodes pass the enclosing
    subsection's values through to every branch unchanged.
    """

    def fill(node: TreeNode, incoming: ValueMap) -> TreeNode:
        if isinstance(node, OpNode):
            return OpNode(node.kind, node.depth, tuple(fill(c, incoming) for c in node.children))
        if node.depth == 1:
            own = incoming
        else:
            # Values come from a validated map; Ref guarantees the keys.
            own = ValueMap._of({param: incoming[var] for param, var in node.bindings if var in incoming})
        child = fill(node.child, own) if node.child is not None else None
        return SubsectionNode(node.id, node.depth, node.bindings, child, own)

    root = fill(tree.root, inputs)
    assert isinstance(root, SubsectionNode)
    return DepTree(root, tree.depth_cap)

