import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from statreason.rules import (
    Op,
    Ref,
    Rule,
    RuleSyntaxError,
    build_dependency_tree,
    parse_program,
    print_rule,
    unroll,
    OpNode,
    SubsectionNode,
)
from statreason.engine import EngineConfig, RunContext, instantiate_full
from statreason.model import MAX_NESTING, TRUTH_KEY, Case, ValueMap

import oracles
from generators import random_clause, random_nested_program, random_program
from oracles import parse_rule, tree_depth

CLAUSE_1DIV = "§1(d)(iv)(Tax, Taxinc)."
CLAUSE_3306 = (
    "§3306(a)(1)(B)(Caly, S16, Workday, Employment, Preccaly, Employee, S13A, Employer, Service)"
    " :- §3306(c)(Employee, Employer, Service)."
)
CLAUSE_63C5 = (
    "§63(c)(5)(Bassd, Grossinc, S45, Taxp, Taxy, S44B, S46B, S47, S48) :- "
    "[§151(b)(Spouse=Taxp, Taxp=S45, Taxy) OR §151(c)(S24A=Taxp, Taxp=S45, Taxy)] AND "
    "§63(c)(5)(A)() AND §63(c)(5)(B)(Grossinc, Taxp)."
)


class EveryId:
    """A container that holds every id: the subsections of a structure text
    whose rules are checked for their references alone."""

    def __contains__(self, _) -> bool:
        return True


EVERY_ID = EveryId()


def parse(text: str):
    """The rules of a structure text's sound clauses, every head a subsection."""
    return parse_program(text, EVERY_ID)[0]


class TestParseRule:
    def test_bodiless_clause(self):
        rule = parse_rule(CLAUSE_1DIV)
        assert rule.head_id == "§1(d)(iv)"
        assert rule.params == ("Tax", "Taxinc")
        assert rule.body is None

    def test_single_reference_with_bare_bindings(self):
        rule = parse_rule(CLAUSE_3306)
        assert rule.body == Ref(
            "§3306(c)", (("Employee", "Employee"), ("Employer", "Employer"), ("Service", "Service"))
        )

    def test_bracketed_or_inside_and(self):
        rule = parse_rule(CLAUSE_63C5)
        assert rule.body == Op(
            "AND",
            (
                Op(
                    "OR",
                    (
                        Ref("§151(b)", (("Spouse", "Taxp"), ("Taxp", "S45"), ("Taxy", "Taxy"))),
                        Ref("§151(c)", (("S24A", "Taxp"), ("Taxp", "S45"), ("Taxy", "Taxy"))),
                    )
                ),
                Ref("§63(c)(5)(A)", ()),
                Ref("§63(c)(5)(B)", (("Grossinc", "Grossinc"), ("Taxp", "Taxp"))),
            )
        )

    def test_bare_identifier_head(self):
        rule = parse_rule("Tax(Tax, Taxp, Taxy).")
        assert rule.head_id == "Tax"

    def test_not_and_precedence(self):
        rule = parse_rule("§9(X) :- NOT §1(X) AND §2(X) OR §3(X).")
        x = (("X", "X"),)
        assert rule.body == Op("OR", (Op("AND", (Op("NOT", (Ref("§1", x),)), Ref("§2", x))), Ref("§3", x)))

    def test_errors_carry_position(self):
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rule("§1(a)(X")
        assert "offset" in str(exc.value)

    def test_duplicate_params_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("§1(a)(X, X).")

    def test_missing_terminator(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("§1(a)(X)")

    @pytest.mark.parametrize(
        "clause", ["§1(a)(X) :- §2(Y=X, Y=X).", "§1(a)(X) :- §2(Y, Y=X).", "§1(a)(X) :- §2(@truth=X)."]
    )
    def test_reference_binding_a_parameter_twice_or_truth_rejected(self, clause):
        with pytest.raises(RuleSyntaxError):
            parse_rule(clause)

    def test_binding_in_head_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("§1(a)(X=Y).")

    def test_empty_head_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("(X).")

    def test_a_head_starting_with_a_byte_order_mark_is_refused(self):
        # A structure file cannot start with U+FEFF, which the first head would.
        with pytest.raises(ValueError, match=r"^rule head '\\ufeff§1' starts with a byte order mark \(U\+FEFF\)$"):
            Rule("\ufeff§1", ("X",))
        with pytest.raises(RuleSyntaxError):
            parse_rule("\ufeff§1(X).")
        assert Rule("§1\ufeff", ()).head_id == "§1\ufeff"


class TestOp:
    REF = Ref("§1", ())

    @pytest.mark.parametrize("kind", ["AND", "OR"])
    def test_and_and_or_take_at_least_two_children(self, kind):
        for n in (0, 1):
            with pytest.raises(ValueError, match=f"^{kind} needs at least 2 children$"):
                Op(kind, (self.REF,) * n)
        for n in (2, 3):
            assert Op(kind, (self.REF,) * n).children == (self.REF,) * n

    def test_not_takes_exactly_one_child(self):
        for n in (0, 2):
            with pytest.raises(ValueError, match="^NOT needs exactly 1 child$"):
                Op("NOT", (self.REF,) * n)
        assert Op("NOT", (self.REF,)).children == (self.REF,)

    @pytest.mark.parametrize("kind", ["XOR", "and", "", "subsection"])
    def test_an_unknown_kind_is_refused(self, kind):
        with pytest.raises(ValueError, match=f"^unknown operator {kind!r}$"):
            Op(kind, (self.REF, self.REF))


class TestParseProgram:
    def test_empty(self):
        assert parse_program("", set()) == ({}, [])

    def test_three_appendix_clauses(self):
        text = "\n".join([CLAUSE_1DIV, CLAUSE_3306, CLAUSE_63C5, CALLEE_3306]) + STUB_LEAVES
        program, problems = parse_program(text, EVERY_ID)
        assert len(program) == 8 and problems == []

    def test_duplicate_heads_named(self):
        program, problems = parse_program("§1(a)(X).\n§1(a)(Y).", {"§1(a)"})
        assert program == {"§1(a)": Rule("§1(a)", ("X",))}
        assert problems == [(2, "clause 2: duplicate rule for §1(a)")]

    def test_comments_ignored(self):
        program = parse("% a comment\n§1(a)(X). % trailing\n")
        assert "§1(a)" in program

    def test_errors_aggregated_with_clause_numbers(self):
        program, problems = parse_program("§1(a)(X).\n§2(b)(.\n§3(c)(Y).\n§3(c)(Z).", EVERY_ID)
        assert list(program) == ["§1(a)", "§3(c)"]
        assert problems == [
            (2, "clause 2: expected a name, found '.' (at offset 16)"),
            (4, "clause 4: duplicate rule for §3(c)"),
        ]

    def test_text_that_does_not_tokenize_is_one_problem(self):
        problem = (2, "unexpected character ':' (at offset 14)")
        assert parse_program("§1(a)(X).\n§2(a:b).", EVERY_ID) == ({}, [problem])


class TestCheckReferences:
    """A clause that parses is a problem at its line when its head names no
    subsection, a reference calls no rule of the file or a binding passes a
    variable its head does not declare; only the rules of the other clauses
    are returned."""

    def test_undefined_callee(self):
        assert parse_program(CLAUSE_3306, EVERY_ID) == (
            {}, [(1, "clause 1: §3306(a)(1)(B): reference to undefined rule §3306(c)")]
        )

    def test_clean_program(self):
        program, problems = parse_program(CLAUSE_3306 + "\n" + CALLEE_3306, {"§3306(a)(1)(B)", "§3306(c)"})
        assert list(program) == ["§3306(a)(1)(B)", "§3306(c)"] and problems == []

    def test_binding_to_unknown_variable(self):
        program, problems = parse_program("§1(a)(X) :- §2(b)(Spouse=Zzz).\n§2(b)(Spouse).", EVERY_ID)
        assert program == {"§2(b)": Rule("§2(b)", ("Spouse",))}
        assert problems == [(1, "clause 1: §1(a): binding Spouse=Zzz uses 'Zzz', which is not a parameter of §1(a)")]

    def test_a_head_that_names_no_subsection(self):
        program, problems = parse_program("§1(a)(X) :- §2(b)(X).\n§2(b)(X).", {"§2(b)"})
        assert program == {"§2(b)": Rule("§2(b)", ("X",))}
        assert problems == [(1, "clause 1: rule §1(a) has no subsection text")]

    def test_a_clause_reports_its_first_problem_only(self):
        text = "§1(a)(X) :- §2(b)(Y=Zzz) AND §9(X).\n§2(b)(Y)."
        assert parse_program(text, {"§2(b)"})[1] == [(1, "clause 1: rule §1(a) has no subsection text")]
        assert parse_program(text, EVERY_ID)[1] == [
            (1, "clause 1: §1(a): binding Y=Zzz uses 'Zzz', which is not a parameter of §1(a)")
        ]

    def test_a_call_to_a_rule_with_a_problem_is_no_problem(self):
        # The callee is defined in the file; only its own clause is reported.
        program, problems = parse_program("§1(a)(X) :- §2(b)(X).\n§2(b)(X) :- §3(X).", EVERY_ID)
        assert list(program) == ["§1(a)"]
        assert problems == [(2, "clause 2: §2(b): reference to undefined rule §3")]

    def test_no_call_is_undefined_while_a_clause_does_not_parse(self):
        # The clause that does not parse may be the callee's.
        program, problems = parse_program("§1(a)(X) :- §2(b)(X) AND §9(X).\n§2(b)(.", EVERY_ID)
        assert list(program) == ["§1(a)"]
        assert problems == [(2, "clause 2: expected a name, found '.' (at offset 38)")]

    def test_problems_come_in_file_order(self):
        # A clause's binding problem and the next clause's syntax error,
        # and a duplicate head, each at its own line.
        text = "§1(a)(X) :- §4(Y).\n§2(b)(.\n§1(a)(Y).\n§4(Y)."
        assert parse_program(text, EVERY_ID) == (
            {"§4": Rule("§4", ("Y",))},
            [
                (1, "clause 1: §1(a): binding Y=Y uses 'Y', which is not a parameter of §1(a)"),
                (2, "clause 2: expected a name, found '.' (at offset 25)"),
                (3, "clause 3: duplicate rule for §1(a)"),
            ],
        )


CALLEE_3306 = "§3306(c)(Employee, Employer, Service)."
STUB_LEAVES = (
    "\n§151(b)(Spouse, Taxp, Taxy).\n§151(c)(S24A, Taxp, Taxy).\n"
    "§63(c)(5)(A)().\n§63(c)(5)(B)(Grossinc, Taxp).\n"
)


class TestDependencyTree:
    def test_bodiless_rule_single_leaf(self):
        program = parse(CLAUSE_1DIV)
        tree = build_dependency_tree(program, "§1(d)(iv)", 5)
        assert tree.root.child is None
        assert tree_depth(tree) == 1

    def test_cap_one_prunes_body(self):
        program = parse(CLAUSE_63C5 + STUB_LEAVES)
        tree = build_dependency_tree(program, "§63(c)(5)", 1)
        assert tree.root.child is None

    def test_cap_two_expands_one_level(self):
        program = parse(CLAUSE_63C5 + STUB_LEAVES)
        tree = build_dependency_tree(program, "§63(c)(5)", 2)
        root = tree.root
        assert isinstance(root.child, OpNode) and root.child.kind == "AND"
        or_node, leaf_a, leaf_b = root.child.children
        assert isinstance(or_node, OpNode) and or_node.kind == "OR"
        leaves = [*or_node.children, leaf_a, leaf_b]
        assert all(isinstance(l, SubsectionNode) and l.child is None for l in leaves)
        assert [l.id for l in leaves] == ["§151(b)", "§151(c)", "§63(c)(5)(A)", "§63(c)(5)(B)"]
        assert all(l.depth == 2 for l in leaves)

    def test_unknown_root_rejected(self):
        with pytest.raises(KeyError):
            build_dependency_tree(parse(CLAUSE_1DIV), "§nowhere", 3)

    def test_cycles_unroll_to_cap(self):
        program = parse("§1(a)(X) :- §2(b)(X).\n§2(b)(X) :- §1(a)(X).")
        tree = build_dependency_tree(program, "§1(a)", 4)
        assert tree_depth(tree) == 4

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_the_fold_is_the_recursive_tree(self, seed, depth_cap):
        rng = random.Random(seed)
        program = random_nested_program(rng, rng.randrange(2, 7))
        for head in program:
            assert build_dependency_tree(program, head, depth_cap) == oracles.build_dependency_tree(
                program, head, depth_cap
            )

    def test_the_fold_is_the_recursive_tree_on_the_fixture(self):
        program = parse(FIXTURE_STRUCTURE)
        for head in program:
            for depth_cap in (1, 2, 3, 4):
                assert build_dependency_tree(program, head, depth_cap) == oracles.build_dependency_tree(
                    program, head, depth_cap
                )

    def test_a_recursive_rule_unrolls_at_any_cap(self):
        # One open and one subsection per level above the cap, and the leaf
        # at the cap: far deeper than the interpreter's recursion limit.
        program = parse("C(x) :- C(x).")
        nodes = list(unroll(program, "C", 5000))
        assert len(nodes) == 9999
        opens, leaf, closes = nodes[:4999], nodes[4999], nodes[5000:]
        assert [n[:3] for n in opens] == [("open", "C", d) for d in range(1, 5000)]
        assert leaf == ("subsection", "C", 5000, (("x", "x"),), False, 0)
        assert [(n[2], n[4]) for n in closes] == [(d, True) for d in range(4999, 0, -1)]
        assert closes[-1][3] == ()

    def test_cap_below_one_rejected(self):
        program = parse(CLAUSE_1DIV)
        with pytest.raises(ValueError, match="depth cap must be >= 1, got 0"):
            build_dependency_tree(program, "§1(d)(iv)", 0)

    def test_populate_through_bindings(self):
        # Without layers each subsection gets one request, for its truth
        # score, knowing exactly the values passed down to it.
        program = parse(CLAUSE_63C5 + STUB_LEAVES)
        known = {}

        class Recording:
            def resolve(self, request):
                known[request.subsection_id] = dict(request.known)
                return 1.0

        inputs = ValueMap({"Taxp": "Bob", "Taxy": "2017", "Bassd": "x"})
        case = Case("c", "", "§63(c)(5)", inputs, ValueMap({TRUTH_KEY: 1.0}), "test")
        instantiate_full(Recording(), case, RunContext(program, {}, {}, EngineConfig(depth_cap=2)))
        assert known["§151(b)"] == {"Spouse": "Bob", "Taxy": "2017"}
        assert known["§63(c)(5)(A)"] == {}


def test_round_trip_fixture_clauses():
    for text in (CLAUSE_1DIV, CLAUSE_3306, CLAUSE_63C5):
        rule = parse_rule(text)
        printed = print_rule(rule)
        assert parse_rule(printed) == rule
        assert print_rule(parse_rule(printed)) == printed


def test_round_trip_random_clauses():
    rng = random.Random(7)
    for _ in range(300):
        rule = random_clause(rng)
        printed = print_rule(rule)
        assert parse_rule(printed) == rule
        assert print_rule(parse_rule(printed)) == printed


def test_bodiless_programs_build_single_nodes():
    rng = random.Random(11)
    for _ in range(20):
        rules = {}
        for _ in range(rng.randrange(1, 6)):
            rule = random_clause(rng, may_have_body=False)
            rules[rule.head_id] = rule
        program = rules
        for head in rules:
            for cap in (1, 3, 7):
                tree = build_dependency_tree(program, head, cap)
                assert tree.root.child is None


def test_tree_depth_and_size_bounded():
    rng = random.Random(13)
    for _ in range(40):
        program = random_program(rng, rng.randrange(2, 7), max_refs=3)
        root = next(iter(program))
        cap = rng.randrange(1, 5)
        tree = build_dependency_tree(program, root, cap)
        assert tree_depth(tree) <= cap

        def count(node):
            if isinstance(node, OpNode):
                return sum(count(c) for c in node.children)
            return 1 + (count(node.child) if node.child else 0)

        assert count(tree.root) <= 4 ** cap


# What steers the tokenizer and the parser: punctuation, the neck, the
# keywords, comments, blanks and the characters of names.
RULE_EDITS = ["(", ")", "[", "]", ",", "=", ".", ":", ":-", "%", " ", "\n", "AND", "OR", "NOT", "x", "§"]
FIXTURE_STRUCTURE = (Path(__file__).parent / "fixtures" / "corpus" / "structure.txt").read_text(encoding="utf-8")


@st.composite
def program_texts(draw):
    """The printed clauses of a random program, or the fixture's structure
    file, cut, or with tokens inserted or characters deleted, up to three
    times."""
    if draw(st.integers(0, 4)) == 0:
        text = FIXTURE_STRUCTURE
    else:
        rng = random.Random(draw(st.integers(0, 2**32)))
        program = draw(st.sampled_from([random_program, random_nested_program]))(rng, draw(st.integers(1, 6)))
        rules = [print_rule(rule) for rule in program.values()]
        rules += [print_rule(random_clause(rng)) for _ in range(draw(st.integers(0, 2)))]
        text = "\n".join(rules) + draw(st.sampled_from(["", "\n", " % note\n"]))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "cut"]))
        if edit == "insert":
            text = text[:i] + draw(st.sampled_from(RULE_EDITS)) + text[i:]
        else:
            text = text[:i] + text[i + 1 :] if edit == "delete" else text[:i]
    return text


def parse_outcome(parse, *args):
    try:
        return repr(parse(*args))
    except RuleSyntaxError as exc:
        return "error", str(exc), exc.position


def assert_parsers_agree(text: str) -> None:
    """The two parsers read `text` alike with every id a subsection, and
    with only every other head of its sound clauses one."""
    for subsections in (EVERY_ID, set(sorted(parse(text))[::2])):
        ours = parse_outcome(parse_program, text, subsections)
        assert ours == parse_outcome(oracles.parse_program_by_tokens, text, subsections)


class TestAgainstTheTokenParser:
    """The parser over token texts reads every structure text as the parser
    over token objects that it replaces did: the same rules and the same
    problems at the same lines and offsets, or for one clause the same error."""

    @given(program_texts())
    @example("")
    @example("§1(a)(x) :- §2(b)(y=z) AND NOT [§3(c)() OR §4()] .\n§1(a)(x).")
    @example("§1(a)(x) :- §2(y=)\n§3(AND).\n§4(a)(b=c)(x).")
    @example("§1(a)(x).\n§4(a:b).")
    @example("§1(a)(x, y=z).\n§2(a)(b)(c)(x) :- §3\n§5(a)(x) :- [§6(x)")
    @example("§1(a)(x) :- §2(b)(x) AND §3(y=w).\n§2(b)(x) :- §9(x).\n§3(y).\n§1(a)(y).")
    def test_same_program_or_problems(self, text):
        assert_parsers_agree(text)

    @given(program_texts())
    @example("§1(a)(x). §2(b)(y).")
    @example("§1(a)(x) :- §2(x, x).")
    def test_same_rule_or_error(self, text):
        assert parse_outcome(parse_rule, text) == parse_outcome(oracles.parse_rule_by_tokens, text)


@st.composite
def nested_clauses(draw, depths):
    """Clauses whose first body nests a reference `depth` levels deep (a
    depth drawn from `depths`), each level a NOT or brackets around an AND
    or OR of the next level and sibling references; and, past the bound,
    the offset of the opener of level MAX_NESTING + 1."""
    depth = draw(depths)
    text, offset, close = "A(x) :- ", None, []
    sibling = st.lists(st.sampled_from(["B(x)", "C()"]), max_size=1)
    for level in range(1, depth + 1):
        if level == MAX_NESTING + 1:
            offset = len(text)
        if draw(st.booleans()):
            text += "NOT "
        else:
            op = draw(st.sampled_from([" AND ", " OR "]))
            text += "[" + "".join(s + op for s in draw(sibling))
            close.append("".join(op + s for s in draw(sibling)) + "]")
    return text + "B(x)" + "".join(reversed(close)) + ".\nB(x).\nC().", offset


class TestNesting:
    """Brackets and NOTs nest at most MAX_NESTING levels in a body: up to
    the bound a structure text parses as the token parser parses it; past
    it, the clause is a problem at the first level too many, and the
    clauses after it still parse."""

    @given(nested_clauses(st.integers(0, MAX_NESTING)))
    def test_up_to_the_bound_as_the_token_parser(self, drawn):
        text, _ = drawn
        assert_parsers_agree(text)

    @given(nested_clauses(st.integers(MAX_NESTING + 1, MAX_NESTING + 30)))
    def test_past_the_bound_a_problem_at_the_first_level_too_many(self, drawn):
        text, offset = drawn
        message = f"clause 1: brackets and NOTs nest deeper than 100 levels (at offset {offset})"
        rules = {"B": Rule("B", ("x",)), "C": Rule("C", ())}
        assert parse_program(text, {"A", "B", "C"}) == (rules, [(1, message)])

    @pytest.mark.parametrize("opener, closer", [("[", "]"), ("NOT ", "")])
    def test_ten_thousand_levels(self, opener, closer):
        text = "A(x) :- " + opener * 10_000 + "B(x)" + closer * 10_000 + ".\nB(x)."
        offset = len("A(x) :- ") + 100 * len(opener)
        message = f"clause 1: brackets and NOTs nest deeper than 100 levels (at offset {offset})"
        assert parse_program(text, {"A", "B"}) == ({"B": Rule("B", ("x",))}, [(1, message)])
