import random
import time

import pytest

from hyperfa import canon, hfa, hre, learn
from hyperfa.errors import (
    BudgetExceeded,
    InvalidArity,
    QueryBudgetExceeded,
    ResourceLimit,
    TableNotClosed,
    TeacherInconsistent,
    WrongFragment,
)
from hyperfa.hfa import Fragment, Hyperword, Quantifier
from hyperfa.zipwords import ZipWord, all_letters, is_exact_zip, unzip, zip_words

import oracles

A = Quantifier.FORALL
E = Quantifier.EXISTS

A1_TEXT = "forall x1. forall x2. ([a,a]|[b,b])*([#,b]*|[b,#]*)"
A3_TEXT = (
    "forall x1. forall x2. "
    "(([a,a]|[a,b]|[b,b]|[a,#]|[b,#]|[#,b])*"
    "|([a,a]|[b,a]|[b,b]|[#,a]|[#,b]|[b,#])*)"
)


def compile_text(text, sigma="ab"):
    return hre.compile_hre(hre.parse(text), sigma)


def universal_nfh(prefix):
    k = len(prefix)
    letters = all_letters("ab", k)
    return hfa.make_nfh("ab", prefix, 1, [0], [0], [(0, l, 0) for l in letters])


class ScriptedTeacher:
    """Answers membership through a function and equivalence from a list."""

    def __init__(self, sigma, member_fn, counterexamples=()):
        self.sigma = tuple(sorted(sigma))
        self._member_fn = member_fn
        self._script = list(counterexamples)

    def member(self, hw):
        return self._member_fn(hw)

    def equivalent(self, candidate):
        return self._script.pop(0) if self._script else None


# ------------------------------------------------------------------- table

def test_initial_table_and_lift_shape():
    teacher = learn.AutomatedTeacher(compile_text(A3_TEXT))
    table = learn.ObservationTable(teacher, "ab")
    assert table.rows == [ZipWord(1, ())]
    assert table.columns == [ZipWord(1, ())]
    assert len(table.letters) == 3
    before = table.entry(ZipWord(1, ()), ZipWord(1, ()))

    lifted = learn.lift_table(table, 2)
    assert lifted.rows == [ZipWord(2, ())]
    assert lifted.columns == [ZipWord(2, ())]
    assert len(lifted.letters) == 9
    assert lifted.entry(ZipWord(2, ()), ZipWord(2, ())) == before


def test_lift_rejects_non_growth():
    teacher = learn.AutomatedTeacher(compile_text(A3_TEXT))
    table = learn.ObservationTable(teacher, "ab")
    with pytest.raises(InvalidArity):
        learn.lift_table(table, 1)


def test_lifted_entry_matches_walkthrough():
    # row (b,a), column (a,b): the decoded hyperword {ba, ab} is rejected
    teacher = learn.AutomatedTeacher(compile_text(A3_TEXT))
    table = learn.lift_table(learn.ObservationTable(teacher, "ab"), 2)
    d = ZipWord(2, (("b", "a"),))
    e = ZipWord(2, (("a", "b"),))
    assert table.entry(d, e) is False
    assert not teacher.member(Hyperword.of([("b", "a"), ("a", "b")]))


def test_illegal_entries_answered_without_queries():
    calls = []

    def member_fn(hw):
        calls.append(hw)
        return True

    table = learn.ObservationTable(ScriptedTeacher("ab", member_fn), "ab", k=2)
    assert table.entry_letters((("#", "a"), ("a", "a"))) is False
    assert table.entry_letters((("#", "#"),)) is False
    assert calls == []
    assert table.entry_letters((("a", "b"),)) is True
    assert len(calls) == 1


def test_query_budget_enforced():
    teacher = learn.AutomatedTeacher(compile_text("forall x. [a]*"))
    table = learn.ObservationTable(teacher, "ab", budget=[2])
    table.entry_letters((("a",),))
    table.entry_letters((("b",),))
    with pytest.raises(QueryBudgetExceeded):
        table.entry_letters((("a",), ("a",)))


def test_close_and_consist_fixpoint_and_prefix_closure():
    teacher = learn.AutomatedTeacher(compile_text("forall x. [a]*"))
    table = learn.ObservationTable(teacher, "ab")
    learn.close_and_consist(table)
    rows = [d.letters for d in table.rows]
    for r in rows:
        for i in range(len(r)):
            assert r[:i] in rows
    snapshot = ([d for d in table.rows], [e for e in table.columns])
    learn.close_and_consist(table)
    assert (table.rows, table.columns) == snapshot


LEARN_TARGETS = [
    ("forall x. [a]*", Fragment.FORALL_ONLY),
    (A1_TEXT, Fragment.FORALL_ONLY),
    (A3_TEXT, Fragment.FORALL_ONLY),
    ("forall x. [a][b]*", Fragment.FORALL_ONLY),
    ("forall x. ([a][a])*", Fragment.FORALL_ONLY),
    ("forall x1. forall x2. ([a,a]|[b,b])*", Fragment.FORALL_ONLY),
    ("forall x. ([a]|[b])([a]|[b])*", Fragment.FORALL_ONLY),
    ("forall x. eps", Fragment.FORALL_ONLY),
    ("forall x. [b][b]*", Fragment.FORALL_ONLY),
    ("forall x1. forall x2. ([a,a]|[b,b]|[a,b]|[b,a])*", Fragment.FORALL_ONLY),
    ("forall x. [b]*", Fragment.FORALL_ONLY),
    ("forall x. [a][a]*", Fragment.FORALL_ONLY),
    ("exists x. ([a]|[b])*", Fragment.EXISTS_ONLY),
    ("exists x. [a][a]*", Fragment.EXISTS_ONLY),
    ("exists x. [a][b]", Fragment.EXISTS_ONLY),
    ("exists x1. exists x2. ([a,b])*", Fragment.EXISTS_ONLY),
    ("exists x. [b]*", Fragment.EXISTS_ONLY),
    ("exists x. eps", Fragment.EXISTS_ONLY),
    ("exists x1. exists x2. ([a,a])*([a,#])+", Fragment.EXISTS_ONLY),
    ("exists x. [a]([a]|[b])*", Fragment.EXISTS_ONLY),
]


def _consistency_split(table):
    """The classic L* consistency search: a letter-column separating two
    rows with equal vectors, or None."""
    for i, d1 in enumerate(table.rows):
        r1 = table.row_of(d1.letters)
        for d2 in table.rows[i + 1:]:
            if r1 != table.row_of(d2.letters):
                continue
            for letter in table.letters:
                for e in table.columns:
                    if table.entry_letters(d1.letters + (letter,) + e.letters) != (
                        table.entry_letters(d2.letters + (letter,) + e.letters)
                    ):
                        return (letter,) + e.letters
    return None


def test_closed_tables_are_consistent_by_construction(monkeypatch):
    closes = []
    learn_close = learn.close_and_consist

    def close_then_check(table):
        learn_close(table)
        closes.append(len(table.rows))
        assert _consistency_split(table) is None
        assert len({table.row_of(d.letters) for d in table.rows}) == len(table.rows)
        return table

    monkeypatch.setattr(learn, "close_and_consist", close_then_check)
    for text, fragment in LEARN_TARGETS:
        target = compile_text(text)
        got = learn.learn(learn.AutomatedTeacher(target), fragment)
        close = (canon.sequence_closure if fragment is Fragment.FORALL_ONLY
                 else canon.permutation_closure)
        assert canon.canonical_equal(got, close(target)), text
    assert len(closes) > len(LEARN_TARGETS)


def test_build_candidate_constant_tables():
    yes = learn.ObservationTable(ScriptedTeacher("ab", lambda hw: True), "ab")
    learn.close_and_consist(yes)
    top = learn.build_candidate(yes, Fragment.EXISTS_ONLY)
    no = learn.ObservationTable(ScriptedTeacher("ab", lambda hw: False), "ab")
    learn.close_and_consist(no)
    bottom = learn.build_candidate(no, Fragment.FORALL_ONLY)
    for words in [("",), ("a",), ("a", "ba")]:
        s = Hyperword.of([tuple(w) for w in words])
        assert hfa.member(top, s)
        assert not hfa.member(bottom, s)


def test_first_candidate_on_a3_accepts_all_singletons():
    teacher = learn.AutomatedTeacher(compile_text(A3_TEXT))
    table = learn.ObservationTable(teacher, "ab")
    learn.close_and_consist(table)
    candidate = learn.build_candidate(table, Fragment.FORALL_ONLY)
    accepting = candidate.underlying.accepting
    assert len(accepting) == 1
    for w in oracles.all_words("ab", 3):
        assert hfa.member(candidate, Hyperword.of([w]))


def test_build_candidate_requires_closed_table():
    teacher = learn.AutomatedTeacher(compile_text("forall x. [a]*"))
    table = learn.ObservationTable(teacher, "ab")
    # ε row is accepting, the b-boundary row is not, and nothing matches it
    with pytest.raises(TableNotClosed):
        learn.build_candidate(table, Fragment.FORALL_ONLY)


# ----------------------------------------------------------------- teacher

def test_teacher_equivalent_to_itself():
    for text in ["forall x. [a]*", "exists x1. exists x2. ([a,b])*"]:
        target = compile_text(text)
        teacher = learn.AutomatedTeacher(target)
        assert teacher.equivalent(target) is None


def test_teacher_rejects_a_candidate_of_another_fragment():
    teacher = learn.AutomatedTeacher(compile_text("exists x. [a]([a]|[b])*"))
    with pytest.raises(WrongFragment):
        teacher.equivalent(universal_nfh((A,)))
    with pytest.raises(WrongFragment):
        learn.learn(teacher, Fragment.FORALL_ONLY)


def test_teacher_counterexample_b_at_size_one():
    teacher = learn.AutomatedTeacher(compile_text("forall x. [a]*"))
    got = teacher.equivalent(universal_nfh((A,)))
    assert got == (Hyperword.of([("b",)]), False)


def test_teacher_minimal_counterexample_size_two():
    teacher = learn.AutomatedTeacher(compile_text(A3_TEXT))
    got = teacher.equivalent(universal_nfh((A,)))
    assert got is not None
    hw, positive = got
    assert len(hw) == 2 and positive is False
    assert not teacher.member(hw)


def test_teacher_counterexamples_recheck_and_are_bounded():
    rng = random.Random(29)
    for q, top in [(A, 2)] * 12 + [(E, 2), (A, 3), (E, 3)] * 8:
        target = oracles.random_nfh(rng, prefix_pool=(q,))
        candidate = oracles.random_nfh(
            rng, fixed_prefix=(q,) * rng.randint(1, top)
        )
        teacher = learn.AutomatedTeacher(target)
        got = teacher.equivalent(candidate)
        if got is None:
            for s in [Hyperword.of(ws) for ws in oracles.all_hyperwords("ab", 2, 2)]:
                assert hfa.member(target, s) == hfa.member(candidate, s)
        else:
            hw, positive = got
            assert len(hw) <= max(target.k, candidate.k)
            assert hfa.member(target, hw) == positive
            assert hfa.member(candidate, hw) != positive


# an E target accepting every nonempty hyperword against an equivalent EEE
# candidate of 2 states and 29 transitions; oracles.random_nfh with seed 44
BLOWUP_TARGET = """nfh k=1 sigma=a,b prefix=E
state 0 init accept
trans 0 (a) 0
trans 0 (b) 0
"""
BLOWUP_CANDIDATE = """nfh k=3 sigma=a,b prefix=EEE
state 0 init accept
state 1 init
trans 0 (#,#,a) 1
trans 0 (#,a,#) 1
trans 0 (#,a,b) 1
trans 0 (#,b,b) 1
trans 0 (a,#,a) 0
trans 0 (a,#,b) 1
trans 0 (a,a,a) 0
trans 0 (a,b,a) 1
trans 0 (b,a,#) 1
trans 0 (b,a,b) 0
trans 0 (b,b,#) 1
trans 0 (b,b,a) 0
trans 0 (b,b,a) 1
trans 0 (b,b,b) 0
trans 0 (b,b,b) 1
trans 1 (#,#,b) 0
trans 1 (#,b,a) 0
trans 1 (#,b,b) 0
trans 1 (#,b,b) 1
trans 1 (a,#,#) 0
trans 1 (a,#,b) 0
trans 1 (a,a,a) 1
trans 1 (a,a,b) 1
trans 1 (a,b,b) 0
trans 1 (a,b,b) 1
trans 1 (b,a,b) 1
trans 1 (b,b,a) 1
trans 1 (b,b,b) 0
trans 1 (b,b,b) 1
"""


def test_teacher_answers_a_small_equivalent_pair_quickly():
    # a subset construction over all 27 variable-to-track maps ran out of memory here
    target, candidate = hfa.parse_nfh(BLOWUP_TARGET), hfa.parse_nfh(BLOWUP_CANDIDATE)
    teacher = learn.AutomatedTeacher(target)
    start = time.perf_counter()
    assert teacher.equivalent(candidate) is None
    assert time.perf_counter() - start < 1
    for ws in oracles.all_hyperwords("ab", 3, 2):
        assert oracles.brute_member(target, ws) == oracles.brute_member(candidate, ws)


def test_teacher_word_length_bound_reaches_the_caller():
    config = learn.LearnerConfig(max_word_length=1)
    teacher = learn.AutomatedTeacher(compile_text("forall x. [a][a]"), config)
    with pytest.raises(
        ResourceLimit, match="counterexample length 2 exceeds the word-length bound 1"
    ):
        teacher.equivalent(compile_text("forall x. [a][a][a]"))


# ------------------------------------------------------------------- learn

def test_learn_forall_a_star():
    target = compile_text("forall x. [a]*")
    events = []
    got = learn.learn(
        learn.AutomatedTeacher(target), Fragment.FORALL_ONLY, trace=events.append
    )
    assert got.k == 1
    assert got.underlying.n_states == 2
    assert canon.canonical_equal(got, canon.sequence_closure(target))
    assert {e["event"] for e in events} >= {"candidate", "done"}
    assert all(set(e) == {"event", "iteration", "k", "detail"} for e in events)


def test_learn_universal_exists_first_query_succeeds():
    target = universal_nfh((E,))
    events = []
    got = learn.learn(
        learn.AutomatedTeacher(target), Fragment.EXISTS_ONLY, trace=events.append
    )
    assert not [e for e in events if e["event"] in ("counterexample", "lift")]
    assert got.underlying.n_states <= 2
    assert canon.canonical_equal(got, canon.permutation_closure(target))


def test_learn_a3_lifts_exactly_once():
    target = compile_text(A3_TEXT)
    events = []
    got = learn.learn(
        learn.AutomatedTeacher(target), Fragment.FORALL_ONLY, trace=events.append
    )
    lifts = [e for e in events if e["event"] == "lift"]
    assert [e["detail"]["to"] for e in lifts] == [2]
    assert got.k == 2
    assert canon.canonical_equal(got, canon.sequence_closure(target))
    # the triggering counterexample is the smallest one: size 2
    first_cx = next(e for e in events if e["event"] == "counterexample")
    assert len(first_cx["detail"]["words"]) == 2


def test_learn_a1():
    target = compile_text(A1_TEXT)
    got = learn.learn(learn.AutomatedTeacher(target), Fragment.FORALL_ONLY)
    assert got.k == 2
    assert canon.canonical_equal(got, canon.sequence_closure(target))


def test_teacher_answers_five_variable_candidates():
    text = "forall x1. forall x2. forall x3. forall x4. forall x5. ([a,a,a,a,a]|[b,b,b,b,b])*"
    target = compile_text(text)
    teacher = learn.AutomatedTeacher(target, learn.LearnerConfig(max_k=5))
    got = learn.learn(teacher, Fragment.FORALL_ONLY, learn.LearnerConfig(max_k=5))
    for words in oracles.all_hyperwords("ab", 3, 3):
        assert hfa.member(got, Hyperword.of(words)) == hfa.member(target, Hyperword.of(words))
    # a wrong candidate gets a counterexample the target rejects
    assert teacher.equivalent(universal_nfh((A, A))) == (Hyperword.of([(), ("a",)]), False)


def test_learn_wrong_fragment():
    teacher = learn.AutomatedTeacher(compile_text("forall x. [a]*"))
    with pytest.raises(WrongFragment):
        learn.learn(teacher, Fragment.EXISTS_FORALL)


def test_learn_budget_exceeded_on_variable_cap():
    target = compile_text(A1_TEXT)
    teacher = learn.AutomatedTeacher(target)
    with pytest.raises(BudgetExceeded):
        learn.learn(teacher, Fragment.FORALL_ONLY, config=learn.LearnerConfig(max_k=1))


def test_learn_iteration_budget():
    target = compile_text(A3_TEXT)
    teacher = learn.AutomatedTeacher(target)
    with pytest.raises(BudgetExceeded):
        learn.learn(
            teacher,
            Fragment.FORALL_ONLY,
            config=learn.LearnerConfig(max_iterations=1),
        )


def test_learner_budgets_are_resource_limits_naming_their_caps():
    teacher = learn.AutomatedTeacher(compile_text("forall x. [a]*"))
    table = learn.ObservationTable(teacher, "ab", budget=[1])
    table.entry_letters((("a",),))
    # a lifted table shares the count and keeps the cap
    with pytest.raises(ResourceLimit, match="membership queries exceed the cap of 1"):
        learn.lift_table(table, 2).entry_letters((("a", "b"),))
    with pytest.raises(ResourceLimit, match="2 variables exceed the cap of 1"):
        learn.learn(learn.AutomatedTeacher(compile_text(A1_TEXT)), Fragment.FORALL_ONLY,
                    config=learn.LearnerConfig(max_k=1))
    with pytest.raises(ResourceLimit, match="learner iterations exceed the cap of 1"):
        learn.learn(learn.AutomatedTeacher(compile_text(A3_TEXT)), Fragment.FORALL_ONLY,
                    config=learn.LearnerConfig(max_iterations=1))


def test_learn_detects_inconsistent_teacher():
    # claims the candidate accepts {a} although it rejects everything
    teacher = ScriptedTeacher(
        "ab", lambda hw: False, [(Hyperword.of([("a",)]), False)]
    )
    with pytest.raises(TeacherInconsistent):
        learn.learn(teacher, Fragment.FORALL_ONLY)


def test_learner_config_validation():
    with pytest.raises(ValueError):
        learn.LearnerConfig(max_k=0)


# -------------------------------------------------------------- invariants

def test_table_entries_match_fresh_queries():
    # spot re-query: every tenth boundary/column entry against a new teacher
    target = compile_text(A1_TEXT)
    teacher = learn.AutomatedTeacher(target)
    events = []
    learn.learn(teacher, Fragment.FORALL_ONLY, trace=events.append)
    fresh = learn.AutomatedTeacher(target)
    queries = [e["detail"] for e in events if e["event"] == "query"]
    assert queries
    for record in queries[::10]:
        hw = Hyperword.of([tuple(w) for w in record["hyperword"]])
        assert fresh.member(hw) == record["answer"]


def test_learn_output_is_complete_and_k_grows_monotonically():
    rng = random.Random(31)
    for prefix_pool, fragment, closure in [
        ((A,), Fragment.FORALL_ONLY, canon.sequence_closure),
        ((E,), Fragment.EXISTS_ONLY, canon.permutation_closure),
    ]:
        for _ in range(4):
            target = oracles.random_nfh(rng, prefix_pool=prefix_pool, max_states=2)
            events = []
            got = learn.learn(
                learn.AutomatedTeacher(target), fragment, trace=events.append
            )
            assert canon.check_complete(got).complete
            ks = [e["k"] for e in events]
            assert ks == sorted(ks)
            if got.k == target.k:
                assert canon.canonical_equal(got, closure(target))
            else:
                # smaller variable count suffices; semantics must still agree
                for ws in oracles.all_hyperwords("ab", 2, 2):
                    s = Hyperword.of(ws)
                    assert hfa.member(got, s) == hfa.member(target, s)
