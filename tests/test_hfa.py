import itertools
import random
import time
import tracemalloc

import pytest

from hyperfa import hfa, hre
from hyperfa.errors import (
    AlphabetMismatch,
    EmptyRegularLanguage,
    FormatError,
    InvalidGraph,
    InvalidInterleaving,
    ResourceLimit,
    UnknownLetter,
    Unsupported,
    WrongFragment,
)
from hyperfa.fa import Fa
from hyperfa.hfa import Fragment, Hyperword, Quantifier
from hyperfa.zipwords import PAD, all_letters

import oracles

A = Quantifier.FORALL
E = Quantifier.EXISTS

SWEEP = [Hyperword.of(words) for words in oracles.all_hyperwords("ab", 3, 3)]


def compile_text(text, sigma="ab"):
    return hre.compile_hre(hre.parse(text), sigma)


def a1_nfh():
    return compile_text("forall x1. forall x2. ([a,a]|[b,b])*([#,b]*|[b,#]*)")


def a2_nfh():
    # for every word a strictly longer one exists
    return compile_text("forall x1. exists x2. ([_,_])*([#,_])+")


def single_word_nfh(prefix, *words, sigma="ab"):
    zipped = tuple(tuple(l) for l in oracles.oracle_zip([tuple(w) for w in words]))
    k = len(words)
    n = len(zipped) + 1
    trans = [(i, zipped[i], i + 1) for i in range(len(zipped))]
    return hfa.make_nfh(sigma, prefix, n, [0], [n - 1], trans)


def random_instances(count, seed, **kw):
    rng = random.Random(seed)
    return [oracles.random_nfh(rng, **kw) for _ in range(count)]


def hw(*words):
    return Hyperword.of([tuple(w) for w in words])


# ------------------------------------------------------------------ member

def test_member_a1_examples():
    a1 = a1_nfh()
    assert hfa.member(a1, hw("ab", "abb"))
    assert not hfa.member(a1, hw("aab", "abb"))


def test_member_a2_false_on_finite_sets():
    a2 = a2_nfh()
    for s in [hw(""), hw("a"), hw("a", "ab"), hw("", "b", "bb")]:
        assert not hfa.member(a2, s)


def test_member_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        hfa.member(a1_nfh(), hw("ac"))


def test_member_matches_brute_force_small_sample():
    rng = random.Random(5)
    for nfh in random_instances(25, 11):
        for _ in range(8):
            words = {oracles.random_word(rng, "ab", 3) for _ in range(rng.randint(1, 3))}
            assert hfa.member(nfh, Hyperword.of(words)) == oracles.brute_member(nfh, words)


def _count_searches(monkeypatch):
    calls = []
    search = hfa._search_member

    def counted(nfh, words, outer):
        calls.append(nfh.prefix)
        return search(nfh, words, outer)

    monkeypatch.setattr(hfa, "_search_member", counted)
    return calls


def test_member_search_matches_brute_force_on_every_prefix(monkeypatch):
    # |S| <= 7 and k <= 4 rarely pass the cutover, so force the search onto
    # every query and check it for each prefix shape
    calls = _count_searches(monkeypatch)
    monkeypatch.setattr(hfa, "MEMBER_SEARCH_CUTOVER", 0)
    rng = random.Random(61)
    nonempty = oracles.all_words("ab", 4)[1:]
    verdicts = {}
    for k in (1, 2, 3, 4):
        for prefix in itertools.product((A, E), repeat=k):
            for _ in range(3):
                nfh = oracles.random_nfh(
                    rng, fixed_prefix=prefix, density=rng.choice((0.1, 0.3))
                )
                # the dual acceptor turns the rare false verdicts of purely
                # existential acceptors into true verdicts of universal ones
                for acc in (nfh, hfa.complement(nfh)):
                    for _ in range(3):
                        words = [()] + rng.sample(nonempty, rng.randint(3, 6))
                        got = hfa.member(acc, Hyperword.of(words))
                        assert got == oracles.brute_member(acc, words), (acc.prefix, words)
                        kinds = set(acc.prefix)
                        shape = "A" if kinds == {A} else "E" if kinds == {E} else "AE"
                        verdicts.setdefault(shape, set()).add(got)
    assert len(calls) == (2 + 4 + 8 + 16) * 3 * 2 * 3
    assert verdicts == {"A": {False, True}, "E": {False, True}, "AE": {False, True}}


def test_member_search_runs_past_the_cutover(monkeypatch):
    calls = _count_searches(monkeypatch)
    nfh = oracles.random_nfh(random.Random(71), fixed_prefix=(A, E, E))
    words = [(), ("a",), ("b",)] + list(itertools.product("ab", repeat=4))[:13]
    assert len(words) ** 2 == hfa.MEMBER_SEARCH_CUTOVER
    for hw_words in (words, words + [("b", "b", "b")]):
        assert hfa.member(nfh, Hyperword.of(hw_words)) == oracles.brute_member(nfh, hw_words)
    assert calls == [(A, E, E)]


def test_memoized_member_matches_brute_force_in_any_order():
    family = random_instances(10, 97, max_k=3, max_states=4)
    # no initial state; state 1 is reachable and has no out-edges
    family.append(hfa.make_nfh("ab", (A, E), 2, [], [0, 1], [(0, ("a", "b"), 1)]))
    dead_end = hfa.make_nfh("ab", (E,), 2, [0], [1], [(0, ("a",), 1), (0, ("b",), 0)])
    family.append(dead_end)
    assert {len(set(map(len, s.words))) for s in SWEEP} == {1, 2, 3}  # mixed widths
    rng = random.Random(7)
    for nfh in family:
        want = [oracles.brute_member(nfh, s.words) for s in SWEEP]
        for _ in range(2):  # the second pass reads the tables the first one built
            order = list(range(len(SWEEP)))
            rng.shuffle(order)
            for i in order:
                assert hfa.member(nfh, SWEEP[i]) == want[i], (nfh.prefix, SWEEP[i])
    assert dead_end.underlying._tables[frozenset({1})] == {}
    assert family[-2].underlying._tables == {frozenset(): {}}


def test_only_enumerated_member_fills_the_subset_memo():
    rng = random.Random(13)
    nfh = oracles.random_nfh(rng, max_k=2, max_states=4, prefix_pool=(A,))
    fa = nfh.underlying
    lang = oracles.trie_fa([("a",), ("a", "b")], "ab")
    fa.determinize(), fa.minimize(), fa.complement(), fa.contains(fa)
    hfa.contains(nfh, nfh)
    hfa.regular_member(lang, nfh)
    wide = oracles.random_nfh(rng, fixed_prefix=(A, E, E))
    words = [(), ("a",), ("b",)] + list(itertools.product("ab", repeat=4))
    hfa.member(wide, Hyperword.of(words))  # 19^2 assignments: past the cutover
    for automaton in (fa, lang, wide.underlying):
        assert "_tables" not in automaton.__dict__
    sweep = SWEEP[::5]
    first = [hfa.member(nfh, s) for s in sweep]
    tables = dict(fa._tables)
    assert tables and [hfa.member(nfh, s) for s in sweep] == first
    assert fa._tables == tables


# ------------------------------------------------------------- Boolean ops

def test_complement_of_universal_rejects_everything():
    letters = all_letters("ab", 1)
    universal = hfa.make_nfh(
        "ab", [E], 1, [0], [0], [(0, l, 0) for l in letters]
    )
    comp = hfa.complement(universal)
    for s in SWEEP[:80]:
        assert not hfa.member(comp, s)


def test_complement_is_exact_and_involutive():
    for nfh in random_instances(10, 23):
        comp = hfa.complement(nfh)
        twice = hfa.complement(comp)
        for s in SWEEP[::7]:
            got = hfa.member(nfh, s)
            assert hfa.member(comp, s) != got
            assert hfa.member(twice, s) == got


def test_union_forall_a_star_with_forall_b_star():
    ua = compile_text("forall x. [a]*")
    ub = compile_text("forall x. [b]*")
    u = hfa.union(ua, ub)
    assert u.k == 2 and u.prefix == (A, A)
    assert hfa.member(u, hw("a"))
    assert hfa.member(u, hw("b"))
    assert not hfa.member(u, hw("a", "b"))


def test_union_with_empty_language_nfh():
    empty = hfa.make_nfh("ab", [E], 1, [0], [], [])
    for nfh in random_instances(4, 37, max_k=1):
        u = hfa.union(nfh, empty)
        for s in SWEEP[::13]:
            assert hfa.member(u, s) == hfa.member(nfh, s)


def test_union_intersect_match_or_and():
    insts = random_instances(8, 41)
    for a1, a2 in zip(insts[::2], insts[1::2]):
        u = hfa.union(a1, a2)
        i = hfa.intersect(a1, a2)
        assert u.prefix == a1.prefix + a2.prefix
        assert i.prefix == a1.prefix + a2.prefix
        for s in SWEEP[::11]:
            left, right = hfa.member(a1, s), hfa.member(a2, s)
            assert hfa.member(u, s) == (left or right)
            assert hfa.member(i, s) == (left and right)


def test_intersect_with_universal_preserves_member():
    letters = all_letters("ab", 1)
    universal = hfa.make_nfh("ab", [E], 1, [0], [0], [(0, l, 0) for l in letters])
    for nfh in random_instances(4, 43, max_k=1):
        i = hfa.intersect(nfh, universal)
        for s in SWEEP[::13]:
            assert hfa.member(i, s) == hfa.member(nfh, s)


def test_intersect_interleaving_yields_exists_forall():
    a1 = compile_text("forall x. [a]*")
    a2 = compile_text("exists x. [a]*")
    got = hfa.intersect(a2, a1, interleaving=(0, 1))
    assert got.fragment is Fragment.EXISTS_FORALL
    assert got.prefix == (E, A)
    with pytest.raises(InvalidInterleaving):
        hfa.intersect(a1, a2, interleaving=(0, 0))


def random_product_operands(seed, count):
    """Pairs of random acceptors with k1 + k2 <= 4, alternating prefixes
    included."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        k1 = rng.randint(1, 3)
        k2 = rng.randint(1, 4 - k1)
        a1, a2 = (oracles.random_nfh(rng, fixed_prefix=[rng.choice((A, E)) for _ in range(k)],
                                     density=0.5) for k in (k1, k2))
        pairs.append((a1, a2))
    return pairs


def test_intersect_matches_brute_force_for_every_interleaving():
    sample = SWEEP[::23]
    for a1, a2 in random_product_operands(61, 16):
        want = [oracles.brute_member(a1, s) and oracles.brute_member(a2, s) for s in sample]
        patterns = set(itertools.permutations((0,) * a1.k + (1,) * a2.k))
        for pattern in sorted(patterns):
            got = hfa.intersect(a1, a2, interleaving=pattern)
            assert [hfa.member(got, s) for s in sample] == want, pattern


def test_intersect_keeps_only_reachable_states():
    for a1, a2 in random_product_operands(67, 20):
        u = hfa.intersect(a1, a2).underlying
        reached = set(u.initial)
        frontier = list(reached)
        while frontier:
            q = frontier.pop()
            for p, _l, r in u.transitions:
                if p == q and r not in reached:
                    reached.add(r)
                    frontier.append(r)
        assert reached == set(range(u.n_states))


def test_monotonicity_properties():
    exists_insts = random_instances(6, 53, prefix_pool=(E,))
    forall_insts = random_instances(6, 59, prefix_pool=(A,))
    small = [s for s in SWEEP if len(s.words) <= 2]
    for nfh in exists_insts:
        for s in small[::5]:
            if hfa.member(nfh, s):
                bigger = Hyperword.of(s.words + (("b", "b", "a"),))
                assert hfa.member(nfh, bigger)
    for nfh in forall_insts:
        for s in small[::5]:
            bigger = Hyperword.of(s.words + (("b", "b", "a"),))
            if hfa.member(nfh, bigger):
                assert hfa.member(nfh, s)


def test_products_ignore_component_all_pad_moves():
    # a raw all-pad transition lets the underlying accept a-then-pad, which no
    # exact zip ever exercises; products must not revive it as extra room to
    # keep reading after the component's own tuple has ended
    leaky = hfa.make_nfh("ab", [E], 3, [0], [2], [(0, ("a",), 1), (1, (PAD,), 2)])
    for s in SWEEP[::9]:
        assert not hfa.member(leaky, s)
    other = compile_text("exists x. [b]*")
    u = hfa.union(leaky, other)
    i = hfa.intersect(leaky, other)
    assert not hfa.member(u, hw("a", "aa"))
    for s in SWEEP[::9]:
        assert hfa.member(u, s) == hfa.member(other, s)
        assert not hfa.member(i, s)


# ------------------------------------------------------------ nonemptiness

def test_nonempty_exists_single_pair():
    nfh = single_word_nfh((E, E), "a", "b")
    assert hfa.nonempty_exists(nfh) == hw("a", "b")


def test_nonempty_exists_illegal_word_only():
    trans = [(0, ("a", PAD), 1), (1, (PAD, "b"), 2)]
    nfh = hfa.make_nfh("ab", [E, E], 3, [0], [2], trans)
    assert hfa.nonempty_exists(nfh) is None


def test_nonempty_exists_empty_underlying():
    nfh = hfa.make_nfh("ab", [E, E], 1, [0], [], [])
    assert hfa.nonempty_exists(nfh) is None
    with pytest.raises(WrongFragment):
        hfa.nonempty_forall(nfh)


def test_nonempty_forall_no_diagonal():
    nfh = single_word_nfh((A, A), "a", "b")
    assert hfa.nonempty_forall(nfh) is None


def test_nonempty_forall_diagonal_loop():
    aa = ("a", "a")
    star = hfa.make_nfh("ab", [A, A], 1, [0], [0], [(0, aa, 0)])
    assert hfa.nonempty_forall(star) == hw("")
    plus = hfa.make_nfh("ab", [A, A], 2, [0], [1], [(0, aa, 1), (1, aa, 1)])
    assert hfa.nonempty_forall(plus) == hw("a")


def test_nonempty_exists_forall_examples():
    trans = [(0, ("a", "a"), 1), (0, ("a", "b"), 1)]
    both = hfa.make_nfh("ab", [E, A], 2, [0], [1], trans)
    assert hfa.nonempty_exists_forall(both) == hw("a")
    only_ab = single_word_nfh((E, A), "a", "b")
    assert hfa.nonempty_exists_forall(only_ab) is None


def test_nonempty_exists_forall_degenerate_pure_exists():
    nfh = single_word_nfh((E, E), "a", "b")
    assert hfa.nonempty_exists_forall(nfh) == hfa.nonempty_exists(nfh)


def test_nonempty_witnesses_recheck_and_agree_with_brute_force():
    for fragment_prefix, m in [((E, E), 2), ((A, A), 0), ((E, A), 1)]:
        for nfh in random_instances(20, 61 + m, fixed_prefix=fragment_prefix):
            if m == 2:
                got = hfa.nonempty_exists(nfh)
            elif m == 0:
                got = hfa.nonempty_forall(nfh)
            else:
                got = hfa.nonempty_exists_forall(nfh)
            found = oracles.brute_nonempty(nfh, max(m, 1), nfh.underlying.n_states + 1)
            assert (got is None) == (found is None)
            if got is not None:
                assert hfa.member(nfh, got)


def test_nonempty_exists_forall_against_brute_force_at_arity_three_and_four():
    # a witness of at most m words with no word longer than n_states + 1
    # exists iff brute_nonempty finds one; a witness is as short as any
    verdicts = set()
    for prefix, seed in (("EEA", 71), ("EAA", 73), ("EEAA", 79), ("EAAA", 83)):
        m = prefix.count("E")
        for nfh in random_instances(12, seed, fixed_prefix=[Quantifier(c) for c in prefix]):
            got = hfa.nonempty_exists_forall(nfh)
            bound = nfh.underlying.n_states + 1
            found = oracles.brute_nonempty(nfh, m, bound)
            verdicts.add(got is None)
            if found is None:
                assert got is None or max(map(len, got)) > bound
            else:
                assert got is not None and max(map(len, got)) <= max(map(len, found))
            if got is not None:
                assert len(got) <= m and hfa.member(nfh, got)
                assert oracles.brute_member(nfh, got.words)
    assert verdicts == {True, False}


def test_nonempty_exists_forall_keeps_ended_tracks_ended():
    letters = all_letters("ab", 3)
    # (a,#)(b,a) spells no word pair: x2 would restart after its pad
    restart = hfa.make_nfh("ab", [E, E, A], 3, [0], [2], [
        (0, ("a", PAD, "a"), 1), (0, ("a", PAD, PAD), 1),
        (1, ("b", "a", "b"), 2), (1, ("b", "a", "a"), 2)])
    assert hfa.nonempty_exists_forall(restart) is None
    # x = (a,#) and x = (a,a) reach the same states, but only x2 = a can go on
    go_on = hfa.make_nfh("ab", [E, E, A], 3, [0], [2],
                         [(0, l, 1) for l in letters if l[0] == "a"]
                         + [(1, l, 2) for l in letters if l[1] == "b"])
    assert hfa.nonempty_exists_forall(go_on) == hw("a", "ab")


def test_nonempty_exists_forall_builds_no_automaton(monkeypatch):
    both = hfa.make_nfh("ab", [E, A], 2, [0], [1], [(0, ("a", "a"), 1), (0, ("a", "b"), 1)])
    only_ab = single_word_nfh((E, A), "a", "b")
    # x1 = a, x2 = b; the second acceptor also needs y1 = a, which y1 = x2 breaks
    letters = [l for l in all_letters("ab", 4) if l[:2] == ("a", "b")]
    eeaa = hfa.make_nfh("ab", [E, E, A, A], 2, [0], [1], [(0, l, 1) for l in letters])
    y1_a = hfa.make_nfh("ab", [E, E, A, A], 2, [0], [1],
                        [(0, l, 1) for l in letters if l[2] == "a"])
    # {a} is in both but not in ae, which needs a b for every a
    ae = compile_text("forall x1. exists x2. ([a,b]|[b,a])*")
    any_star, a_star = compile_text("forall x. ([a]|[b])*"), compile_text("forall x. [a]*")
    a_plus = compile_text("exists x. [a][a]*")
    aa, ab = a1_nfh(), single_word_nfh((E, E), "a", "b")
    no_diagonal = single_word_nfh((A, A), "a", "b")

    def refuse(*args, **kwargs):
        raise AssertionError("the selection search builds no automaton")

    for name in ("__init__", "determinize", "remap_letters", "intersect"):
        monkeypatch.setattr(Fa, name, refuse)
    for name in ("reachable_product", "complement", "intersect", "pad_normalize"):
        monkeypatch.setattr(hfa, name, refuse)
    assert hfa.nonempty_exists_forall(both) == hw("a")
    assert hfa.nonempty_exists_forall(only_ab) is None
    assert hfa.nonempty_exists_forall(eeaa) == hw("a", "b")
    assert hfa.nonempty_exists_forall(y1_a) is None
    assert hfa.contains(both, ae) == hw("a")
    assert hfa.contains(any_star, a_plus) == hw("")
    assert hfa.contains(a_star, a_plus) == hw("")
    assert hfa.contains(a_plus, any_star) is None
    assert hfa.equivalent(ab, aa) == (hw("", "a", "b"), "left_only")
    assert hfa.equivalent(aa, a_star) == (hw("b"), "left_only")
    assert hfa.equivalent(a_star, a_star) is None
    assert hfa.nonempty_forall(aa) == hw("")
    assert hfa.nonempty_forall(no_diagonal) is None


# ------------------------------------------------------- regular membership

def test_regular_member_all_a_words():
    lang = Fa("ab", 1, {0}, {0}, [(0, "a", 0)])
    nfh = compile_text("forall x. [a]*")
    assert hfa.regular_member(lang, nfh)


def test_regular_member_base_case_false():
    lang = oracles.trie_fa([("a",)], "ab")
    nfh = compile_text("exists x. [b]*")
    assert not hfa.regular_member(lang, nfh)


def test_regular_member_rejects_empty_language():
    empty = Fa("ab", 1, {0}, set(), [])
    with pytest.raises(EmptyRegularLanguage):
        hfa.regular_member(empty, a1_nfh())


def test_regular_member_matches_member_on_finite_languages():
    rng = random.Random(71)
    for _ in range(40):
        words = {oracles.random_word(rng, "ab", 3) for _ in range(rng.randint(1, 3))}
        lang = oracles.trie_fa(sorted(words), "ab")
        nfh = oracles.random_nfh(rng)
        assert hfa.regular_member(lang, nfh) == hfa.member(nfh, Hyperword.of(words))


def test_regular_member_infinite_language_forall():
    lang = Fa("ab", 1, {0}, {0}, [(0, "a", 0)])
    assert hfa.regular_member(lang, compile_text("forall x. [a]*"))
    # adding a*b words breaks the containment
    lang2 = Fa("ab", 2, {0}, {0, 1}, [(0, "a", 0), (0, "b", 1)])
    assert not hfa.regular_member(lang2, compile_text("forall x. [a]*"))
    # pairwise checks: a-words of any two lengths zip into this shape,
    # so all of a* is inside; demanding equal lengths throws it out
    assert hfa.regular_member(
        lang, compile_text("forall x1. forall x2. ([a,a])*([a,#]*|[#,a]*)")
    )
    assert not hfa.regular_member(lang, compile_text("forall x1. forall x2. ([a,a])*"))


def test_regular_member_respects_quantifier_order():
    # L = {a, b} against word equality: every x1 has a matching x2 (itself),
    # but no single x1 matches all x2, so the two prefixes must disagree
    lang = oracles.trie_fa([("a",), ("b",)], "ab")
    ae = compile_text("forall x1. exists x2. ([a,a]|[b,b])*")
    ea = compile_text("exists x1. forall x2. ([a,a]|[b,b])*")
    both = Hyperword.of([("a",), ("b",)])
    assert hfa.member(ae, both) and not hfa.member(ea, both)
    assert hfa.regular_member(lang, ae)
    assert not hfa.regular_member(lang, ea)


def random_infinite_fa(rng):
    while True:
        lang = oracles.random_fa(rng, "ab", 4, 0.3)
        n = lang.n_states
        # n states accept infinitely many words iff one of length n..2n-1
        if any(len(w) >= n for w in oracles.enumerate_language(lang, 2 * n - 1)):
            return lang


def test_regular_member_on_finite_automata_against_brute_force():
    # L(fa) cut to words of length <= 3 by a length counter, state i*n + q
    # after i letters: several initial, dead and equivalent states occur
    rng = random.Random(83)
    shapes = {"initial": 0, "dead": 0, "equivalent": 0, "empty": 0}
    for k in (1, 2, 3):
        for prefix in itertools.product((A, E), repeat=k):
            for _ in range(10):
                fa = oracles.random_fa(rng, "ab", 4, 0.3)
                n = fa.n_states
                lang = Fa("ab", 4 * n, fa.initial, [i * n + q for q in fa.accepting for i in range(4)],
                          [(i * n + q, a, (i + 1) * n + r) for q, a, r in fa.transitions
                           for i in range(3)])
                suffixes = [oracles.enumerate_language(
                    Fa("ab", 4 * n, [q], lang.accepting, lang.transitions), 3) for q in range(4 * n)]
                shapes["initial"] += len(lang.initial) > 1
                shapes["dead"] += not all(suffixes)
                shapes["equivalent"] += any(suffixes[p] and suffixes[p] == suffixes[q]
                                            for p in range(4 * n) for q in range(p))
                nfh = oracles.random_nfh(rng, fixed_prefix=prefix, max_states=3)
                words = oracles.enumerate_language(lang, 3)
                if not words:
                    shapes["empty"] += 1
                    with pytest.raises(EmptyRegularLanguage):
                        hfa.regular_member(lang, nfh)
                    continue
                assert hfa.regular_member(lang, nfh) == oracles.brute_member(nfh, words), (
                    prefix, fa.transitions, fa.initial, fa.accepting, nfh.underlying.transitions)
    assert min(shapes.values()) >= 10, shapes


def test_regular_member_on_infinite_languages(monkeypatch):
    rng = random.Random(89)
    cases = []
    for prefix in ("AAA", "EEE", "EAA", "AAE", "EAE"):
        for _ in range(8):
            nfh = oracles.random_nfh(rng, fixed_prefix=[Quantifier(c) for c in prefix],
                                     max_states=3)
            cases.append((random_infinite_fa(rng), nfh, hfa.complement(nfh)))

    def refuse(*args, **kwargs):
        raise AssertionError("an alternation-free prefix was projected or complemented")

    start = time.monotonic()
    for lang, nfh, dual in cases:
        with monkeypatch.context() as m:
            if nfh.fragment in (Fragment.EXISTS_ONLY, Fragment.FORALL_ONLY):
                m.setattr(hfa, "_project_track", refuse)
                m.setattr(Fa, "complement", refuse)
                m.setattr(Fa, "determinize", refuse)
            verdict = hfa.regular_member(lang, nfh)
            assert hfa.regular_member(lang, dual) is not verdict
    assert time.monotonic() - start < 5


# ----------------------------------------------------- containment / equiv

def test_contains_reflexive():
    for nfh in random_instances(6, 83, prefix_pool=(E,)):
        assert hfa.contains(nfh, nfh) is None
    for nfh in random_instances(6, 89, prefix_pool=(A,)):
        assert hfa.contains(nfh, nfh) is None


def test_contains_forall_a_star_in_forall_any_star():
    small = compile_text("forall x. [a]*")
    big = compile_text("forall x. ([a]|[b])*")
    assert hfa.contains(small, big) is None
    back = hfa.contains(big, small)
    assert back == hw("b")
    assert hfa.member(big, back) and not hfa.member(small, back)


def test_contains_exists_forall_left_universal_right():
    ea = single_word_nfh((E, A), "a", "a")
    letters = all_letters("ab", 1)
    universal = hfa.make_nfh("ab", [E], 1, [0], [0], [(0, l, 0) for l in letters])
    assert hfa.contains(ea, universal) is None


def test_contains_unsupported_fragments():
    ea = single_word_nfh((E, A), "a", "a")
    e1 = compile_text("exists x. [a]*")
    with pytest.raises(Unsupported):
        hfa.contains(e1, ea)
    ae = compile_text("forall x1. exists x2. ([a,a])*")
    with pytest.raises(Unsupported):
        hfa.contains(ae, e1)


def test_contains_agrees_with_sweep():
    insts = random_instances(10, 97, prefix_pool=(A,)) + random_instances(
        10, 101, prefix_pool=(E,)
    )
    for a1, a2 in zip(insts[::2], insts[1::2]):
        got = hfa.contains(a1, a2)
        missing = [
            s for s in SWEEP if hfa.member(a1, s) and not hfa.member(a2, s)
        ]
        if got is None:
            assert not missing
        else:
            assert hfa.member(a1, got) and not hfa.member(a2, got)


def test_contains_names_the_unsupported_right_prefix():
    ea = single_word_nfh((E, A), "a", "a")
    with pytest.raises(Unsupported, match="right argument prefix EA"):
        hfa.contains(compile_text("exists x. [a]*"), ea)


def test_contains_forall_exists_right_operands_against_brute_force():
    # left E, A, EA, EE or AA; right AE, AAE or AEE; total arity at most 4
    rng = random.Random(2024)
    pool = oracles.all_hyperwords("ab", 3, 2)
    verdicts = set()
    for _ in range(120):
        left = rng.choice(("E", "A", "EA", "EE", "AA"))
        right = rng.choice([r for r in ("AE", "AAE", "AEE") if len(left) + len(r) <= 4])
        a1 = oracles.random_nfh(rng, fixed_prefix=[Quantifier(c) for c in left])
        a2 = oracles.random_nfh(rng, fixed_prefix=[Quantifier(c) for c in right],
                                max_states=2)
        got = hfa.contains(a1, a2)
        verdicts.add(got is None)
        if got is None:
            assert not any(oracles.brute_member(a1, s) and not oracles.brute_member(a2, s)
                           for s in pool)
        else:
            assert oracles.brute_member(a1, got.words)
            assert not oracles.brute_member(a2, got.words)
    assert verdicts == {True, False}


def arity_four_pairs(seed=2026, count=60):
    """Random operand pairs of total arity 4: left EE, AA or EA, right EE or
    AA, up to 4 states each, density 0.25."""
    rng = random.Random(seed)
    for _ in range(count):
        left = rng.choice(("EE", "AA", "EA"))
        right = rng.choice(("EE", "AA"))
        yield tuple(oracles.random_nfh(rng, fixed_prefix=[Quantifier(c) for c in p],
                                       max_states=4) for p in (left, right))


def test_arity_four_contains_and_equivalent_against_brute_force():
    # equivalent for an alternation-free left operand, contains for EA
    pool = oracles.all_hyperwords("ab", 3, 2)
    verdicts = set()
    for a1, a2 in arity_four_pairs():
        if a1.fragment is Fragment.EXISTS_FORALL:
            directions = [(a1, a2)]
            got = hfa.contains(a1, a2)
            got = None if got is None else (got, "left_only")
        else:
            directions = [(a1, a2), (a2, a1)]
            got = hfa.equivalent(a1, a2)
        verdicts.add(got is None)
        if got is None:
            assert not any(oracles.brute_member(x, s) and not oracles.brute_member(y, s)
                           for x, y in directions for s in pool)
        else:
            witness, side = got
            x, y = directions[side == "right_only"]
            assert oracles.brute_member(x, witness.words)
            assert not oracles.brute_member(y, witness.words)
    assert verdicts == {True, False}


def test_witnesses_are_the_least_selection_witness():
    # the tie acceptors reach an accepting state on b from their first initial
    # state and on a from their second; the least witness is a
    rng = random.Random(2027)
    tie_ea, tie_aa = (hfa.make_nfh("ab", prefix, 3, [0, 1], [2], [
        (0, ("b", "b"), 2), (1, ("a", "a"), 2)]) for prefix in ([E, A], [A, A]))
    never = hfa.make_nfh("ab", [E], 1, [0], [], [])
    cases = [(tie_ea, None), (tie_aa, None), (tie_ea, never), (tie_aa, never)]

    def draw(prefix):
        return oracles.random_nfh(rng, fixed_prefix=[Quantifier(c) for c in prefix])

    cases += [(draw(rng.choice(("EA", "EEA", "EAA"))), None) for _ in range(60)]
    cases += [(draw(rng.choice(("A", "AA", "AAA"))), None) for _ in range(40)]
    for _ in range(100):
        left = rng.choice(("E", "A", "EA", "EE", "AA"))
        right = rng.choice([r for r in ("A", "E", "AE", "AA", "EE") if len(left + r) <= 3])
        cases.append((draw(left), draw(right)))
    cases += [(draw(rng.choice(("E", "EE", "EEE"))), None) for _ in range(60)]
    verdicts = set()
    for a1, a2 in cases:
        if a2 is not None:
            got = hfa.contains(a1, a2)
        elif a1.fragment is Fragment.FORALL_ONLY:
            got = hfa.nonempty_forall(a1)
        elif a1.fragment is Fragment.EXISTS_ONLY:
            got = hfa.nonempty_exists(a1)
        else:
            got = hfa.nonempty_exists_forall(a1)
        want = oracles.least_selection_witness(a1, a2, 3)
        verdicts.add(want is None)
        if want is None:
            assert got is None or max(map(len, got)) > 3
        else:
            assert got is not None and got.words == want
    assert verdicts == {True, False}
    assert hfa.nonempty_exists_forall(tie_ea) == hfa.nonempty_forall(tie_aa) == hw("a")


def test_contains_checks_the_arity_cap_before_complementing(monkeypatch):
    ee = hfa.make_nfh("ab", [E, E], 1, [0], [0], [])
    aaa = hfa.make_nfh("ab", [A, A, A], 1, [0], [0], [])

    def refuse(*args):
        raise AssertionError("no subset construction past the arity cap")

    monkeypatch.setattr(Fa, "determinize", refuse)
    with pytest.raises(ResourceLimit, match="arity 5 exceeds the cap of 4"):
        hfa.contains(ee, aaa)
    with pytest.raises(ResourceLimit, match="arity 5 exceeds the cap of 4"):
        hfa.equivalent(ee, aaa)


def test_contains_checks_the_alphabets_before_any_work(monkeypatch):
    ab = hfa.make_nfh("ab", [A], 1, [0], [0], [])
    abc = hfa.make_nfh("abc", [A], 1, [0], [0], [])

    def refuse(*args):
        raise AssertionError("no subset construction on different alphabets")

    monkeypatch.setattr(Fa, "determinize", refuse)
    for call in (hfa.contains, hfa.equivalent):
        with pytest.raises(AlphabetMismatch, match="containment requires identical alphabets"):
            call(ab, abc)


def test_equivalent_examples():
    small = compile_text("forall x. [a]*")
    big = compile_text("forall x. ([a]|[b])*")
    assert hfa.equivalent(small, small) is None
    assert hfa.equivalent(small, hfa.complement(hfa.complement(small))) is None
    got = hfa.equivalent(small, big)
    assert got == (hw("b"), "right_only")


# ------------------------------------------------------------- Hamiltonian

def test_gen_hamiltonian_triangle():
    nfh, s = hfa.gen_hamiltonian(3, [(1, 2), (2, 3), (1, 3)])
    assert nfh.fragment is Fragment.EXISTS_ONLY and nfh.k == 3
    assert s == hw("100", "010", "001")
    assert hfa.member(nfh, s)


def test_gen_hamiltonian_path_false():
    nfh, s = hfa.gen_hamiltonian(3, [(1, 2), (2, 3)])
    assert not hfa.member(nfh, s)


def test_gen_hamiltonian_k4():
    edges = list(itertools.combinations(range(1, 5), 2))
    nfh, s = hfa.gen_hamiltonian(4, edges)
    assert hfa.member(nfh, s)


def test_gen_hamiltonian_random_graphs_match_oracle():
    rng = random.Random(67)
    verdicts = set()
    for n in (6, 7, 8):
        for _ in range(8):
            edges = oracles.random_connected_graph(rng, n, 0.35)
            nfh, s = hfa.gen_hamiltonian(n, edges)
            want = oracles.ham_cycle_through_v1(n, edges)
            assert hfa.member(nfh, s) == want, (n, edges)
            verdicts.add(want)
    assert verdicts == {False, True}


@pytest.mark.parametrize("family, want", [("ring", True), ("path", False)])
def test_gen_hamiltonian_sixteen_vertices(family, want):
    # 3^16 tuple letters: neither building nor deciding may list them
    n = 16
    edges = [(i, i + 1) for i in range(1, n)] + ([(n, 1)] if family == "ring" else [])
    start = time.perf_counter()
    nfh, s = hfa.gen_hamiltonian(n, edges)
    built = time.perf_counter()
    assert hfa.member(nfh, s) is want
    decided = time.perf_counter()
    assert len(nfh.underlying.alphabet) == 3 ** 16
    assert built - start < 0.1
    assert decided - built < 1.0


def test_gen_hamiltonian_invalid():
    with pytest.raises(InvalidGraph):
        hfa.gen_hamiltonian(1, [])
    with pytest.raises(InvalidGraph):
        hfa.gen_hamiltonian(3, [(1, 4)])


# ------------------------------------------------------------ resource cap

def test_arity_cap_enforced():
    big = hfa.make_nfh("ab", [E] * 5, 1, [0], [0], [])
    with pytest.raises(ResourceLimit):
        hfa.complement(big)
    with pytest.raises(ResourceLimit):
        hfa.union(big, big)


def k14_header(prefix, body):
    return f"nfh k=14 sigma=a,b prefix={prefix}\n{body}"


ALL_A = "(" + ",".join("a" * 14) + ")"


@pytest.mark.parametrize(
    "text, member_wants, nonempty_wants",
    [
        # nonemptiness follows the one transition, not the 3^14 letters
        (k14_header("E" * 14, f"state 0 init\nstate 1 accept\ntrans 0 {ALL_A} 1\n"),
         True, hw("a")),
        # the empty word is accepted, so no letter is read
        (k14_header("A" * 14, "state 0 init accept\n"), False, hw("")),
        (k14_header("E" * 7 + "A" * 7, "state 0 init accept\n"), False, ResourceLimit),
    ],
)
def test_wide_header_is_cheap(text, member_wants, nonempty_wants):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        nfh = hfa.parse_nfh(text)
        assert hfa.format_nfh(nfh) == text
        assert hfa.member(nfh, hw("a", "b")) is member_wants
        try:
            got = hfa.nonempty_exists_forall(nfh)
        except ResourceLimit as exc:
            got = ResourceLimit
            assert "exceeds the cap of" in str(exc)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == nonempty_wants
    assert elapsed < 0.05
    assert peak < 50e6


def test_exists_forall_selection_letters_are_capped_before_listing():
    # E^7 A^7 above the arity cap: 7^7 runs, each reading every track of x
    nfh = hfa.parse_nfh(k14_header("E" * 7 + "A" * 7, "state 0 init\n"))
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="selection alphabet of 823543 letters"):
        hfa.nonempty_exists_forall(nfh, max_k=14)
    assert time.perf_counter() - start < 0.05


def test_acceptor_of_arity_forty_builds_and_prints():
    letter = ("a",) * 39 + (PAD,)
    nfh = hfa.make_nfh("ab", [E] * 40, 2, [0], [1], [(0, letter, 1)])
    assert hfa.member(nfh, hw("a", "")) and not hfa.member(nfh, hw("b", ""))
    assert f"letters={3 ** 40}," in repr(nfh)
    assert hfa.parse_nfh(hfa.format_nfh(nfh)).underlying.transitions == ((0, letter, 1),)


def test_transition_letters_outside_the_tuple_alphabet():
    hfa.make_nfh("ab", (E, E), 1, [0], [0], [(0, ("a", PAD), 0)])
    for letter in [("a",), ("a", "b", "a"), ("a", "c"), ("#a", "b"), "ab"]:
        with pytest.raises(UnknownLetter):
            hfa.make_nfh("ab", (E, E), 1, [0], [0], [(0, letter, 0)])
    with pytest.raises(UnknownLetter):
        hfa.parse_nfh("nfh k=2 sigma=a,b prefix=EE\nstate 0 init\ntrans 0 (a,c) 0\n")
    # a string among tuple letters is caught before the transitions are sorted
    with pytest.raises(UnknownLetter):
        hfa.make_nfh("ab", (E, E), 1, [0], [0], [(0, ("a", "b"), 0), (0, "ab", 0)])


# ------------------------------------------------------------ wire formats

def test_format_parse_roundtrip_byte_identical():
    for nfh in random_instances(12, 113) + [a1_nfh(), a2_nfh()]:
        text = hfa.format_nfh(nfh)
        back = hfa.parse_nfh(text)
        assert hfa.format_nfh(back) == text
        assert back.prefix == nfh.prefix and back.sigma == nfh.sigma


def test_parse_nfh_rejects_malformed():
    with pytest.raises(FormatError):
        hfa.parse_nfh("")
    with pytest.raises(FormatError):
        hfa.parse_nfh("nfh k=2 sigma=a,b prefix=A\nstate 0 init accept\n")
    with pytest.raises(FormatError):
        hfa.parse_nfh("nfh k=1 sigma=a prefix=A\nstate 0 init accept\ntrans 0 (a,b) 0\n")
    with pytest.raises(FormatError):
        hfa.parse_nfh("nfh k=1 sigma=a prefix=A\nbogus 0\n")


def test_hyperword_format_roundtrip():
    cases = [hw(""), hw("ab", "a"), hw("", "b", "aa")]
    for s in cases:
        text = hfa.format_hyperword(s, "ab")
        assert hfa.parse_hyperword(text, "ab") == s
        assert hfa.format_hyperword(hfa.parse_hyperword(text, "ab"), "ab") == text


def test_hyperword_multichar_symbols_use_dots():
    s = Hyperword.of([("li", "pw", "lo")])
    text = hfa.format_hyperword(s, ("li", "pw", "lo"))
    assert text == "li.pw.lo\n"
    assert hfa.parse_hyperword(text, ("li", "pw", "lo")) == s


def test_hyperword_rejects_foreign_symbols():
    with pytest.raises(AlphabetMismatch):
        hfa.parse_hyperword("ac\n", "ab")
