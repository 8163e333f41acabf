import itertools
import random
import time

import pytest

from hyperfa import canon, hfa
from hyperfa.errors import AlphabetMismatch, InvalidArity, UnknownLetter
from hyperfa.fa import Fa
from hyperfa.zipwords import PAD, all_letters

import oracles

E, A = hfa.Quantifier.EXISTS, hfa.Quantifier.FORALL


def fa_astar_b():
    # a*b
    return Fa("ab", 2, {0}, {1}, [(0, "a", 0), (0, "b", 1)])


def fa_abstar():
    # ab*
    return Fa("ab", 2, {0}, {1}, [(0, "a", 1), (1, "b", 1)])


def words_upto(alphabet, n):
    for length in range(n + 1):
        yield from itertools.product(alphabet, repeat=length)


def test_accepts_self_loop():
    a = Fa("ab", 1, {0}, {0}, [(0, "a", 0)])
    assert a.accepts("aa")
    assert not a.accepts("ab")


def test_accepts_unknown_letter():
    with pytest.raises(UnknownLetter):
        fa_astar_b().accepts("ac")


def test_accepts_astar_b():
    a = fa_astar_b()
    assert a.accepts("aab")
    assert not a.accepts("aba")


def test_shortest_accepted():
    assert Fa("a", 1, {0}, set(), [(0, "a", 0)]).shortest_accepted() is None
    assert Fa("a", 1, {0}, {0}, []).shortest_accepted() == ()
    assert fa_astar_b().shortest_accepted() == ("b",)


def test_shortest_accepted_minimal_and_canonical():
    # two accepted words of length 1; tie broken by letter order
    a = Fa("ab", 2, {0}, {1}, [(0, "b", 1), (0, "a", 1), (1, "a", 1)])
    assert a.shortest_accepted() == ("a",)


def test_complement_empty_language():
    empty = Fa("ab", 1, {0}, set(), [])
    comp = empty.complement()
    for w in words_upto("ab", 4):
        assert comp.accepts(w)


def test_complement_flips_membership():
    a = fa_astar_b()
    comp = a.complement()
    for w in words_upto("ab", 4):
        assert comp.accepts(w) == (not a.accepts(w))
    again = comp.complement()
    for w in words_upto("ab", 4):
        assert again.accepts(w) == a.accepts(w)


def test_complement_deterministic_complete():
    comp = fa_astar_b().complement()
    assert len(comp.initial) == 1
    for q in range(comp.n_states):
        for letter in comp.alphabet:
            assert len(comp.step(frozenset([q]), letter)) == 1


def test_complement_of_a_minimal_dfa_only_flips_its_accepting_states():
    # regular_member complements a minimized automaton by this flip alone
    rng = random.Random(5)
    for _ in range(500):
        m = oracles.random_fa(rng, "abc", 6, rng.choice((0.1, 0.25, 0.5))).minimize()
        comp = m.complement()
        assert (comp.n_states, comp.initial, comp.transitions) == (m.n_states, m.initial,
                                                                    m.transitions)
        assert comp.accepting == set(range(m.n_states)) - m.accepting


def test_intersect_union_against_enumeration():
    a, b = fa_astar_b(), fa_abstar()
    both = a.intersect(b)
    either = a.union(b)
    for w in words_upto("ab", 4):
        assert both.accepts(w) == (a.accepts(w) and b.accepts(w))
        assert either.accepts(w) == (a.accepts(w) or b.accepts(w))
    assert {w for w in words_upto("ab", 4) if both.accepts(w)} == {("a", "b")}


def test_intersect_with_universal():
    a = fa_astar_b()
    universal = Fa("ab", 1, {0}, {0}, [(0, "a", 0), (0, "b", 0)])
    got = a.intersect(universal)
    for w in words_upto("ab", 4):
        assert got.accepts(w) == a.accepts(w)


def test_union_with_empty():
    a = fa_astar_b()
    empty = Fa("ab", 1, {0}, set(), [])
    got = a.union(empty)
    for w in words_upto("ab", 4):
        assert got.accepts(w) == a.accepts(w)


def test_intersect_of_wide_tuple_alphabets_walks_transitions():
    # 3**14 letters: listing them would exceed the tuple-alphabet cap
    alphabet = all_letters("ab", 14)
    a, b = ("a",) * 14, ("b",) * 14
    left = Fa(alphabet, 2, [0], [1], [(0, a, 1)])
    right = Fa(alphabet, 2, [0], [1], [(0, a, 1), (0, b, 1)])
    start = time.perf_counter()
    product = left.intersect(right)
    assert time.perf_counter() - start < 0.05
    assert (product.n_states, product.initial, product.accepting) == (2, {0}, {1})
    assert product.transitions == ((0, a, 1),)


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        fa_astar_b().intersect(Fa("ac", 1, {0}, {0}, []))


def test_contains():
    a_only = Fa("ab", 1, {0}, {0}, [(0, "a", 0)])
    both = Fa("ab", 1, {0}, {0}, [(0, "a", 0), (0, "b", 0)])
    assert a_only.contains(a_only) is None
    assert both.contains(a_only) is None
    assert a_only.contains(both) == ("b",)
    empty = Fa("ab", 1, {0}, set(), [])
    assert both.contains(empty) is None


def test_contains_vs_enumeration():
    a, b = fa_astar_b(), fa_abstar()
    witness = b.contains(a)
    assert witness == ("b",)
    assert a.accepts(witness) and not b.accepts(witness)
    other_way = a.contains(b)
    assert other_way == ("a",)
    assert b.accepts(other_way) and not a.accepts(other_way)
    # agreement with enumeration: every short word of one side minus the
    # other is at least as long as the returned witness
    for w in words_upto("ab", 4):
        if a.accepts(w) and not b.accepts(w):
            assert len(w) >= len(witness)


def test_contains_and_shortest_accepted_never_build_subset_automata(monkeypatch):
    def refuse(*args):
        raise AssertionError("contains must search lazily")

    a, b = fa_astar_b(), fa_abstar()
    for name in ("determinize", "complement", "intersect"):
        monkeypatch.setattr(Fa, name, refuse)
    assert b.contains(a) == ("b",) and a.contains(b) == ("a",)
    assert a.contains(a) is None
    assert a.shortest_accepted() == ("b",)


def test_contains_matches_brute_force_on_random_pairs():
    # filters, as automata intersected with the right operand: no letter
    # twice in a row over plain letters, exact zip encodings over the k=2
    # tuple alphabet; the oracle checks them as predicates on letter pairs
    def no_repeat(prev, nxt):
        return prev != nxt

    def exact_zip(prev, nxt):
        # a dead track stays dead and the all-pad letter never occurs
        return nxt.count(PAD) < len(nxt) and (
            prev is None or all(p != PAD or n == PAD for p, n in zip(prev, nxt)))

    def no_repeat_fa(letters):
        # state 0 starts, state i + 1 has just read letter i
        return Fa(letters, len(letters) + 1, [0], range(len(letters) + 1),
                  [(s, l, i + 1) for s in range(len(letters) + 1)
                   for i, l in enumerate(letters) if s != i + 1])

    def admitted(word, step_ok):
        return step_ok is None or all(step_ok(p, n) for p, n in zip((None,) + word, word))

    pairs = all_letters("ab", 2)
    rng = random.Random(31)
    hits = misses = 0
    for i in range(300):
        tuples = i % 4 >= 2
        letters = pairs if tuples else "abc"[: rng.randint(1, 3)]
        step_ok = (None, exact_zip if tuples else no_repeat)[i % 2]
        density = (0.1, 0.25) if tuples else (0.1, 0.25, 0.5)
        a, b = (random_fa(rng, rng.randint(1, 5), letters, rng.choice(density))
                for _ in range(2))
        filtered = b
        if step_ok is not None:
            only = canon.zip_filter_fa("ab", 2) if tuples else no_repeat_fa(letters)
            filtered = b.intersect(only)
        want = oracles.first_difference(a, b, 5, step_ok)
        got = a.contains(filtered)
        if got is None:
            assert want is None
            misses += 1
            continue
        hits += 1
        assert oracles.sim_accepts(b, got) and not oracles.sim_accepts(a, got)
        assert admitted(got, step_ok)
        # shortest; ties need not be least, since other may run on in
        # several states and each run is searched in its own letter order
        assert len(got) == len(want) if len(got) <= 5 else want is None
        nothing = Fa(a.alphabet, 1, [0], [], [])
        shortest = filtered.shortest_accepted()
        assert oracles.sim_accepts(b, shortest) and admitted(shortest, step_ok)
        assert len(shortest) == len(oracles.first_difference(nothing, b, len(got), step_ok))
    assert hits > 50 and misses > 50


def test_contains_of_wide_tuple_alphabets_walks_transitions():
    # 3**14 letters: determinizing would list them past the tuple-alphabet cap
    alphabet = all_letters("ab", 14)
    a, b = ("a",) * 14, ("b",) * 14
    left = Fa(alphabet, 2, [0], [1], [(0, a, 1)])
    right = Fa(alphabet, 2, [0], [1], [(0, a, 1), (0, b, 1)])
    start = time.perf_counter()
    assert left.contains(right) == (b,)
    assert right.contains(left) is None
    assert time.perf_counter() - start < 0.05


def test_remap_identity():
    a = fa_astar_b()
    got = a.remap_letters(lambda l: l, a.alphabet)
    for w in words_upto("ab", 4):
        assert got.accepts(w) == a.accepts(w)


def test_remap_swap_pair_letters():
    alphabet = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    only_ab = Fa(alphabet, 2, {0}, {1}, [(0, ("a", "b"), 1)])
    swapped = only_ab.remap_letters(lambda l: (l[1], l[0]), alphabet)
    assert swapped.accepts([("b", "a")])
    assert not swapped.accepts([("a", "b")])


def test_remap_collapse_to_diagonal():
    alphabet = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    diag = Fa(alphabet, 1, {0}, {0}, [(0, ("a", "a"), 0)])
    collapsed = diag.remap_letters(lambda l: (l[0], l[0]), alphabet)
    for l in alphabet:
        assert collapsed.accepts([l]) == diag.accepts([(l[0], l[0])])


def test_minimize_preserves_language():
    a = fa_astar_b().union(fa_astar_b())
    m = a.determinize().minimize()
    assert m.n_states <= a.determinize().n_states
    for w in words_upto("ab", 5):
        assert m.accepts(w) == a.accepts(w)


def random_fa(rng, n, letters, density):
    trans = [(q, a, r) for q in range(n) for a in letters for r in range(n)
             if rng.random() < density]
    initial = [q for q in range(n) if rng.random() < 0.3] or [0]
    accepting = [q for q in range(n) if rng.random() < 0.4]
    return Fa(letters, n, initial, accepting, trans)


def random_dfa(rng, n, letters):
    trans = [(q, a, rng.randrange(n)) for q in range(n) for a in letters]
    return Fa(letters, n, [0], [q for q in range(n) if rng.random() < 0.5], trans)


def test_minimize_state_count_matches_table_filling():
    rng = random.Random(7)
    for i in range(240):
        letters = "abc"[: 1 + i % 3]
        a = random_fa(rng, rng.randint(1, 6), letters, (0.1, 0.25, 0.5)[i // 3 % 3])
        m = a.minimize()
        assert m.n_states == oracles.minimal_state_count(a)
        for w in words_upto(letters, 5):
            assert m.accepts(w) == oracles.sim_accepts(a, w)


def test_minimize_is_canonical():
    # a relabelled copy, and the union with it, have the same language and
    # must minimize to the identical automaton
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 12)
        dfa = random_dfa(rng, n, "abc"[: rng.randint(1, 3)])
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = Fa(dfa.alphabet, n, [perm[0]], [perm[q] for q in dfa.accepting],
                        [(perm[q], a, perm[r]) for q, a, r in dfa.transitions])
        want = oracles.fa_shape(dfa.minimize())
        assert oracles.fa_shape(relabelled.minimize()) == want
        assert oracles.fa_shape(dfa.union(relabelled).minimize()) == want


def test_minimize_3000_state_dfa_is_fast():
    rng = random.Random(5)
    dfa = random_dfa(rng, 3000, "abcdefghi")
    start = time.perf_counter()
    m = dfa.minimize()
    assert time.perf_counter() - start < 2.0
    for _ in range(200):
        w = [rng.choice("abcdefghi") for _ in range(rng.randint(0, 12))]
        assert m.accepts(w) == dfa.accepts(w)


def test_determinize_matches_subset_oracle():
    rng = random.Random(17)
    for i in range(300):
        letters = "abc"[: 1 + i % 3]
        # every fourth automaton leaves its last letter unused, so the
        # empty subset is always reached and numbered
        used = letters[: len(letters) - (i % 4 == 3)]
        a = random_fa(rng, rng.randint(1, 6), used, (0.1, 0.25, 0.5)[i // 3 % 3])
        a = Fa(letters, a.n_states, a.initial, a.accepting, a.transitions)
        assert oracles.fa_shape(a.determinize()) == oracles.subset_dfa(a)
    pairs = random_fa(rng, 4, all_letters("ab", 2), 0.2)
    assert oracles.fa_shape(pairs.determinize()) == oracles.subset_dfa(pairs)


def assert_equals_checked(out):
    """The checked constructor gives an equal automaton from out's parts."""
    checked = Fa(out.alphabet, out.n_states, out.initial, out.accepting, out.transitions)
    assert type(out.alphabet) is type(checked.alphabet)
    assert out.alphabet == checked.alphabet
    assert oracles.fa_shape(out) == oracles.fa_shape(checked)
    assert out._alphabet_set == checked._alphabet_set
    assert out._step == checked._step


def test_unchecked_results_equal_checked_construction():
    # the subset constructions, products, union, tuple-alphabet remaps,
    # pad_normalize, pad_accept and zip_filter_fa build their results unchecked
    rng = random.Random(19)
    pairs = all_letters("ab", 2)
    several_targets = 0  # products with a (state, letter) of several targets
    for i in range(300):
        letters = pairs if i % 5 == 4 else "abc"[: 1 + i % 3]
        a, b = (random_fa(rng, rng.randint(1, 6), letters, (0.1, 0.25, 0.5)[i % 3])
                for _ in range(2))
        product = a.intersect(b)
        several_targets += any(len(targets) > 1 for targets in product._step.values())
        outs = [a.determinize(), a.complement(), a.minimize(), product, a.union(b)]
        if letters is pairs:
            outs += [a.remap_letters(lambda l: (l[1], l[0]), pairs),
                     hfa.pad_normalize(a, 2), hfa.pad_accept(a, 2)]
        else:
            outs.append(a.remap_letters(lambda l: l[0], all_letters(letters, 1)))
        for out in outs:
            assert_equals_checked(out)
    assert several_targets >= 100
    for sigma, k in itertools.product(("a", "ab", "abc"), (1, 2, 3)):
        assert_equals_checked(canon.zip_filter_fa(sigma, k))


def test_hfa_products_equal_checked_construction():
    rng = random.Random(29)
    for i in range(60):
        k1, k2 = 1 + i % 2, 1 + i // 2 % 2
        n1, n2 = (hfa.Nfh("ab", [rng.choice((E, A)) for _ in range(k)],
                          random_fa(rng, rng.randint(1, 4), all_letters("ab", k), 0.2))
                  for k in (k1, k2))
        pattern = rng.sample([0] * k1 + [1] * k2, k1 + k2)
        for interleaving in (None, pattern):
            assert_equals_checked(hfa.intersect(n1, n2, interleaving).underlying)
    # both ("a", "a") and ("a", "b") step 0 to 1, and padded reads a and b
    # alike, so dropping the last component gives the step ("a",) twice
    current = Fa(all_letters("ab", 2), 2, [0], [1], [(0, ("a", "a"), 1), (0, ("a", "b"), 1)])
    padded = Fa(all_letters("ab", 1), 1, [0], [0], [(0, ("a",), 0), (0, ("b",), 0)])
    projected = hfa._project_track(current, padded, ("a", "b"), 2)
    assert projected.transitions == ((0, ("a",), 1),)
    assert_equals_checked(projected)


def test_internal_constructions_skip_the_checked_constructor(monkeypatch):
    rng = random.Random(37)
    pairs = all_letters("ab", 2)
    a, b = (random_fa(rng, 4, pairs, 0.2) for _ in range(2))
    c, d = (random_fa(rng, 4, "ab", 0.4) for _ in range(2))
    exists, exists_forall = hfa.Nfh("ab", (E, E), a), hfa.Nfh("ab", (E, A), b)

    def refuse(*args, **kwargs):
        raise AssertionError("checked constructor on an internal path")

    monkeypatch.setattr(Fa, "__init__", refuse)
    for x, y in ((a, b), (c, d)):
        x.intersect(y), x.union(y), x.determinize(), x.complement(), x.minimize()
    a.remap_letters(lambda l: (l[1], l[0]), pairs)
    hfa.intersect(exists, exists_forall)
    hfa.intersect(exists, exists_forall, (1, 0, 0, 1))
    for nfh in (exists, exists_forall):
        canon.selection_closure(nfh, [(1, 2), (2, 1), (1, 1)])
    # a plain alphabet is normalized and checked
    with pytest.raises(AssertionError, match="checked constructor"):
        c.remap_letters(lambda l: l, ("b", "a"))
    monkeypatch.undo()
    remapped = c.remap_letters(lambda l: l, ("b", "a"))
    assert remapped.alphabet == ("a", "b")
    with pytest.raises(UnknownLetter):
        remapped.accepts(("c",))


@pytest.mark.parametrize("error, changed", [
    (InvalidArity, {"transitions": [(0, ("a", "b"), 2)]}),  # into state n_states
    (InvalidArity, {"initial": [2]}),
    (InvalidArity, {"accepting": [0, 2]}),
    (UnknownLetter, {"transitions": [(0, ("a", "c"), 1)]}),
    (UnknownLetter, {"transitions": [(0, ("a",), 1)]}),
])
def test_public_constructors_validate(error, changed):
    parts = {"n_states": 2, "initial": [0], "accepting": [1],
             "transitions": [(0, ("a", "b"), 1)], **changed}
    with pytest.raises(error):
        Fa(all_letters("ab", 2), **parts)
    with pytest.raises(error):
        hfa.make_nfh("ab", (hfa.Quantifier.EXISTS, hfa.Quantifier.FORALL), **parts)


def test_dot_export_mentions_all_parts():
    text = fa_astar_b().to_dot()
    assert "digraph" in text and "doublecircle" in text
    assert '"a"' in text or "label" in text


def test_language_enumeration_oracle_agrees():
    a = fa_astar_b()
    assert oracles.enumerate_language(a, 3) == {
        ("b",),
        ("a", "b"),
        ("a", "a", "b"),
    }
