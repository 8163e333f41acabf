import random

import pytest

from hyperfa import canon, hfa, hre
from hyperfa.errors import PreconditionViolated, ResourceLimit, WrongFragment
from hyperfa.hfa import Hyperword, Quantifier, pad_normalize
from hyperfa.zipwords import apply_sequence

import oracles

A = Quantifier.FORALL
E = Quantifier.EXISTS

SWEEP = [Hyperword.of(words) for words in oracles.all_hyperwords("ab", 3, 3)]


def compile_text(text, sigma="ab"):
    return hre.compile_hre(hre.parse(text), sigma)


def only_ab_nfh(prefix):
    return hfa.make_nfh("ab", prefix, 2, [0], [1], [(0, ("a", "b"), 1)])


def lang_upto(fa, n):
    return oracles.enumerate_language(fa, n)


def test_sequence_closure_of_single_pair_is_empty():
    closed = canon.sequence_closure(only_ab_nfh((A, A)))
    assert closed.underlying.is_empty()


def test_permutation_closure_of_single_pair():
    closed = canon.permutation_closure(only_ab_nfh((E, E)))
    got = {w for w in lang_upto(closed.underlying, 1) if w}
    assert got == {(("a", "b"),), (("b", "a"),)}


def test_permutation_closure_k1_identity():
    # identity on encodings; only inessential pad tails are added
    nfh = compile_text("exists x. [a][b]*")
    closed = canon.permutation_closure(nfh)
    def encodings(fa):
        return {
            w for w in lang_upto(fa, 4) if all(l != ("#",) for l in w)
        }
    assert encodings(closed.underlying) == encodings(nfh.underlying)
    for extra in lang_upto(closed.underlying, 4) - lang_upto(nfh.underlying, 4):
        core = [l for l in extra if l != ("#",)]
        assert core + [("#",)] * (len(extra) - len(core)) == list(extra)


def test_closure_idempotent():
    for text, close in [
        ("forall x1. forall x2. ([a,a]|[b,b])*([#,b]*|[b,#]*)", canon.sequence_closure),
        ("exists x1. exists x2. ([a,b])*", canon.permutation_closure),
    ]:
        once = close(compile_text(text))
        twice = close(once)
        assert lang_upto(twice.underlying, 4) == lang_upto(once.underlying, 4)


def test_closures_come_out_minimal():
    for nfh, close in [
        (compile_text("forall x1. forall x2. ([a,a]|[b,b])*([#,b]*|[b,#]*)"),
         canon.sequence_closure),
        (only_ab_nfh((A, A)), canon.sequence_closure),
        (compile_text("exists x1. exists x2. ([a,b])*"), canon.permutation_closure),
        (only_ab_nfh((E, E)), canon.permutation_closure),
    ]:
        closed = close(nfh).underlying
        assert oracles.fa_shape(closed.minimize()) == oracles.fa_shape(closed)


def test_closure_preserves_member_on_sweep():
    rng = random.Random(3)
    for _ in range(6):
        nfh = oracles.random_nfh(rng, prefix_pool=(A,))
        closed = canon.sequence_closure(nfh)
        for s in SWEEP[::9]:
            assert hfa.member(closed, s) == hfa.member(nfh, s)
    for _ in range(6):
        nfh = oracles.random_nfh(rng, prefix_pool=(E,))
        closed = canon.permutation_closure(nfh)
        for s in SWEEP[::9]:
            assert hfa.member(closed, s) == hfa.member(nfh, s)


def test_closure_wrong_fragment():
    with pytest.raises(WrongFragment):
        canon.sequence_closure(only_ab_nfh((E, E)))
    with pytest.raises(WrongFragment):
        canon.permutation_closure(only_ab_nfh((A, A)))
    with pytest.raises(WrongFragment):
        canon.check_complete(only_ab_nfh((E, A)))


def test_closure_resource_cap():
    big = hfa.make_nfh("ab", (A,) * 4, 1, [0], [0], [])
    with pytest.raises(ResourceLimit):
        canon.sequence_closure(big)
    assert canon.sequence_closure(big, max_k=4) is not None


def test_check_complete_single_pair_forall():
    report = canon.check_complete(only_ab_nfh((A, A)))
    assert not report.complete
    word, seq = report.counterexample
    assert word.letters == (("a", "b"),)
    # the underlying accepts the word but rejects the selected variant
    nfh = only_ab_nfh((A, A))
    assert nfh.underlying.accepts(word.letters)
    padded = pad_normalize(nfh.underlying, 2)
    assert not padded.accepts(apply_sequence(word, seq).letters)


def test_check_complete_single_pair_exists():
    report = canon.check_complete(only_ab_nfh((E, E)))
    assert not report.complete
    word, seq = report.counterexample
    nfh = only_ab_nfh((E, E))
    assert not nfh.underlying.accepts(word.letters)
    padded = pad_normalize(nfh.underlying, 2)
    assert padded.accepts(apply_sequence(word, seq).letters)


def test_check_complete_closure_outputs():
    rng = random.Random(17)
    for _ in range(6):
        forall = canon.sequence_closure(oracles.random_nfh(rng, prefix_pool=(A,)))
        assert canon.check_complete(forall).complete
        exists = canon.permutation_closure(oracles.random_nfh(rng, prefix_pool=(E,)))
        assert canon.check_complete(exists).complete


def test_check_complete_k1():
    assert canon.check_complete(compile_text("forall x. [a]*")).complete
    assert canon.check_complete(compile_text("exists x. [b][a]")).complete


def test_canonical_equal_self_closure():
    nfh = canon.sequence_closure(
        compile_text("forall x1. forall x2. ([a,a]|[b,b])*")
    )
    again = canon.sequence_closure(nfh)
    assert canon.canonical_equal(nfh, again)


def test_canonical_equal_different_sources():
    # same hyperlanguage, different state layouts
    one = canon.sequence_closure(compile_text("forall x1. forall x2. ([a,a]|[b,b])*"))
    two = canon.sequence_closure(
        compile_text("forall x1. forall x2. eps|([a,a]|[b,b])([a,a]|[b,b])*")
    )
    assert canonical_and_sweep_agree(one, two)


def test_canonical_equal_distinguishes():
    small = canon.sequence_closure(lift_to_pair("forall x. [a]*"))
    big = canon.sequence_closure(lift_to_pair("forall x. ([a]|[b])*"))
    assert not canon.canonical_equal(small, big)
    assert any(
        hfa.member(small, s) != hfa.member(big, s) for s in SWEEP
    )


def lift_to_pair(text):
    # restate a one-variable universal language with two variables: a pair
    # zip is accepted iff each track (plus its pad tail) runs the base word
    # language on its own copy of the acceptor
    from hyperfa.zipwords import all_letters

    base = compile_text(text)
    assert base.k == 1
    padded = pad_normalize(base.underlying, 1)
    alphabet = all_letters("ab", 2)
    first = padded.remap_letters(lambda l: (l[0],), alphabet)
    second = padded.remap_letters(lambda l: (l[1],), alphabet)
    return hfa.Nfh("ab", (A, A), first.intersect(second))


def canonical_and_sweep_agree(a1, a2):
    ce = canon.canonical_equal(a1, a2)
    sweep = all(hfa.member(a1, s) == hfa.member(a2, s) for s in SWEEP)
    assert ce == sweep
    return ce


def test_canonical_equal_requires_completeness():
    with pytest.raises(PreconditionViolated):
        canon.canonical_equal(only_ab_nfh((A, A)), only_ab_nfh((A, A)))


def test_canonical_equal_requires_matching_shape():
    e1 = canon.permutation_closure(compile_text("exists x. [a]*"))
    a1 = canon.sequence_closure(compile_text("forall x. [a]*"))
    with pytest.raises(WrongFragment):
        canon.canonical_equal(e1, a1)
    e2 = canon.permutation_closure(compile_text("exists x1. exists x2. ([a,a])*"))
    with pytest.raises(PreconditionViolated):
        canon.canonical_equal(e1, e2)
