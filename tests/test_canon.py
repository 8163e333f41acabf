import functools
import itertools
import random

import pytest

from hyperfa import canon, hfa, hre
from hyperfa.errors import PreconditionViolated, ResourceLimit, WrongFragment
from hyperfa.fa import Fa
from hyperfa.hfa import Fragment, Hyperword, Quantifier, pad_normalize
from hyperfa.zipwords import IndexSequence, ZipWord, apply_sequence

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


# ------------------------------------------------------------ completeness

DIAGONAL_K4 = "forall x1. forall x2. forall x3. forall x4. ([a,a,a,a]|[b,b,b,b])*"
# universal, closed under every reordering and under no map of rank k - 1:
# the reorderings of one letter, such as [a,b]|[b,a]
REORDERING_CLOSED = [
    " ".join(f"forall x{i}." for i in range(1, k + 1)) + " "
    + "|".join("[" + ",".join(l) + "]" for l in sorted(set(itertools.permutations("abb#"[:k]))))
    for k in (2, 3, 4)
]


@functools.cache
def completeness_sweep():
    """Seeded random universal and existential acceptors of arity 1..4:
    raw, closed (above arity 3 only where closures stay small), and closed
    under a subgroup only, which every generator but one may pass; plus
    both quantifier kinds of the arity-4 diagonal language."""
    rng = random.Random(29)
    sweep = []
    for k in range(1, 5):
        identity = tuple(range(1, k + 1))
        subgroups = [[identity, (2, 1) + identity[2:]],
                     [identity[r:] + identity[:r] for r in range(k)]]
        for q in (A, E):
            for i in range(10):
                nfh = oracles.random_nfh(rng, fixed_prefix=(q,) * k, max_states=1 + i % 3,
                                         density=(0.05, 0.15, 0.3)[i % 3])
                sweep.append(nfh)
                if i % 3 == 0 and (k < 4 or q is A):
                    close = canon.sequence_closure if q is A else canon.permutation_closure
                    sweep.append(close(nfh, max_k=4))
                if i % 3 == 1 and k > 1:
                    sweep += [hfa.Nfh(nfh.sigma, nfh.prefix, canon.selection_closure(nfh, g))
                              for g in subgroups]
    sweep += [compile_text(text) for text in REORDERING_CLOSED]
    sweep.append(compile_text(DIAGONAL_K4))
    sweep.append(compile_text(DIAGONAL_K4.replace("forall", "exists")))
    return [(nfh, canon.check_complete(nfh)) for nfh in sweep]


def ordered_scan(nfh):
    """Completeness report from one containment check per selection (or
    reordering) other than the identity, in lexicographic order."""
    k, alphabet = nfh.k, nfh.underlying.alphabet
    identity = tuple(range(1, k + 1))
    universal = nfh.fragment is Fragment.FORALL_ONLY
    base = pad_normalize(nfh.underlying, k)
    encodings = canon.zip_filter_fa(nfh.sigma, k)
    accepted = nfh.underlying.intersect(encodings)
    seqs = itertools.product(identity, repeat=k) if universal else itertools.permutations(identity)
    for seq in seqs:
        if seq == identity:
            continue
        piece = canon.sequence_remap(base, seq, alphabet)
        witness = (piece.contains(accepted) if universal
                   else nfh.underlying.contains(piece.intersect(encodings)))
        if witness is not None:
            return canon.CompletenessReport(False, (ZipWord(k, witness), IndexSequence(seq)))
    return canon.CompletenessReport(True, None)


def test_check_complete_agrees_with_the_brute_force_oracle():
    incomplete = 0
    for nfh, report in completeness_sweep():
        found = oracles.completeness_violation(nfh, 3 if nfh.k <= 2 else 2)
        if found is not None:
            assert not report.complete, (nfh, found)
        if not report.complete:
            incomplete += 1
            word, seq = report.counterexample
            words = oracles.oracle_unzip(word.letters, nfh.k)
            assert oracles.oracle_zip(words) == word.letters  # an exact encoding
            assert oracles.is_completeness_violation(nfh, words, seq.indices)
    assert 10 <= incomplete <= len(completeness_sweep()) - 10


def test_check_complete_reports_the_first_violation_of_an_ordered_scan():
    for nfh, report in completeness_sweep():
        if not report.complete:
            assert report == ordered_scan(nfh)


def test_check_complete_checks_only_generators_when_complete(monkeypatch):
    calls = []
    contains = Fa.contains
    monkeypatch.setattr(Fa, "contains", lambda self, other: calls.append(1) or contains(self, other))
    complete = [nfh for nfh, report in completeness_sweep() if report.complete]
    assert {nfh.k for nfh in complete} == {1, 2, 3, 4}
    for nfh in complete:
        calls.clear()
        assert canon.check_complete(nfh).complete
        universal = nfh.fragment is Fragment.FORALL_ONLY
        # a transposition, a k-cycle and, for selections, a map of rank
        # k - 1, less the identity and repeats: at most 3 checks, or 2
        assert len(calls) == {1: 0, 2: 1 + universal}.get(nfh.k, 2 + universal)
