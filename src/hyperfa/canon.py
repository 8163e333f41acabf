"""Canonical forms for alternation-free acceptors.

A universal acceptor is sequence-complete when acceptance of a zip encoding
implies acceptance of every track selection of it; an existential acceptor
is permutation-complete when acceptance of any track reordering implies
acceptance of the word itself.  Complete acceptors can be compared by
looking at underlying word languages only.

Raw underlying languages still differ in two inessential ways: trailing
all-pad letters and words that are not zip encodings at all.  The
equality test therefore compares closures intersected with the encoding
filter; completeness checks are likewise restricted to encodings.

Track-selection images are taken of the pad-normalized underlying
automaton.  A letterwise image re-pads to the original length; without
pad_normalize it would be compared against unpadded encodings, and the
closures would disagree with member on concrete instances.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import PreconditionViolated, WrongFragment
from .fa import Fa
from .hfa import Fragment, Nfh, _require_cap, pad_normalize
from .zipwords import PAD, IndexSequence, Letter, ZipWord, _Record, all_letters

DEFAULT_CLOSURE_MAX_K = 3


class CompletenessReport(_Record):
    """Fields complete (bool) and counterexample: None when complete, else a
    (ZipWord, IndexSequence) witness."""

    __slots__ = ("complete", "counterexample")


def sequence_remap(fa: Fa, seq: Sequence[int], alphabet: Sequence[Letter]) -> Fa:
    """Automaton accepting w iff fa accepts the letterwise selection of w
    through the 1-based track sequence seq."""
    picks = [i - 1 for i in seq]
    # itemgetter of one index returns the item itself, not a 1-tuple
    select = itemgetter(*picks) if len(picks) > 1 else itemgetter(slice(picks[0], picks[0] + 1))
    return fa.remap_letters(select, alphabet)


def selection_closure(nfh: Nfh, seqs: Iterable[Sequence[int]]) -> Fa:
    """Minimal DFA over k-tuples: the union (existential acceptor) or the
    intersection (otherwise) of the selections of the pad-normalized
    underlying automaton through each 1-based track sequence in seqs."""
    base = pad_normalize(nfh.underlying, nfh.k)
    use_union = nfh.fragment is Fragment.EXISTS_ONLY
    result: Optional[Fa] = None
    for seq in seqs:
        piece = sequence_remap(base, seq, nfh.underlying.alphabet)
        if result is not None:
            piece = result.union(piece) if use_union else result.intersect(piece)
        result = piece.minimize()
    assert result is not None
    return result


def zip_filter_fa(sigma: Iterable[str], k: int) -> Fa:
    """DFA of exact zip encodings: pad-monotone tracks, no all-pad letter."""
    sigma = tuple(sorted(set(sigma)))
    alphabet = all_letters(sigma, k)
    subsets = [frozenset(c) for size in range(k + 1) for c in
               itertools.combinations(range(k), size)]
    subsets = [s for s in subsets if len(s) < k]  # all-dead never occurs
    ids = {s: i for i, s in enumerate(subsets)}
    trans = []
    for s in subsets:
        for letter in alphabet:
            dead = frozenset(i for i, sym in enumerate(letter) if sym == PAD)
            if len(dead) == k or not s <= dead:
                continue
            trans.append((ids[s], letter, ids[dead]))
    # sorted and distinct: subsets in id order, letters in order, one target each
    return Fa._sorted(alphabet, len(subsets), [ids[frozenset()]], range(len(subsets)), trans)


def _all_sequences(k: int):
    return itertools.product(range(1, k + 1), repeat=k)


def sequence_closure(nfh: Nfh, max_k: int = DEFAULT_CLOSURE_MAX_K) -> Nfh:
    """Intersection over all k^k track selections; hyperlanguage unchanged."""
    if nfh.fragment is not Fragment.FORALL_ONLY:
        raise WrongFragment("sequence closure applies to universal acceptors")
    _require_cap(nfh.k, max_k)
    return Nfh(nfh.sigma, nfh.prefix, selection_closure(nfh, _all_sequences(nfh.k)))


def permutation_closure(nfh: Nfh, max_k: int = DEFAULT_CLOSURE_MAX_K) -> Nfh:
    """Union over all k! track reorderings; hyperlanguage unchanged."""
    if nfh.fragment is not Fragment.EXISTS_ONLY:
        raise WrongFragment("permutation closure applies to existential acceptors")
    _require_cap(nfh.k, max_k)
    perms = itertools.permutations(range(1, nfh.k + 1))
    return Nfh(nfh.sigma, nfh.prefix, selection_closure(nfh, perms))


def check_complete(nfh: Nfh, max_k: int = DEFAULT_CLOSURE_MAX_K + 1) -> CompletenessReport:
    """First completeness violation among zip encodings, if any.

    Universal case: some accepted w whose selection through seq is rejected.
    Existential case: some rejected w with an accepted reordering.  The
    violating side is always the returned word w itself, and seq is the
    first violating sequence in lexicographic order.

    Only generators are checked unless one fails: a transposition and a
    k-cycle generate the reorderings, and with a map of rank k - 1 all
    selections (Ganyushkin and Mazorchuk 2009).  That suffices as passing
    sequences compose.  Let A be the accepted exact encodings and B the
    pad-normalized language, which agrees with A on exact encodings and
    ignores trailing all-pad letters.  Take w in A whose selection v through
    s is in B.  v's tracks are pad-monotone, so v less its trailing all-pad
    letters is in A, and if t passes its selection through t, which is w's
    selection through the composite up to all-pad letters, is in B.  A
    reordering of an exact encoding is exact, so the existential case runs
    the same argument from B back to A.
    """
    frag = nfh.fragment
    if frag not in (Fragment.FORALL_ONLY, Fragment.EXISTS_ONLY):
        raise WrongFragment("completeness is defined for alternation-free acceptors")
    _require_cap(nfh.k, max_k)
    k = nfh.k
    alphabet = nfh.underlying.alphabet
    base = pad_normalize(nfh.underlying, k)
    encodings = zip_filter_fa(nfh.sigma, k)
    identity = tuple(range(1, k + 1))
    universal = frag is Fragment.FORALL_ONLY
    if universal:
        accepted = nfh.underlying.intersect(encodings)

    def violation(seq: tuple[int, ...]) -> Optional[tuple]:
        piece = sequence_remap(base, seq, alphabet)
        return (piece.contains(accepted) if universal
                else nfh.underlying.contains(piece.intersect(encodings)))

    rest = identity[2:]
    gens = {(2, 1) + rest, identity[1:] + (1,)} | ({(1, 1) + rest} if universal else set())
    for seq in sorted(gens - {identity}) if k > 1 else ():
        witness = violation(seq)
        if witness is not None:
            break
    else:
        return CompletenessReport(True, None)
    # seq violates, so the first violation is seq or a sequence before it
    for earlier in _all_sequences(k) if universal else itertools.permutations(identity):
        if identity != earlier < seq and (found := violation(earlier)) is not None:
            seq, witness = earlier, found
            break
    return CompletenessReport(False, (ZipWord(k, witness), IndexSequence(seq)))


def _canonical_fa(nfh: Nfh) -> Fa:
    closed = selection_closure(nfh, _all_sequences(nfh.k))
    return closed.intersect(zip_filter_fa(nfh.sigma, nfh.k)).minimize()


def canonical_equal(a1: Nfh, a2: Nfh, max_k: int = DEFAULT_CLOSURE_MAX_K) -> bool:
    """Hyperlanguage equality of two complete same-fragment acceptors.

    Each side is reduced to its set of accepted zip encodings closed under
    every track selection and minimized; ``Fa.minimize`` numbers its states
    canonically, so the two reductions are equal as automata exactly when
    their languages are.
    """
    if a1.fragment is not a2.fragment or a1.fragment not in (
        Fragment.FORALL_ONLY,
        Fragment.EXISTS_ONLY,
    ):
        raise WrongFragment("canonical equality needs matching alternation-free prefixes")
    if a1.k != a2.k or a1.sigma != a2.sigma:
        raise PreconditionViolated("canonical equality needs equal arity and alphabet")
    _require_cap(a1.k, max_k)
    for side in (a1, a2):
        if not check_complete(side, max_k=max_k).complete:
            raise PreconditionViolated("operand is not complete")
    c1, c2 = _canonical_fa(a1), _canonical_fa(a2)
    return (c1.n_states, c1.accepting, c1.transitions) == (
        c2.n_states, c2.accepting, c2.transitions
    )
