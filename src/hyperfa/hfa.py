"""Finite automata over sets of words (hyperwords).

An acceptor has k quantified word variables and an underlying NFA over
k-tuples of symbols (pad token included).  A hyperword S is accepted when
the quantifier prefix, ranging over S, is satisfied by zip-encoded
assignments.  Decision procedures cover the alternation-free fragments and
the exists*-forall* fragment.

The Boolean products in this module first pass the underlying automaton
through pad_normalize: acceptance of zip-encoded words is kept exactly,
while trailing all-pad letters stop mattering.  In union and intersect the
pad tail is what lets one side idle once its word tuple has ended.
"""

from __future__ import annotations

import enum
import itertools
import math
import re
from collections import defaultdict, deque
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import (
    AlphabetMismatch,
    EmptyRegularLanguage,
    FormatError,
    InvalidArity,
    InvalidGraph,
    InvalidInterleaving,
    ResourceLimit,
    Unsupported,
    WrongFragment,
)
from .fa import Fa, coreachable, reachable_product, subset_moves
from .zipwords import (
    MAX_LETTERS,
    PAD,
    Letter,
    Word,
    ZipWord,
    _Record,
    all_letters,
    check_symbol,
    parse_word,
    unzip,
    word_text,
)

DEFAULT_MAX_K = 4


class Quantifier(enum.Enum):
    FORALL = "A"
    EXISTS = "E"


class Fragment(enum.Enum):
    EXISTS_ONLY = "exists"
    FORALL_ONLY = "forall"
    EXISTS_FORALL = "exists-forall"
    OTHER = "other"


def classify(prefix: Sequence[Quantifier]) -> Fragment:
    kinds = set(prefix)
    if kinds == {Quantifier.EXISTS}:
        return Fragment.EXISTS_ONLY
    if kinds == {Quantifier.FORALL}:
        return Fragment.FORALL_ONLY
    m = 0
    while m < len(prefix) and prefix[m] is Quantifier.EXISTS:
        m += 1
    if m > 0 and all(q is Quantifier.FORALL for q in prefix[m:]):
        return Fragment.EXISTS_FORALL
    return Fragment.OTHER


class Hyperword(_Record):
    """Nonempty, deduplicated, canonically sorted set of plain words."""

    __slots__ = ("words",)

    def __init__(self, words: tuple[Word, ...]) -> None:
        object.__setattr__(self, "words", words)

    def _key(self) -> tuple:
        return (self.words,)

    @classmethod
    def of(cls, words: Iterable[Word]) -> "Hyperword":
        canon = tuple(sorted(set(tuple(w) for w in words)))
        if not canon:
            raise InvalidArity("a hyperword holds at least one word")
        for w in canon:
            for sym in w:
                check_symbol(sym)
        return cls(canon)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)


class Nfh:
    """k quantified word variables over an underlying tuple-letter NFA."""

    def __init__(self, sigma: Iterable[str], prefix: Sequence[Quantifier], underlying: Fa):
        self.sigma = tuple(sorted(set(sigma)))
        for sym in self.sigma:
            check_symbol(sym)
        self.prefix = tuple(prefix)
        if not self.prefix:
            raise InvalidArity("at least one quantifier is required")
        self.k = len(self.prefix)
        if underlying.alphabet != all_letters(self.sigma, self.k):
            raise AlphabetMismatch(
                "underlying alphabet must be every arity-k tuple over sigma plus pad"
            )
        self.underlying = underlying

    @cached_property
    def fragment(self) -> Fragment:
        return classify(self.prefix)

    def __repr__(self) -> str:
        pref = "".join(q.value for q in self.prefix)
        return f"Nfh(k={self.k}, sigma={self.sigma}, prefix={pref}, {self.underlying!r})"


def make_nfh(
    sigma: Iterable[str],
    prefix: Sequence[Quantifier],
    n_states: int,
    initial: Iterable[int],
    accepting: Iterable[int],
    transitions: Iterable[tuple[int, Letter, int]],
) -> Nfh:
    sigma = tuple(sorted(set(sigma)))
    prefix = tuple(prefix)
    alphabet = all_letters(sigma, len(prefix))
    return Nfh(sigma, prefix, Fa(alphabet, n_states, initial, accepting, transitions))


def _require_cap(k: int, max_k: int) -> None:
    if k > max_k:
        raise ResourceLimit(f"arity {k} exceeds the cap of {max_k}")


# ------------------------------------------------------------- pad handling


def pad_normalize(fa: Fa, arity: int) -> Fa:
    """Replace L with (L minus words containing an all-pad letter) . pads*.

    Agrees with L on every exact zip encoding and is insensitive to trailing
    all-pad letters, which makes letterwise track-selection images exact.
    """
    pad = (PAD,) * arity
    trans = [t for t in fa.transitions if t[1] != pad]
    tail = fa.n_states
    trans += [(q, pad, tail) for q in sorted(fa.accepting)]
    trans.append((tail, pad, tail))
    return Fa._sorted(fa.alphabet, tail + 1, fa.initial, fa.accepting | {tail}, sorted(trans))


def pad_accept(fa: Fa, arity: int) -> Fa:
    """Accept w whenever some w . pads^j is accepted (no new states)."""
    return Fa._sorted(fa.alphabet, fa.n_states, fa.initial, coreachable(fa, (PAD,) * arity),
                      fa.transitions)


# ---------------------------------------------------------------- semantics


# Above this many assignments of the innermost quantifier block, member
# decides that block by _search_member instead of enumerating it.  Below it,
# building the suffix automaton costs more than the enumeration it saves.
MEMBER_SEARCH_CUTOVER = 256


def member(nfh: Nfh, hw: Hyperword) -> bool:
    """Evaluate the quantifier prefix over hw with short-circuiting.

    An acceptor whose initial states reach no accepting state rejects at
    once.  Otherwise queries with at most MEMBER_SEARCH_CUTOVER assignments
    of the innermost quantifier block enumerate every assignment; larger
    ones go to _search_member.
    """
    for w in hw.words:
        for sym in w:
            if sym not in nfh.sigma:
                raise AlphabetMismatch(f"hyperword symbol {sym!r} outside sigma")
    underlying = nfh.underlying
    if underlying._live.isdisjoint(underlying.initial):
        return False  # no run accepts, and hw has a word for every quantifier
    words = hw.words
    prefix = nfh.prefix
    k = nfh.k
    # |S|^k bounds the block's count, so small queries skip the prefix scan
    if len(words) ** k > MEMBER_SEARCH_CUTOVER:
        outer = k - 1
        while outer > 0 and prefix[outer - 1] is prefix[-1]:
            outer -= 1
        if len(words) ** (k - outer) > MEMBER_SEARCH_CUTOVER:
            return _search_member(nfh, words, outer)

    # a chosen tuple is run letter by letter on words padded to a common
    # width, through the subset tables the underlying automaton memoizes
    tables = underlying._tables
    out = underlying._out
    accepting = underlying.accepting
    width = max(map(len, words))
    padded = {w: w + (PAD,) * (width - len(w)) for w in words}

    def rec(i: int, chosen: tuple[Word, ...]) -> bool:
        if i == k:
            states = underlying.initial
            letters = zip(*(padded[w] for w in chosen))
            for _ in range(max(map(len, chosen))):
                table = tables.get(states)
                if table is None:
                    moves = subset_moves(out, states)
                    table = tables.setdefault(states, {a: frozenset(ts) for a, ts in moves.items()})
                states = table.get(next(letters))
                if states is None:
                    return False
            return not accepting.isdisjoint(states)
        if prefix[i] is Quantifier.EXISTS:
            return any(rec(i + 1, chosen + (w,)) for w in words)
        return all(rec(i + 1, chosen + (w,)) for w in words)

    return rec(0, ())


class _Subsets:
    """The subset construction of the automaton whose state q has the
    (letter, target) edges out.get(q, ()), built lazily: of(states) interns
    a frozenset of states as an id, sets[id] reads it back, and table(id)
    maps each letter the subset reads to its successor's id."""

    def __init__(self, out):
        self._out = out
        self._ids: dict[frozenset[int], int] = {}
        self.sets: list[frozenset[int]] = []
        self._tables: list[Optional[dict]] = []

    def of(self, states: frozenset[int]) -> int:
        r = self._ids.get(states)
        if r is None:
            r = self._ids[states] = len(self.sets)
            self.sets.append(states)
            self._tables.append(None)
        return r

    def table(self, r: int) -> dict:
        table = self._tables[r]
        if table is None:
            moves = subset_moves(self._out, self.sets[r])
            table = self._tables[r] = {a: self.of(frozenset(ts)) for a, ts in moves.items()}
        return table


def _search_member(nfh: Nfh, words: Sequence[Word], outer: int) -> bool:
    """member with the innermost quantifier block, tracks outer..k-1, decided
    by _block_search for each assignment of the outer tracks."""
    # S's suffix automaton: suffix 0 is the empty word, which reads pad for
    # good; s > 0 reads one (symbol, tail) edge
    ids: dict[tuple[str, int], int] = {}
    starts = []
    for w in words:
        s = 0
        for sym in reversed(w):
            s = ids.setdefault((sym, s), len(ids) + 1)
        starts.append(s)
    tracks = _Subsets({0: ((PAD, 0),), **{s: (edge,) for edge, s in ids.items()}})
    prefix = nfh.prefix
    inner = (tracks.of(frozenset(starts)),) * (nfh.k - outer)
    exists = prefix[-1] is Quantifier.EXISTS

    def rec(i: int, chosen: tuple[int, ...]) -> bool:
        if i == outer:
            return _block_search(nfh.underlying, tracks, chosen + inner, exists)
        branches = (rec(i + 1, chosen + (tracks.of(frozenset((s,))),)) for s in starts)
        if prefix[i] is Quantifier.EXISTS:
            return any(branches)
        return all(branches)

    return rec(0, ())


def _block_search(fa: Fa, tracks: _Subsets, start: tuple[int, ...], exists: bool) -> bool:
    """Decide one quantifier block by a search of configurations.

    A configuration is (subset of fa states, subset of each track's word
    automaton), both as ids interned by a _Subsets; start holds a fixed
    track's word and a quantified track's whole set.  A track's word
    automaton ends each word by a pad edge into a state that reads only
    pad, so letters are read as in zip encodings, and the all-pad letter is
    never read.  At a configuration where every track can read pad, the
    subset decides the assignment it spells.  For EXISTS the block holds iff
    some such subset meets the accepting states.  For FORALL it fails iff
    some such subset misses them, or some letter the tracks can read has no
    transition from the subset (each track can still complete its word).
    """
    subsets = _Subsets(fa._out)
    accepting = fa.accepting
    all_pad = (PAD,) * len(start)
    first = (subsets.of(fa.initial), start)
    seen = {first}
    stack = [first]
    while stack:
        s, res = stack.pop()
        tables = [tracks.table(r) for r in res]
        can_end = all(PAD in t for t in tables)
        if can_end and accepting.isdisjoint(subsets.sets[s]) is not exists:
            return exists  # a witness for EXISTS, a counterexample for FORALL
        n_succ = 0
        for letter, nxt_s in subsets.table(s).items():
            try:
                nxt = tuple([t[sym] for t, sym in zip(tables, letter)])
            except KeyError:
                continue
            if letter == all_pad:
                continue
            n_succ += 1
            node = (nxt_s, nxt)
            if node not in seen:
                seen.add(node)
                stack.append(node)
        if not exists and n_succ < math.prod(len(t) for t in tables) - can_end:
            return False
    return not exists


# ----------------------------------------------------------- Boolean closure


def complement(nfh: Nfh, max_k: int = DEFAULT_MAX_K) -> Nfh:
    """Dualize the prefix and complement the underlying automaton."""
    _require_cap(nfh.k, max_k)
    flipped = tuple(
        Quantifier.EXISTS if q is Quantifier.FORALL else Quantifier.FORALL
        for q in nfh.prefix
    )
    return Nfh(nfh.sigma, flipped, nfh.underlying.complement())


def union(a1: Nfh, a2: Nfh, max_k: int = DEFAULT_MAX_K) -> Nfh:
    """Fan both pad-normalized underlying automata out over the combined
    tuple alphabet.

    Each side keeps running on its own components; its pad tail lets the
    side that accepted first idle while the other still reads symbols.
    """
    if a1.sigma != a2.sigma:
        raise AlphabetMismatch("union requires identical alphabets")
    k = a1.k + a2.k
    _require_cap(k, max_k)
    n1 = pad_normalize(a1.underlying, a1.k)
    n2 = pad_normalize(a2.underlying, a2.k)
    side1 = all_letters(a1.sigma, a1.k)
    side2 = all_letters(a1.sigma, a2.k)
    off = n1.n_states
    trans = [(q, l + t, r) for q, l, r in n1.transitions for t in side2]
    trans += [(q + off, t + l, r + off) for q, l, r in n2.transitions for t in side1]
    underlying = Fa(
        all_letters(a1.sigma, k),
        off + n2.n_states,
        [*n1.initial, *(q + off for q in n2.initial)],
        [*n1.accepting, *(q + off for q in n2.accepting)],
        trans,
    )
    return Nfh(a1.sigma, a1.prefix + a2.prefix, underlying)


def _merge_pattern(k1: int, k2: int, interleaving: Optional[Sequence[int]]) -> tuple[int, ...]:
    if interleaving is None:
        return (0,) * k1 + (1,) * k2
    pattern = tuple(interleaving)
    if sorted(pattern) != [0] * k1 + [1] * k2:
        raise InvalidInterleaving(
            f"pattern {pattern!r} must contain {k1} zeros and {k2} ones"
        )
    return pattern


def intersect(
    a1: Nfh,
    a2: Nfh,
    interleaving: Optional[Sequence[int]] = None,
    max_k: int = DEFAULT_MAX_K,
) -> Nfh:
    """Reachable synchronous product of the pad-normalized underlying
    automata; a side whose word tuple has ended reads pad blocks in its pad
    tail, and the all-pad letter is never read.

    interleaving is a 0/1 pattern (default: all of a1 then all of a2) saying
    which side each combined variable comes from; both internal orders are
    preserved.
    """
    if a1.sigma != a2.sigma:
        raise AlphabetMismatch("intersection requires identical alphabets")
    k = a1.k + a2.k
    _require_cap(k, max_k)
    pattern = _merge_pattern(a1.k, a2.k, interleaving)
    # merge reorders l1 + l2: each combined variable takes its side's next one
    sides = (iter(range(a1.k)), iter(range(a1.k, k)))
    merge = itemgetter(*(next(sides[side]) for side in pattern))
    n1 = pad_normalize(a1.underlying, a1.k)
    n2 = pad_normalize(a2.underlying, a2.k)
    all_pad = (PAD,) * k

    def moves(q: int, p: int) -> list[tuple[Letter, int, int]]:
        edges2 = n2._edges(p)
        return [(merge(l), q2, p2) for _q, l1, q2 in n1._edges(q)
                for _p, l2, p2 in edges2 if (l := l1 + l2) != all_pad]

    underlying = reachable_product(n1, n2, all_letters(a1.sigma, k), moves)
    return Nfh(a1.sigma, merge(a1.prefix + a2.prefix), underlying)


# -------------------------------------------------------------- nonemptiness


def nonempty_exists(nfh: Nfh) -> Optional[Hyperword]:
    """Least witness for a purely existential acceptor (see nonempty_exists_forall), or None."""
    if nfh.fragment is not Fragment.EXISTS_ONLY:
        raise WrongFragment("nonempty_exists needs a purely existential prefix")
    return _selection_search(nfh)


def nonempty_forall(nfh: Nfh) -> Optional[Hyperword]:
    """Witness singleton for a purely universal acceptor, or None; its word
    is the shortest, and first in letter order among the shortest."""
    if nfh.fragment is not Fragment.FORALL_ONLY:
        raise WrongFragment("nonempty_forall needs a purely universal prefix")
    return _selection_search(nfh)


def nonempty_exists_forall(nfh: Nfh, max_k: int = DEFAULT_MAX_K) -> Optional[Hyperword]:
    """Witness for an exists^m forall^(k-m) acceptor, or None: the shortest
    words x, first in letter order among the shortest.  Only E+A+ is capped."""
    if nfh.fragment is Fragment.OTHER:
        raise WrongFragment("prefix is not of the exists*-forall* shape")
    if nfh.fragment is Fragment.EXISTS_FORALL:
        _require_cap(nfh.k, max_k)
    return _selection_search(nfh)


def _selection_search(a1: Nfh, a2: Optional[Nfh] = None) -> Optional[Hyperword]:
    """The shortest words x, first in letter order among the shortest, that
    a1 accepts with its existentials as x and, given a2, a2 rejects with its
    universals as x; None when there are none.

    x is a1's existential words then a2's universal words, or one word when
    there are none.  Each run reads one choice of a word of x for each other
    track, and an all-pad letter leaves it as it is.  A run of a1 needs one
    accepting path, so it holds one state; a run of a2 holds a subset.  A
    node is (the ended tracks of x as a bitmask, the runs of a2, the runs of
    a1).  The nodes first reached by one word share its ended tracks and
    runs of a2; they are expanded together, letter by letter in letter
    order, so the first node where every run of a1 and none of a2 accepts
    spells the least x.  The letters of x follow the edges of a1's first
    run, with every symbol on the tracks of x that it does not read.
    """
    m1 = a1.prefix.count(Quantifier.EXISTS)
    m = m1 + (a2.prefix.count(Quantifier.FORALL) if a2 is not None else 0)
    width, head = max(m, 1), max(m1, 1)  # a1's first run reads x's head tracks
    # each operand with the words of x its fixed tracks read
    operands = [(a1, range(m1))] + ([(a2, range(m1, m))] if a2 is not None else [])
    n_runs = [width ** (o.k - len(fixed)) for o, fixed in operands]
    size = (len(a1.sigma) + 1) ** (width - head) * sum(n_runs)
    if size > MAX_LETTERS:
        raise ResourceLimit(
            f"selection alphabet of {size} letters exceeds the cap of {MAX_LETTERS}")
    sels = [(*fixed, *tail) for o, fixed in operands  # each run's tracks of x
            for tail in itertools.product(range(width), repeat=o.k - len(fixed))]
    fa1, fa2, n1 = a1.underlying, (a2 or a1).underlying, n_runs[0]  # no a2, no runs of a2
    fills = list(itertools.product((PAD, *a1.sigma), repeat=width - head))
    moves: dict[int, list] = {}  # a state of a1's first run -> letters_from(it)

    def letters_from(q: int) -> list[tuple[Letter, int, int, list[Optional[Letter]]]]:
        """(x, the first run's next state, x's pad tracks as a bitmask, each
        other run's letter or None if all-pad) for each letter x from q."""
        found = [(l[:head] + f, r) for l, r in fa1._out.get(q, ()) if l.count(PAD) < a1.k
                 and l[head:] == (l[0],) * (a1.k - head) for f in fills]
        found += [((PAD,) * head + f, q) for f in fills[1:]]  # idles; fills[0] is all-pad
        return [(x, r, sum(1 << i for i, s in enumerate(x) if s == PAD), [
            None if all(x[i] == PAD for i in sel) else tuple([x[i] for i in sel])
            for sel in sels[1:]]) for x, r in found]

    def accepted(rights: tuple[frozenset[int], ...], lefts: set[tuple[int, ...]]) -> bool:
        return fa2.accepting.isdisjoint(itertools.chain(*rights)) and any(
            map(fa1.accepting.issuperset, lefts))

    rights = (fa2.initial,) * (len(sels) - n1)
    lefts = set(itertools.product(sorted(fa1.initial), repeat=n1))
    if accepted(rights, lefts):
        return Hyperword.of([()])
    seen: defaultdict[tuple, set] = defaultdict(set, {(0, rights): lefts})
    queue = deque([((), 0, rights, lefts)])
    while queue:
        word, ended, rights, lefts = queue.popleft()
        succ: dict[Letter, tuple[int, list, set]] = {}  # x -> its info and nodes
        for states in lefts:
            if states[0] not in moves:
                moves[states[0]] = letters_from(states[0])
            for x, r, now_ended, letters in moves[states[0]]:
                if now_ended & ended == ended:
                    succ.setdefault(x, (now_ended, letters, set()))[2].update(itertools.product(
                        (r,), *[(s,) if l is None else fa1._step.get((s, l), ())
                                for s, l in zip(states[1:], letters)]))
        for x in sorted(succ):
            now_ended, letters, nodes = succ[x]
            nxt = tuple([s if l is None else fa2.step(s, l)
                         for s, l in zip(rights, letters[n1 - 1:])])
            new = nodes - seen[now_ended, nxt]
            if new:
                if accepted(nxt, new):
                    return Hyperword.of(unzip(ZipWord(width, word + (x,))))
                seen[now_ended, nxt] |= new
                queue.append((word + (x,), now_ended, nxt, new))
    return None


# -------------------------------------------------- regular-language queries


def regular_member(lang: Fa, nfh: Nfh, max_k: int = DEFAULT_MAX_K) -> bool:
    """Decide whether the whole regular language L(lang) is accepted.

    The outermost quantifier block is one _block_search, every track on
    lang's live states.  As L's words cannot be listed, the tracks inside
    it are first projected away, innermost first, through lang with a pad
    tail and closed under trailing pads.  The automaton stands for the rest
    of the formula, or its negation under a universal, and is minimized and
    complemented only where the quantifier kind changes.
    """
    if tuple(sorted(lang.alphabet)) != nfh.sigma:
        raise AlphabetMismatch("regular language and acceptor declare different alphabets")
    live = lang._live  # trims lang: the tracks hold only live states
    if live.isdisjoint(lang.initial):
        raise EmptyRegularLanguage("membership of the empty language is undefined")
    _require_cap(nfh.k, max_k)
    prefix = nfh.prefix
    m = 1  # tracks of the outermost block
    while m < nfh.k and prefix[m] is prefix[0]:
        m += 1
    current, negated = nfh.underlying, False
    if m < nfh.k:
        padded = pad_normalize(lang.remap_letters(lambda l: l[0], all_letters(nfh.sigma, 1)), 1)
        current = pad_normalize(current, nfh.k)
    for k in range(nfh.k, m, -1):
        if negated is not (prefix[k - 1] is Quantifier.FORALL):
            dfa = current.minimize()  # complete, so flipping acceptance complements it
            current = Fa._sorted(dfa.alphabet, dfa.n_states, dfa.initial,
                                 set(range(dfa.n_states)) - dfa.accepting, dfa.transitions)
            negated = not negated
        current = _project_track(current, padded, nfh.sigma, k)
    end = lang.n_states  # a word ends by a pad edge into end, which reads only pad
    out = {q: [(a, r) for a, r in lang._out.get(q, ()) if r in live] for q in live}
    for q in lang.accepting & live:
        out[q].append((PAD, end))
    out[end] = [(PAD, end)]
    tracks = _Subsets(out)
    start = (tracks.of(lang.initial & live),) * m
    # a block over a negation holds iff the dual block over it fails
    exists = (prefix[0] is Quantifier.EXISTS) is not negated
    return _block_search(current, tracks, start, exists) is not negated


def _project_track(current: Fa, padded: Fa, sigma: tuple[str, ...], k: int) -> Fa:
    """Pair runs of current with padded runs on the last component, then
    emit the remaining components; closed under trailing pads."""
    step = padded._step

    def moves(q: int, p: int) -> list[tuple[Letter, int, int]]:
        # dropping the last component can repeat a step
        return list(dict.fromkeys((l[:-1], q2, p2) for _q, l, q2 in current._edges(q)
                                  for p2 in step.get((p, l[-1:]), ())))

    return pad_accept(reachable_product(current, padded, all_letters(sigma, k - 1), moves), k - 1)


# --------------------------------------------------- containment/equivalence


def contains(a1: Nfh, a2: Nfh, max_k: int = DEFAULT_MAX_K) -> Optional[Hyperword]:
    """None iff every hyperword of a1 is one of a2; otherwise a witness
    accepted by a1 only, the shortest and first in letter order among the
    shortest.  Supported pairs: a1 in {exists, forall, exists-forall}, a2 in
    forall*-exists*, which is searched along with a1 and never complemented.
    """
    if a1.sigma != a2.sigma:
        raise AlphabetMismatch("containment requires identical alphabets")
    f1 = a1.fragment
    if f1 is Fragment.OTHER:
        raise Unsupported(f"left argument fragment {f1.value} is not supported")
    pref = "".join(q.value for q in a2.prefix)
    if not re.fullmatch("A*E*", pref):
        raise Unsupported(f"right argument prefix {pref} is not forall*-exists*")
    _require_cap(a1.k + a2.k, max_k)
    return _selection_search(a1, a2)


def equivalent(
    a1: Nfh, a2: Nfh, max_k: int = DEFAULT_MAX_K
) -> Optional[tuple[Hyperword, str]]:
    """None iff both accept the same hyperwords; otherwise a separating
    hyperword tagged "left_only" or "right_only"."""
    for side in (a1, a2):
        if side.fragment not in (Fragment.EXISTS_ONLY, Fragment.FORALL_ONLY):
            raise Unsupported("equivalence needs alternation-free arguments")
    witness = contains(a1, a2, max_k=max_k)
    if witness is not None:
        return witness, "left_only"
    witness = contains(a2, a1, max_k=max_k)
    if witness is not None:
        return witness, "right_only"
    return None


# --------------------------------------------------------------- reductions


def gen_hamiltonian(n: int, edges: Iterable[tuple[int, int]]) -> tuple[Nfh, Hyperword]:
    """Instance whose membership holds iff the graph has a Hamiltonian cycle.

    Vertices are 1..n; edges are undirected.  The acceptor has one
    existential variable and one indicator word per vertex; an accepting run
    walks edges and consumes, at step j, the letter marking the vertex it
    leaves, so accepted assignments are exactly cyclic vertex orderings.
    """
    if n < 2:
        raise InvalidGraph("need at least two vertices")
    if n * n > MAX_LETTERS:
        raise ResourceLimit(f"n^2 = {n * n} indicator symbols exceed the cap of {MAX_LETTERS}")
    edge_list = []
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise InvalidGraph(f"edge ({u},{v}) outside 1..{n}")
        edge_list.append((u, v))
    sigma = ("0", "1")

    def mark(i: int) -> Letter:
        return tuple("1" if j == i else "0" for j in range(1, n + 1))

    trans = set()
    for u, v in edge_list:
        trans.add((u - 1, mark(u), v - 1))
        trans.add((v - 1, mark(v), u - 1))
    nfh = make_nfh(sigma, (Quantifier.EXISTS,) * n, n, [0], [0], trans)
    return nfh, Hyperword.of(mark(i) for i in range(1, n + 1))


# ------------------------------------------------------------- wire formats


_HEADER_RE = re.compile(r"nfh k=([0-9]+) sigma=(\S+) prefix=([AE]+)\Z")


def is_ascii_number(text: str) -> bool:
    """Whether text is a run of ASCII digits: str.isdigit also accepts '²'
    and '٣', which int() rejects or reads as 3."""
    return text.isascii() and text.isdigit()


def format_nfh(nfh: Nfh) -> str:
    lines = [
        f"nfh k={nfh.k} sigma={','.join(nfh.sigma)} "
        f"prefix={''.join(q.value for q in nfh.prefix)}"
    ]
    u = nfh.underlying
    for q in range(u.n_states):
        flags = ""
        if q in u.initial:
            flags += " init"
        if q in u.accepting:
            flags += " accept"
        lines.append(f"state {q}{flags}")
    for q, letter, r in u.transitions:
        lines.append(f"trans {q} ({','.join(letter)}) {r}")
    return "\n".join(lines) + "\n"


def parse_nfh(text: str) -> Nfh:
    lines = [ln.strip() for ln in text.split("\n")]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise FormatError("empty acceptor text")
    header = _HEADER_RE.match(lines[0])
    if not header:
        raise FormatError(f"bad header line {lines[0]!r}")
    sigma = tuple(header.group(2).split(","))
    prefix = tuple(Quantifier(c) for c in header.group(3))
    k = len(prefix)
    if header.group(1).lstrip("0") != str(k):
        raise FormatError("prefix length disagrees with k")
    bound = 2 * (len(lines) - 1)

    def state_id(number: str) -> int:
        # sized before int(), which rejects strings of over 4,300 digits
        q = int(number) if len(number.lstrip("0")) <= len(str(bound)) else bound
        if q >= bound:
            raise FormatError(f"state id {number.lstrip('0')} is not below {bound}, "
                              "twice the number of state and transition lines")
        return q

    n_states = 0
    initial: list[int] = []
    accepting: list[int] = []
    transitions: list[tuple[int, Letter, int]] = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "state":
            if len(parts) < 2 or not is_ascii_number(parts[1]):
                raise FormatError(f"bad state line {ln!r}")
            q = state_id(parts[1])
            n_states = max(n_states, q + 1)
            for flag in parts[2:]:
                if flag == "init":
                    initial.append(q)
                elif flag == "accept":
                    accepting.append(q)
                else:
                    raise FormatError(f"unknown state flag {flag!r}")
        elif parts[0] == "trans":
            if len(parts) != 4 or not (is_ascii_number(parts[1]) and is_ascii_number(parts[3])):
                raise FormatError(f"bad transition line {ln!r}")
            if not (parts[2].startswith("(") and parts[2].endswith(")")):
                raise FormatError(f"bad letter in {ln!r}")
            letter = tuple(parts[2][1:-1].split(","))
            if len(letter) != k:
                raise FormatError(f"letter arity mismatch in {ln!r}")
            q, r = state_id(parts[1]), state_id(parts[3])
            n_states = max(n_states, q + 1, r + 1)
            transitions.append((q, letter, r))
        else:
            raise FormatError(f"unknown directive {parts[0]!r}")
    try:
        return make_nfh(sigma, prefix, n_states, initial, accepting, transitions)
    except (AlphabetMismatch, InvalidArity) as exc:
        raise FormatError(str(exc)) from exc


def uses_multichar(sigma: Iterable[str]) -> bool:
    return any(len(s) > 1 for s in sigma)


def format_hyperword(hw: Hyperword, sigma: Iterable[str]) -> str:
    multi = uses_multichar(sigma)
    return "\n".join(word_text(w, multi) for w in hw.words) + "\n"


def parse_hyperword(text: str, sigma: Iterable[str]) -> Hyperword:
    sigma = tuple(sorted(set(sigma)))
    multi = uses_multichar(sigma)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    words = [parse_word(ln, multi) for ln in lines]
    hw = Hyperword.of(words)
    for w in hw.words:
        for sym in w:
            if sym not in sigma:
                raise AlphabetMismatch(f"word symbol {sym!r} outside sigma")
    return hw
