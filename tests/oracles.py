"""Independent reference implementations backing the test suite.

Everything here is deliberately naive: transition-list scans instead of the
package's step tables, exhaustive assignment enumeration instead of
short-circuit recursion, permutation search for Hamiltonian cycles, and a
span-table matcher for expression ASTs. Nothing is shared with the package
beyond its public data types, so a bug would have to be made twice to hide.
"""

import itertools
import random
from typing import Iterable, Optional, Sequence

from hyperfa import hfa, hre
from hyperfa.fa import Fa
from hyperfa.zipwords import PAD, Letter, Word, all_letters

SIGMA_AB = ("a", "b")


# ---------------------------------------------------------------- zip oracle

def oracle_zip(words: Sequence[Word]) -> tuple[Letter, ...]:
    n = max((len(w) for w in words), default=0)
    return tuple(
        tuple(w[i] if i < len(w) else PAD for w in words) for i in range(n)
    )


def oracle_unzip(letters: Sequence[Letter], arity: int) -> tuple[Word, ...]:
    return tuple(
        tuple(l[t] for l in letters if l[t] != PAD) for t in range(arity)
    )


def oracle_is_legal(letters: Sequence[Letter], arity: int) -> bool:
    for t in range(arity):
        seen_pad = False
        for l in letters:
            if l[t] == PAD:
                seen_pad = True
            elif seen_pad:
                return False
    return True


# ------------------------------------------------------------- NFA simulator

def sim_accepts(fa: Fa, letters: Sequence) -> bool:
    # direct scan over the transition list, no precomputed tables
    current = set(fa.initial)
    for l in letters:
        current = {r for (q, sym, r) in fa.transitions if q in current and sym == l}
        if not current:
            return False
    return bool(current & set(fa.accepting))


def enumerate_language(fa: Fa, max_len: int) -> set[tuple]:
    out = set()
    for n in range(max_len + 1):
        for w in itertools.product(fa.alphabet, repeat=n):
            if sim_accepts(fa, w):
                out.add(w)
    return out


def first_difference(
    fa: Fa, other: Fa, max_len: int, step_ok=None
) -> Optional[tuple]:
    """Shortest word of length at most max_len that other accepts and fa
    rejects, least in letter order among those; with step_ok, only words
    whose consecutive letter pairs satisfy step_ok(previous_or_None, next).

    Every word is tried, length by length; a prefix is dropped only once no
    run of other survives it.
    """
    def run(a: Fa, states: set, l) -> set:
        return {r for (q, sym, r) in a.transitions if q in states and sym == l}

    letters = sorted({l for _q, l, _r in other.transitions})
    layer = [((), set(other.initial), set(fa.initial))]
    for n in range(max_len + 1):
        for word, mine, theirs in layer:
            if mine & other.accepting and not theirs & fa.accepting:
                return word
        if n == max_len:
            return None
        nxt = []
        for word, mine, theirs in layer:
            for l in letters:
                if step_ok is not None and not step_ok(word[-1] if word else None, l):
                    continue
                mine2 = run(other, mine, l)
                if mine2:
                    nxt.append((word + (l,), mine2, run(fa, theirs, l)))
        layer = nxt
    return None


def subset_dfa(fa: Fa) -> tuple:
    """fa_shape of the complete DFA built by a breadth-first subset
    construction over the letters in canonical order, by transition-list
    scans; subset i is the i-th found, and the empty subset is a state."""
    letters = sorted(fa.alphabet)
    subsets = [frozenset(fa.initial)]
    transitions = []
    for i, s in enumerate(subsets):  # grows while it is walked
        for l in letters:
            t = frozenset(r for (q, sym, r) in fa.transitions if q in s and sym == l)
            if t not in subsets:
                subsets.append(t)
            transitions.append((i, l, subsets.index(t)))
    accepting = frozenset(i for i, s in enumerate(subsets) if s & set(fa.accepting))
    return len(subsets), frozenset({0}), accepting, tuple(transitions)


def minimal_state_count(fa: Fa) -> int:
    """States of the minimal complete DFA of L(fa): subset_dfa, then
    pairwise table-filling."""
    letters = sorted(fa.alphabet)
    n, _initial, accepting, transitions = subset_dfa(fa)
    delta = {(q, l): r for q, l, r in transitions}
    final = [p in accepting for p in range(n)]
    apart = {(p, q) for p in range(n) for q in range(n) if final[p] != final[q]}
    changed = True
    while changed:
        changed = False
        for p in range(n):
            for q in range(n):
                if (p, q) not in apart and any(
                    (delta[(p, l)], delta[(q, l)]) in apart for l in letters
                ):
                    apart.add((p, q))
                    changed = True
    # one state per class: the first state of each class is apart from all before it
    return sum(1 for p in range(n) if all((p, q) in apart for q in range(p)))


def coreachable(transitions: Iterable[tuple], accepting: Iterable[int]) -> set[int]:
    """States with a path to an accepting state: rescan the transition list
    for a new predecessor until none appears."""
    live = set(accepting)
    grown = True
    while grown:
        before = len(live)
        live |= {q for (q, _letter, r) in transitions if r in live}
        grown = len(live) > before
    return live


def fa_shape(fa: Fa) -> tuple:
    """Everything that distinguishes two automata over the same alphabet."""
    return fa.n_states, fa.initial, fa.accepting, fa.transitions


# ------------------------------------------------------ brute-force semantics

def brute_member(nfh: hfa.Nfh, words: Iterable[Word]) -> bool:
    pool = sorted(set(tuple(w) for w in words))
    assert pool

    def rec(depth: int, chosen: tuple[Word, ...]) -> bool:
        if depth == nfh.k:
            return sim_accepts(nfh.underlying, oracle_zip(chosen))
        branches = (rec(depth + 1, chosen + (w,)) for w in pool)
        if nfh.prefix[depth] is hfa.Quantifier.EXISTS:
            return any(branches)
        return all(branches)

    return rec(0, ())


def all_words(sigma: Sequence[str], max_len: int) -> list[Word]:
    out: list[Word] = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product(sigma, repeat=n))
    return out


def all_hyperwords(
    sigma: Sequence[str], max_words: int, max_len: int
) -> list[tuple[Word, ...]]:
    words = all_words(sigma, max_len)
    out: list[tuple[Word, ...]] = []
    for size in range(1, max_words + 1):
        out.extend(itertools.combinations(words, size))
    return out


def brute_nonempty(
    nfh: hfa.Nfh, max_size: int, max_len: int
) -> Optional[tuple[Word, ...]]:
    for hw in all_hyperwords(nfh.sigma, max_size, max_len):
        if brute_member(nfh, hw):
            return hw
    return None


def least_selection_witness(
    a1: hfa.Nfh, a2: Optional[hfa.Nfh], max_len: int
) -> Optional[tuple[Word, ...]]:
    """First tuple x of words of length at most max_len, in the order of
    their zip encodings (length, then letters, '#' first), such that a1
    accepts every selection that reads its existential tracks as x and its
    other tracks as any words of x, and a2, if given, rejects every
    selection that reads its universal tracks as the words of x after a1's
    and its other tracks as any words of x.  x is one word when neither
    operand fixes a track.  Returns the sorted distinct words of x, or None.
    """
    m1 = sum(1 for q in a1.prefix if q is hfa.Quantifier.EXISTS)
    n2 = 0 if a2 is None else sum(1 for q in a2.prefix if q is hfa.Quantifier.FORALL)
    width = max(m1 + n2, 1)
    tuples = sorted(itertools.product(all_words(a1.sigma, max_len), repeat=width),
                    key=lambda x: (len(oracle_zip(x)), oracle_zip(x)))

    def verdicts(nfh: hfa.Nfh, fixed: hfa.Quantifier, x: tuple, first: int) -> list[bool]:
        choices, i = [], first
        for q in nfh.prefix:
            if q is fixed:
                choices.append([x[i]])
                i += 1
            else:
                choices.append(x)
        return [sim_accepts(nfh.underlying, oracle_zip(sel))
                for sel in itertools.product(*choices)]

    for x in tuples:
        if not all(verdicts(a1, hfa.Quantifier.EXISTS, x, 0)):
            continue
        if a2 is None or not any(verdicts(a2, hfa.Quantifier.FORALL, x, m1)):
            return tuple(sorted(set(x)))
    return None


# -------------------------------------------------------- completeness oracle

def completeness_violation(
    nfh: hfa.Nfh, max_len: int
) -> Optional[tuple[tuple[Word, ...], tuple[int, ...]]]:
    """First (x, seq) found, over tuples x of words of length at most
    max_len and 1-based track sequences seq other than the identity (every
    one for a universal acceptor, permutations for an existential one),
    that is_completeness_violation holds for; None if there is none."""
    k = nfh.k
    universal = nfh.prefix[0] is hfa.Quantifier.FORALL
    identity = tuple(range(1, k + 1))
    seqs = [seq for seq in (itertools.product(identity, repeat=k) if universal
                            else itertools.permutations(identity)) if seq != identity]
    verdicts: dict[tuple[Word, ...], bool] = {}

    def accepts(x: tuple[Word, ...]) -> bool:
        if x not in verdicts:
            verdicts[x] = sim_accepts(nfh.underlying, oracle_zip(x))
        return verdicts[x]

    for x in itertools.product(all_words(nfh.sigma, max_len), repeat=k):
        if accepts(x) is not universal:
            continue
        for seq in seqs:
            if accepts(tuple(x[i - 1] for i in seq)) is not universal:
                return x, seq
    return None


def is_completeness_violation(nfh: hfa.Nfh, x: Sequence[Word], seq: Sequence[int]) -> bool:
    """Whether the words x and the 1-based track sequence seq break
    completeness: a universal acceptor accepts the zip of x and rejects
    the zip of the words x[seq[0]-1], x[seq[1]-1], ...; an existential one
    rejects the zip of x and accepts that of its reordering through seq.
    Each side is zipped from its words here, so a selection never carries
    the trailing all-pad letters that the package's pad handling strips."""
    x, seq = tuple(x), tuple(seq)
    k = nfh.k
    if len(x) != k or len(seq) != k or not all(1 <= i <= k for i in seq):
        return False
    given = sim_accepts(nfh.underlying, oracle_zip(x))
    selected = sim_accepts(nfh.underlying, oracle_zip(tuple(x[i - 1] for i in seq)))
    if nfh.prefix[0] is hfa.Quantifier.FORALL:
        return given and not selected
    return sorted(seq) == list(range(1, k + 1)) and selected and not given


# --------------------------------------------------------- random instances

def random_nfh(
    rng: random.Random,
    sigma: Sequence[str] = SIGMA_AB,
    max_k: int = 2,
    max_states: int = 3,
    prefix_pool: Optional[Sequence[hfa.Quantifier]] = None,
    fixed_prefix: Optional[Sequence[hfa.Quantifier]] = None,
    density: float = 0.25,
) -> hfa.Nfh:
    if fixed_prefix is not None:
        prefix = tuple(fixed_prefix)
        k = len(prefix)
    else:
        k = rng.randint(1, max_k)
        pool = prefix_pool or (hfa.Quantifier.FORALL, hfa.Quantifier.EXISTS)
        prefix = tuple(rng.choice(pool) for _ in range(k))
    n = rng.randint(1, max_states)
    letters = all_letters(sigma, k)
    transitions = [
        (q, l, r)
        for q in range(n)
        for l in letters
        for r in range(n)
        if rng.random() < density
    ]
    initial = [q for q in range(n) if rng.random() < 0.5] or [0]
    accepting = [q for q in range(n) if rng.random() < 0.5]
    return hfa.make_nfh(sigma, prefix, n, initial, accepting, transitions)


def random_fa(rng: random.Random, sigma: Sequence[str], max_states: int, density: float) -> Fa:
    """Word automaton over sigma with 1..max_states states, each (state,
    symbol, state) edge drawn with chance density, and random nonempty
    initial and accepting sets; dead, unreachable and equivalent states
    stay in.  The Fa is only data: no package algorithm runs on it."""
    n = rng.randint(1, max_states)
    transitions = [(q, a, r) for q in range(n) for a in sigma for r in range(n)
                   if rng.random() < density]
    initial = [q for q in range(n) if rng.random() < 0.5] or [rng.randrange(n)]
    accepting = [q for q in range(n) if rng.random() < 0.5] or [rng.randrange(n)]
    return Fa(tuple(sigma), n, initial, accepting, transitions)


def random_word(rng: random.Random, sigma: Sequence[str], max_len: int) -> Word:
    return tuple(rng.choice(sigma) for _ in range(rng.randint(0, max_len)))


def trie_fa(words: Sequence[Word], sigma: Sequence[str]) -> Fa:
    """NFA accepting exactly the given finite set of words."""
    prefixes = {(): 0}
    transitions = []
    for w in sorted(set(words)):
        for i in range(1, len(w) + 1):
            p = w[:i]
            if p not in prefixes:
                prefixes[p] = len(prefixes)
                transitions.append((prefixes[w[: i - 1]], w[i - 1], prefixes[p]))
    accepting = {prefixes[tuple(w)] for w in words}
    return Fa(tuple(sigma), len(prefixes), {0}, accepting, transitions)


# ------------------------------------------------------- Hamiltonian oracle

def ham_cycle_through_v1(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    adj = set()
    for u, v in edges:
        adj.add((u, v))
        adj.add((v, u))
    for perm in itertools.permutations(range(2, n + 1)):
        tour = (1,) + perm + (1,)
        if all((tour[i], tour[i + 1]) in adj for i in range(n)):
            return True
    return False


def connected_graphs(n: int) -> list[list[tuple[int, int]]]:
    """Every connected simple graph on vertices 1..n, by edge-subset sweep."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    out = []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = [p for p, b in zip(pairs, bits) if b]
        adj = {v: set() for v in range(1, n + 1)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {1}
        stack = [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            out.append(edges)
    return out


def random_connected_graph(
    rng: random.Random, n: int, p: float
) -> list[tuple[int, int]]:
    """Random spanning tree on 1..n plus each remaining pair with chance p."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {
        tuple(sorted((order[i], rng.choice(order[:i])))) for i in range(1, n)
    }
    for pair in itertools.combinations(range(1, n + 1), 2):
        if pair not in edges and rng.random() < p:
            edges.add(pair)
    return sorted(edges)


# ----------------------------------------------------- span-table HRE matcher

def hre_match(node, letters: Sequence[Letter], sigma: Sequence[str]) -> bool:
    """Whether node matches the whole word.  Each subexpression's table, the
    set of spans (i, j) of the word that it matches, is computed once from
    the tables of its children, so the matcher is polynomial in the word
    length."""
    letters, sigma = tuple(letters), tuple(sigma)
    eps = {(i, i) for i in range(len(letters) + 1)}

    def spans(node) -> set[tuple[int, int]]:
        if isinstance(node, hre.Empty):
            return set()
        if isinstance(node, hre.Eps):
            return eps
        if isinstance(node, hre.TupleLetter):
            return {(i, i + 1) for i, letter in enumerate(letters)
                    if len(letter) == len(node.comps)
                    and all(_component_ok(c, s, sigma) for c, s in zip(node.comps, letter))}
        if isinstance(node, hre.Alt):
            return set().union(*map(spans, node.items))
        if isinstance(node, hre.Concat):
            table = eps
            for item in node.items:
                table = _compose(table, spans(item))
            return table
        if isinstance(node, (hre.Star, hre.Plus)):
            # X* is eps | X | XX | ..., and X+ is X X*, so it matches eps when X does
            item = spans(node.item)
            table = eps if isinstance(node, hre.Star) else item
            while True:
                grown = table | _compose(table, item)
                if grown == table:
                    return table
                table = grown
        raise TypeError(node)

    return (0, len(letters)) in spans(node)


def _compose(first: set, second: set) -> set:
    """Spans (i, j) split at some m into (i, m) from first and (m, j) from second."""
    return {(i, j) for i, m in first for m2, j in second if m == m2}


def _component_ok(comp, sym: str, sigma: tuple[str, ...]) -> bool:
    if isinstance(comp, hre.Sym):
        return sym == comp.name
    if isinstance(comp, hre.Pad):
        return sym == PAD
    if isinstance(comp, hre.Any):
        return sym in sigma
    if isinstance(comp, hre.NotSym):
        return sym in sigma and sym != comp.name
    raise TypeError(comp)
