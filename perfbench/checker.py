"""Independent checker for the benchmark's outputs.

Standard library only; it imports neither the package under test nor the
test suite, so a wrong verdict would have to be made twice to pass.  It
works on plain data: an acceptor is an ``Acc`` tuple, a word is a tuple of
symbol strings, a hyperword is a tuple of words and a DFA is a ``Dfa``.

Nothing here is timed: the benchmark calls it after the measured window.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import NamedTuple, Optional, Sequence

PAD = "#"

Word = tuple
Letter = tuple


class Acc(NamedTuple):
    """Quantified acceptor: prefix is a string of 'A'/'E', one per track."""

    sigma: tuple
    prefix: str
    n_states: int
    initial: frozenset
    accepting: frozenset
    transitions: tuple  # of (q, letter tuple, r)

    @property
    def k(self) -> int:
        return len(self.prefix)


class Dfa(NamedTuple):
    """Complete DFA: delta[q][i] is the successor of q on letters[i]."""

    letters: tuple
    delta: tuple
    initial: int
    accepting: frozenset


# ------------------------------------------------------------ simulation


def zip_letters(words: Sequence[Word]) -> tuple:
    n = max((len(w) for w in words), default=0)
    return tuple(tuple(w[i] if i < len(w) else PAD for w in words) for i in range(n))


def _outgoing(transitions) -> dict:
    out: dict = {}
    for q, letter, r in transitions:
        out.setdefault(q, []).append((letter, r))
    return out


class Nfa:
    """Word acceptance by scanning each current state's transition list."""

    def __init__(self, transitions, initial, accepting):
        self._out = _outgoing(transitions)
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)

    def accepts(self, word: Sequence) -> bool:
        current = self.initial
        for a in word:
            current = {r for q in current for sym, r in self._out.get(q, ()) if sym == a}
            if not current:
                return False
        return bool(current & self.accepting)


class Evaluator:
    """Brute-force quantified membership for one acceptor.

    Acceptance of a word tuple is found by scanning each current state's
    transition list; results are memoized per word tuple, so a sweep of
    many hyperwords over the same words pays for each tuple once.
    """

    def __init__(self, acc: Acc):
        self.acc = acc
        self.nfa = Nfa(acc.transitions, acc.initial, acc.accepting)
        self._memo: dict = {}

    def accepts_tuple(self, words: tuple) -> bool:
        hit = self._memo.get(words)
        if hit is None:
            hit = self._memo[words] = self.nfa.accepts(zip_letters(words))
        return hit

    def member(self, hyperword: Sequence[Word]) -> bool:
        pool = sorted(set(tuple(w) for w in hyperword))
        if not pool:
            raise ValueError("a hyperword holds at least one word")
        prefix = self.acc.prefix

        def rec(depth: int, chosen: tuple) -> bool:
            if depth == len(prefix):
                return self.accepts_tuple(chosen)
            branches = (rec(depth + 1, chosen + (w,)) for w in pool)
            return any(branches) if prefix[depth] == "E" else all(branches)

        return rec(0, ())


def all_words(sigma: Sequence[str], max_len: int) -> list:
    out: list = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product(sigma, repeat=n))
    return out


def all_hyperwords(sigma: Sequence[str], max_words: int, max_len: int) -> list:
    words = all_words(sigma, max_len)
    out: list = []
    for size in range(1, max_words + 1):
        out.extend(itertools.combinations(words, size))
    return out


def brute_nonempty(acc: Acc, max_words: int, max_len: int) -> Optional[tuple]:
    """First accepted hyperword within the size and length bounds, or None."""
    ev = Evaluator(acc)
    for hw in all_hyperwords(acc.sigma, max_words, max_len):
        if ev.member(hw):
            return hw
    return None


# ------------------------------------------------------------ Hamiltonian


def held_karp(n: int, edges) -> bool:
    """Hamiltonian cycle on vertices 1..n, by dynamic programming over
    (visited set, endpoint) for paths that start at vertex 1."""
    adj = [[False] * n for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u - 1][v - 1] = adj[v - 1][u - 1] = True
    if n == 1:
        return False
    if n == 2:
        return adj[0][1]
    full = (1 << n) - 1
    reach = [0] * (1 << n)  # bitmask of endpoints reachable with that visited set
    reach[1] = 1
    for visited in range(1, full + 1):
        ends = reach[visited]
        if not ends or not visited & 1:
            continue
        for v in range(n):
            if ends >> v & 1:
                for w in range(n):
                    if adj[v][w] and not visited >> w & 1:
                        reach[visited | 1 << w] |= 1 << w
    return any(reach[full] >> v & 1 and adj[v][0] for v in range(1, n))


# ---------------------------------------------------------------- DFAs


def dfa_accepts(dfa: Dfa, word: Sequence) -> bool:
    q = dfa.initial
    for a in word:
        q = dfa.delta[q][dfa.letters.index(a)]
    return q in dfa.accepting


def minimal_state_count(dfa: Dfa) -> int:
    """States of the minimal complete DFA: Moore partition refinement of
    the reachable part, iterated until the number of classes is stable."""
    seen = {dfa.initial}
    queue = deque([dfa.initial])
    while queue:
        q = queue.popleft()
        for r in dfa.delta[q]:
            if r not in seen:
                seen.add(r)
                queue.append(r)
    states = sorted(seen)
    cls = {q: int(q in dfa.accepting) for q in states}
    count = len(set(cls.values()))
    while True:
        sigs: dict = {}
        new = {}
        for q in states:
            sig = (cls[q],) + tuple(cls[r] for r in dfa.delta[q])
            new[q] = sigs.setdefault(sig, len(sigs))
        if len(sigs) == count:
            return count
        cls, count = new, len(sigs)


def shortest_product_length(a: Dfa, b: Dfa) -> Optional[int]:
    """Length of a shortest word accepted by both DFAs, by BFS over pairs."""
    start = (a.initial, b.initial)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        p, q = queue.popleft()
        if p in a.accepting and q in b.accepting:
            return dist[(p, q)]
        for i in range(len(a.letters)):
            nxt = (a.delta[p][i], b.delta[q][i])
            if nxt not in dist:
                dist[nxt] = dist[(p, q)] + 1
                queue.append(nxt)
    return None


# ------------------------------------------------------- text formats


def parse_acceptor(text: str) -> Acc:
    """Read the acceptor wire format (header, state and trans lines)."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    head = dict(field.split("=", 1) for field in lines[0][1:])
    if lines[0][0] != "nfh" or len(head["prefix"]) != int(head["k"]):
        raise ValueError(f"bad acceptor header {lines[0]!r}")
    initial, accepting, transitions = set(), set(), []
    n = 0
    for parts in lines[1:]:
        if parts[0] == "state":
            q = int(parts[1])
            n = max(n, q + 1)
            if "init" in parts[2:]:
                initial.add(q)
            if "accept" in parts[2:]:
                accepting.add(q)
        elif parts[0] == "trans":
            q, r = int(parts[1]), int(parts[3])
            n = max(n, q + 1, r + 1)
            transitions.append((q, tuple(parts[2][1:-1].split(",")), r))
        else:
            raise ValueError(f"unknown line {parts!r}")
    return Acc(tuple(head["sigma"].split(",")), head["prefix"], n,
               frozenset(initial), frozenset(accepting), tuple(transitions))


def parse_words(text: str, multichar: bool) -> tuple:
    """Read a hyperword file: one word per line, '.'-separated symbols
    when the alphabet has multi-character symbols."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    words = []
    for ln in lines:
        ln = ln.strip()
        words.append(tuple(ln.split(".")) if multichar and ln else tuple(ln))
    return tuple(sorted(set(words)))


def format_words(words: Sequence[Word], multichar: bool) -> str:
    sep = "." if multichar else ""
    return "".join(sep.join(w) + "\n" for w in sorted(set(words)))
