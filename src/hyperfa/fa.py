"""A small NFA engine over an explicit, opaque letter alphabet.

States are dense ints [0..n).  Letters are any hashable values (plain
symbols for ordinary automata, symbol tuples for zip encodings); iteration
order is always the sorted alphabet so every construction is deterministic.
A TupleAlphabet is kept as given, so its letters are built only by the
constructions that visit every letter.  No epsilon transitions anywhere.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from collections import deque
from functools import cached_property, wraps
from typing import Callable, Hashable, Iterable, Optional

from .errors import AlphabetMismatch, InvalidArity, UnknownLetter
from .zipwords import TupleAlphabet

LetterT = Hashable


def _paused_gc(build):
    """Run build with the cyclic collector paused, as Mercurial's util.nogc.

    The constructions it wraps build only acyclic containers (tuples,
    frozensets, lists and dicts of states and letters), so reference
    counting frees every temporary and a pass could find nothing to free.
    Passes are still triggered by allocation counts, and a full one scans
    the caller's whole heap, not only what the construction built.  The
    collector is re-enabled only if it was enabled on entry, so a nested
    call, or a caller who disabled it, is left as found.
    """
    @wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class Fa:
    """Nondeterministic finite automaton with value semantics (never mutated).

    Its language never changes; the only state it gains is caches of its
    own transitions, among them _live, its states with a path to an
    accepting state, and _tables, the subset memo of hfa.member.
    """

    def __init__(
        self,
        alphabet: Iterable[LetterT],
        n_states: int,
        initial: Iterable[int],
        accepting: Iterable[int],
        transitions: Iterable[tuple[int, LetterT, int]],
    ):
        if isinstance(alphabet, TupleAlphabet):
            self.alphabet = self._alphabet_set = alphabet
        else:
            self.alphabet = tuple(sorted(set(alphabet)))
            self._alphabet_set = frozenset(self.alphabet)
        self.n_states = n_states
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        for q in self.initial | self.accepting:
            if not 0 <= q < n_states:
                raise InvalidArity(f"state {q} outside [0..{n_states})")
        transitions = set(transitions)
        # letters first: sorting a letter of the wrong type raises TypeError
        bad = [a for a in {t[1] for t in transitions} if a not in self._alphabet_set]
        if bad:
            raise UnknownLetter(f"transition letter {min(bad, key=repr)!r} outside the alphabet")
        self.transitions = tuple(sorted(transitions))
        for q, a, r in self.transitions:
            if not (0 <= q < n_states and 0 <= r < n_states):
                raise InvalidArity(f"transition {(q, a, r)} uses unknown state")

    @classmethod
    def _sorted(cls, alphabet: Iterable[LetterT], n_states: int, initial: Iterable[int],
                accepting: Iterable[int], transitions: Iterable[tuple[int, LetterT, int]]) -> "Fa":
        """Fa built without checks, for constructions whose alphabet is an
        Fa.alphabet and whose transitions are distinct, sorted and in range."""
        fa = cls.__new__(cls)
        fa.alphabet = alphabet
        fa._alphabet_set = alphabet if isinstance(alphabet, TupleAlphabet) else frozenset(alphabet)
        fa.n_states = n_states
        fa.initial = frozenset(initial)
        fa.accepting = frozenset(accepting)
        fa.transitions = tuple(transitions)
        return fa

    @cached_property
    def _step(self) -> dict[tuple[int, LetterT], list[int]]:
        """Targets of each (state, letter) pair that has any, built on first
        use: many derived automata are read only through transitions."""
        step: dict[tuple[int, LetterT], list[int]] = {}
        for q, a, r in self.transitions:
            step.setdefault((q, a), []).append(r)
        return step

    @cached_property
    def _out(self) -> dict[int, list[tuple[LetterT, int]]]:
        """(letter, target) pairs leaving each state that has any; safe to
        cache because an Fa is never mutated."""
        out: dict[int, list[tuple[LetterT, int]]] = {}
        for q, a, r in self.transitions:
            out.setdefault(q, []).append((a, r))
        return out

    @cached_property
    def _live(self) -> frozenset[int]:
        """States with a path to an accepting state: the co-accessible part."""
        return coreachable(self)

    @cached_property
    def _tables(self) -> dict[frozenset[int], dict[LetterT, frozenset[int]]]:
        """Under key s, a subset of states, the frozenset of s's targets on
        each letter of subset_moves(self._out, s); filled on demand by
        hfa.member's enumeration and by nothing else, so that the automata
        other procedures build and keep hold no tables.  Fill it with
        setdefault: an entry depends only on its key, so concurrent callers
        at worst build one table twice."""
        return {}

    def _edges(self, q: int) -> tuple[tuple[int, LetterT, int], ...]:
        """q's transitions, without caching: sorted by (state, letter,
        target), they are one slice of transitions.  Reading the cached _out
        instead caches it on the products that callers keep, which raised
        the decide benchmark's peak RSS from 76 to 82-97 MB."""
        trans = self.transitions
        return trans[bisect_left(trans, (q,)):bisect_left(trans, (q + 1,))]

    # ------------------------------------------------------------------ runs

    def step(self, states: frozenset[int], letter: LetterT) -> frozenset[int]:
        if letter not in self._alphabet_set:
            raise UnknownLetter(f"letter {letter!r} outside the alphabet")
        out: set[int] = set()
        for q in states:
            out.update(self._step.get((q, letter), ()))
        return frozenset(out)

    def accepts(self, word: Iterable[LetterT]) -> bool:
        states = self.initial
        for letter in word:
            if not states:
                return False
            states = self.step(states, letter)
        return bool(states & self.accepting)

    def shortest_accepted(self) -> Optional[tuple]:
        """Shortest accepted word, or None if none."""
        return Fa._sorted(self.alphabet, 0, (), (), ()).contains(self)

    def is_empty(self) -> bool:
        return self.shortest_accepted() is None

    # ------------------------------------------------- subset constructions

    @_paused_gc
    def determinize(self) -> "Fa":
        """Complete DFA via subset construction (state 0 = initial subset)."""
        start = self.initial
        ids: dict[frozenset[int], int] = {start: 0}
        order = [start]
        trans: list[tuple[int, LetterT, int]] = []
        empty: frozenset[int] = frozenset()
        out = self._out
        for sid, subset in enumerate(order):  # order grows as subsets are found
            # the subset's out-edges once, then every letter for completeness
            moves = subset_moves(out, subset)
            for letter in self.alphabet:
                targets = moves.get(letter)
                nxt = empty if targets is None else frozenset(targets)
                nid = ids.get(nxt)
                if nid is None:
                    nid = ids[nxt] = len(order)
                    order.append(nxt)
                trans.append((sid, letter, nid))
        accepting = [sid for sid, subset in enumerate(order)
                     if not self.accepting.isdisjoint(subset)]
        return Fa._sorted(self.alphabet, len(order), [0], accepting, trans)

    def trim(self) -> "Fa":
        """The same language on the live states only, renumbered in order;
        it has no state at all when the language is empty."""
        live = self._live
        if len(live) == self.n_states:
            return self
        ids = {q: i for i, q in enumerate(sorted(live))}  # ascending, so sorted stays sorted
        trans = [(ids[q], a, ids[r]) for q, a, r in self.transitions if q in ids and r in ids]
        return Fa._sorted(self.alphabet, len(ids), [ids[q] for q in self.initial if q in ids],
                          [ids[q] for q in self.accepting], trans)

    def complement(self) -> "Fa":
        det = self.determinize()
        accepting = set(range(det.n_states)) - set(det.accepting)
        return Fa._sorted(det.alphabet, det.n_states, det.initial, accepting, det.transitions)

    @_paused_gc
    def minimize(self) -> "Fa":
        """Determinize, then merge Myhill-Nerode-equivalent states by Moore
        refinement; blocks are numbered in BFS order from the initial block,
        so automata with equal languages come out identical."""
        det = self.determinize()
        n, width = det.n_states, len(det.alphabet)
        # complete and sorted by (state, letter): row q is q's successors
        succ = [r for _q, _a, r in det.transitions]
        rows = [succ[q * width:(q + 1) * width] for q in range(n)]
        block = [int(q in det.accepting) for q in range(n)]
        count = len(set(block))
        while True:
            # a state's new block: its block and its successors' blocks
            ids: dict[tuple[int, ...], int] = {}
            get = block.__getitem__
            refined = [ids.setdefault((block[q], *map(get, rows[q])), len(ids)) for q in range(n)]
            if len(ids) == count:
                break
            block, count = refined, len(ids)
        rename = {block[0]: 0}
        order = [0]  # one state per block, in BFS order
        trans: list[tuple[int, LetterT, int]] = []
        for q in order:
            for letter, r in zip(det.alphabet, rows[q]):
                if block[r] not in rename:
                    rename[block[r]] = len(rename)
                    order.append(r)
                trans.append((rename[block[q]], letter, rename[block[r]]))
        accepting = [rename[block[q]] for q in order if q in det.accepting]
        return Fa._sorted(det.alphabet, len(rename), [0], accepting, trans)

    # --------------------------------------------------------- combinations

    def _require_same_alphabet(self, other: "Fa") -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch("operands declare different alphabets")

    def intersect(self, other: "Fa") -> "Fa":
        """Reachable product automaton."""
        self._require_same_alphabet(other)
        out = self._out
        table: list[dict[LetterT, list[int]]] = [{} for _ in range(other.n_states)]
        for p, a, r in other.transitions:
            table[p].setdefault(a, []).append(r)

        def moves(q: int, p: int) -> list[tuple[LetterT, int, int]]:
            return [(a, q2, p2) for a, q2 in out.get(q, ()) for p2 in table[p].get(a, ())]

        return reachable_product(self, other, self.alphabet, moves)

    def union(self, other: "Fa") -> "Fa":
        """Disjoint union (other's states shifted by self.n_states)."""
        self._require_same_alphabet(other)
        off = self.n_states
        # sorted and distinct: other's shifted states all follow self's
        trans = self.transitions + tuple(
            (q + off, a, r + off) for q, a, r in other.transitions
        )
        return Fa._sorted(
            self.alphabet,
            self.n_states + other.n_states,
            list(self.initial) + [q + off for q in other.initial],
            list(self.accepting) + [q + off for q in other.accepting],
            trans,
        )

    def contains(self, other: "Fa") -> Optional[tuple]:
        """None iff L(other) <= L(self); otherwise a shortest counterexample.

        BFS over (state of other, subset of self):
        subsets are stepped along other's edges, never determinized.  Edges
        go in letter order, so ties go to the least word if other is a DFA.
        """
        self._require_same_alphabet(other)
        step, accepting, start = self._step, self.accepting, self.initial
        if other.initial & other.accepting and not start & accepting:
            return ()
        parent: dict[tuple, tuple] = {(p, start): () for p in sorted(other.initial)}
        queue = deque(parent)
        while queue:
            p, subset = node = queue.popleft()
            base = parent[node]
            prev = None
            for _p, letter, r in other._edges(p):
                if letter != prev:  # edges are sorted by letter
                    prev = letter
                    # the empty subset (always, in shortest_accepted) steps to itself
                    nxt = subset and frozenset(
                        [t for q in subset for t in step.get((q, letter), ())])
                node = (r, nxt)
                if node in parent:
                    continue
                parent[node] = base + (letter,)
                if r in other.accepting and not nxt & accepting:
                    return parent[node]
                queue.append(node)
        return None

    def remap_letters(self, f: Callable[[LetterT], object], new_alphabet: Iterable[LetterT]) -> "Fa":
        """Inverse-image relabelling.

        The result has a transition on letter a iff this automaton has a
        same-endpoint transition on f(a).  Hence the result accepts w iff
        this automaton accepts the letterwise image of w.
        """
        if not isinstance(new_alphabet, TupleAlphabet):
            new_alphabet = tuple(new_alphabet)
        trans: list[tuple[int, LetterT, int]] = []
        by_letter: dict[LetterT, list[tuple[int, int]]] = {}
        for q, a, r in self.transitions:
            by_letter.setdefault(a, []).append((q, r))
        for a in new_alphabet:
            for q, r in by_letter.get(f(a), ()):
                trans.append((q, a, r))
        # a TupleAlphabet is kept as given; Fa sorts and dedupes a plain one
        build = Fa._sorted if isinstance(new_alphabet, TupleAlphabet) else Fa
        return build(new_alphabet, self.n_states, self.initial, self.accepting, sorted(set(trans)))

    # -------------------------------------------------------------- display

    def to_dot(self, name: str = "fa") -> str:
        def fmt(letter: LetterT) -> str:
            if isinstance(letter, tuple):
                return "(" + ",".join(str(s) for s in letter) + ")"
            return str(letter)

        lines = [f"digraph {name} {{", "  rankdir=LR;"]
        for q in sorted(self.initial):
            lines.append(f"  __init{q} [shape=point];")
        for q in range(self.n_states):
            shape = "doublecircle" if q in self.accepting else "circle"
            lines.append(f"  {q} [shape={shape}];")
        for q in sorted(self.initial):
            lines.append(f"  __init{q} -> {q};")
        edges: dict[tuple[int, int], list[str]] = {}
        for q, a, r in self.transitions:
            edges.setdefault((q, r), []).append(fmt(a))
        for (q, r), labels in sorted(edges.items()):
            lines.append(f'  {q} -> {r} [label="{", ".join(labels)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            # __len__ itself: len() rejects counts above sys.maxsize, which a
            # tuple alphabet of arity 40 already exceeds
            f"Fa(states={self.n_states}, letters={self.alphabet.__len__()}, "
            f"transitions={len(self.transitions)})"
        )


def coreachable(fa: Fa, only: Optional[LetterT] = None) -> frozenset[int]:
    """States of fa with a path to an accepting state, over only-edges if given."""
    rev: dict[int, list[int]] = {}
    for q, a, r in fa.transitions:
        if only is None or a == only:
            rev.setdefault(r, []).append(q)
    closure = set(fa.accepting)
    frontier = list(closure)
    while frontier:
        for q in rev.get(frontier.pop(), ()):
            if q not in closure:
                closure.add(q)
                frontier.append(q)
    return frozenset(closure)


def subset_moves(out: dict[int, list[tuple[LetterT, int]]],
                 states: Iterable[int]) -> dict[LetterT, list[int]]:
    """One row of the subset construction, for the caller to freeze: the
    targets of states on each letter some state reads, repeats included,
    where state q has the (letter, target) edges out.get(q, ()), as in
    Fa._out.  Freezing here would cost determinize a second dict per
    subset, about 10% of its time on a 1,000-state DFA."""
    moves: dict[LetterT, list[int]] = {}
    for q in states:
        for a, r in out.get(q, ()):
            targets = moves.get(a)  # setdefault would build a list per edge
            if targets is None:
                moves[a] = [r]
            else:
                targets.append(r)
    return moves


@_paused_gc
def reachable_product(
    a: Fa,
    b: Fa,
    alphabet: Iterable[LetterT],
    moves: Callable[[int, int], Iterable[tuple[LetterT, int, int]]],
) -> Fa:
    """Automaton over alphabet (an Fa.alphabet) whose states are the pairs
    (q, p) of a state of a and a state of b reachable from the initial
    pairs, numbered in BFS order.  moves(q, p) gives the distinct
    (letter, q2, p2) steps leaving (q, p), in any order; a pair accepts when
    both of its states accept.  The result is built without checks."""
    order = [(q, p) for q in sorted(a.initial) for p in sorted(b.initial)]
    width = b.n_states  # pair (q, p) has the key q * width + p: ints hash faster than tuples
    ids = {q * width + p: i for i, (q, p) in enumerate(order)}
    n_initial = len(order)
    trans: list[tuple[int, LetterT, int]] = []
    for sid, (q, p) in enumerate(order):  # order grows as pairs are found
        for letter, q2, p2 in moves(q, p):
            nid = ids.get(q2 * width + p2)
            if nid is None:
                nid = ids[q2 * width + p2] = len(order)
                order.append((q2, p2))
            trans.append((sid, letter, nid))
    accepting = [i for i, (q, p) in enumerate(order) if q in a.accepting and p in b.accepting]
    trans.sort()  # near linear: the pairs' ids ascend, and so do most moves
    return Fa._sorted(alphabet, max(len(order), 1), range(n_initial), accepting, trans)
