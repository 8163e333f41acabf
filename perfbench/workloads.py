"""The four workloads: seeded inputs, the operations of one round, and the
check of their outputs.

A set-up function takes the layer facade, a seeded ``random.Random`` and a
scratch directory, and returns a ``Workload``.  Every operation is a
``(kind, fn, args)`` triple called as ``fn(layers, *args)``.  The harness
repeats the round until the measuring window is over.  The check receives
the outputs of the first round and compares them with ``checker``, which
shares no code with the package; the harness compares every later round
with the first through ``plain``.  Neither runs inside the window.

Instances are stratified (fixed counts per arity, prefix, family and size)
so that different seeds give rounds of nearly equal cost.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import checker
from checker import PAD, Acc, Dfa, Evaluator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SIGMA_AB = ("a", "b")
SWEEP = checker.all_hyperwords(SIGMA_AB, 3, 3)  # 575 hyperwords


class Failure:
    """Marks an operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Failure({self.text})"


@dataclass
class Workload:
    ops: list  # of (kind, fn, args)
    # check(first round outputs) -> list of wrong-verdict descriptions
    check: Callable[[list], list]
    # in-process replay of one round's library calls, traced runs only
    replay: Callable[[object], None] | None = None


# ------------------------------------------------------------ plain data


def to_acc(nfh) -> Acc:
    u = nfh.underlying
    return Acc(tuple(nfh.sigma), "".join(q.value for q in nfh.prefix), u.n_states,
               frozenset(u.initial), frozenset(u.accepting), tuple(u.transitions))


def plain(x):
    """Library results as comparable plain data (duck-typed, no imports)."""
    if x is None or isinstance(x, (bool, int, str, float, Failure)):
        return x.text if isinstance(x, Failure) else x
    if isinstance(x, (tuple, list)):
        return tuple(plain(v) for v in x)
    if hasattr(x, "underlying"):
        return to_acc(x)
    if hasattr(x, "transitions"):
        return (x.n_states, tuple(sorted(x.initial)), tuple(sorted(x.accepting)),
                tuple(x.transitions))
    if hasattr(x, "words"):
        return ("hyperword", x.words)
    if hasattr(x, "complete"):
        return ("report", x.complete, plain(x.counterexample))
    if hasattr(x, "letters"):
        return ("zip", x.letters)
    if hasattr(x, "indices"):
        return ("seq", x.indices)
    raise TypeError(f"no plain form for {type(x).__name__}")


def checked(ops: list, checks: list) -> Callable[[list], list]:
    """Check function applying checks[i] to the output of ops[i]."""
    def check(first):
        return [f"op {i} ({ops[i][0]}): output fails the check"
                for i, (out, verify) in enumerate(zip(first, checks))
                if not isinstance(out, Failure) and not verify(out)]
    return check


def letters_of(sigma, k: int) -> list:
    symbols = sorted(set(sigma) | {PAD})
    return list(itertools.product(symbols, repeat=k))


def random_acc(rng: random.Random, prefix: str, max_states: int, density: float,
               sigma=SIGMA_AB, n: int | None = None) -> Acc:
    """Random acceptor with n states (default: uniform in 1..max_states)."""
    n = n or rng.randint(1, max_states)
    letters = letters_of(sigma, len(prefix))
    trans = tuple((q, l, r) for q in range(n) for l in letters for r in range(n)
                  if rng.random() < density)
    initial = [q for q in range(n) if rng.random() < 0.5] or [0]
    accepting = [q for q in range(n) if rng.random() < 0.5]
    return Acc(tuple(sigma), prefix, n, frozenset(initial), frozenset(accepting), trans)


def build_nfh(L, acc: Acc):
    prefix = [L.Quantifier(c) for c in acc.prefix]
    return L.make_nfh(acc.sigma, prefix, acc.n_states, sorted(acc.initial),
                      sorted(acc.accepting), acc.transitions)


def rows(acc: Acc) -> list:
    ev = Evaluator(acc)
    return [ev.member(hw) for hw in SWEEP]


# ------------------------------------------------------------ member-random


def _member(L, nfh, hw):
    return L.member(nfh, hw)


def setup_member_random(L, rng: random.Random, workdir: str) -> Workload:
    accs = []
    for k, per in ((1, 4), (2, 2), (3, 1)):
        density = 0.25 if k < 3 else 0.15
        for prefix in itertools.product("AE", repeat=k):
            accs.extend(random_acc(rng, "".join(prefix), 4, density, n=n)
                        for n in range(1, 5) for _ in range(per))
    hws = [L.hyperword(ws) for ws in SWEEP]
    ops = []
    for acc in accs:
        nfh = build_nfh(L, acc)
        ops.extend(("hfa.member", _member, (nfh, hw)) for hw in hws)

    def check(first):
        wrong = []
        for j, acc in enumerate(accs):
            want = rows(acc)
            got = first[j * len(SWEEP):(j + 1) * len(SWEEP)]
            wrong += [f"member acceptor {j} hyperword {SWEEP[i]}: got {g}"
                      for i, (g, w) in enumerate(zip(got, want))
                      if not isinstance(g, Failure) and g != w]
        return wrong

    return Workload(ops, check)


# ------------------------------------------------------------ member-ham


def relabel(rng: random.Random, n: int, edges) -> list:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [(perm[u - 1], perm[v - 1]) for u, v in edges]


def graph(rng: random.Random, family: str, n: int) -> list:
    if family == "ring":
        return relabel(rng, n, [(i, i % n + 1) for i in range(1, n + 1)])
    if family == "path":
        return relabel(rng, n, [(i, i + 1) for i in range(1, n)])
    if family == "complete":
        return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    while True:  # random connected graph, edge probability 1/2
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < 0.5]
        seen, stack = {1}, [1]
        while stack:
            x = stack.pop()
            for u, v in edges:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in seen:
                        seen.add(b)
                        stack.append(b)
        if len(seen) == n:
            return edges


FAMILIES = ("ring", "path", "complete", "random")


def setup_member_ham(L, rng: random.Random, workdir: str) -> Workload:
    instances = [(n, fam, graph(rng, fam, n))
                 for n, per in ((5, 6), (6, 4)) for fam in FAMILIES for _ in range(per)]
    ops = []
    for n, fam, edges in instances:
        nfh, hw = L.gen_hamiltonian(n, edges)
        ops.append(("hfa.member", _member, (nfh, hw)))

    def check(first):
        wrong = []
        for (n, fam, edges), got in zip(instances, first):
            want = checker.held_karp(n, edges)
            fixed = {"ring": True, "complete": True, "path": False}.get(fam, want)
            if not isinstance(got, Failure) and (got != want or want != fixed):
                wrong.append(f"hamiltonian {fam} n={n} {edges}: got {got}, want {want}")
        return wrong

    return Workload(ops, check)


# ------------------------------------------------------------ decide

POLICY_TEXTS = {
    "ni": ("forall x1. exists x2. [l,m]*", ("l", "m")),
    "od": ("forall x1. forall x2. [l,l]+|[!l,!l][_,_]*|[l,!l][_,_]*|[!l,l][_,_]*",
           ("l", "m")),
    "gni": ("forall x1. forall x2. exists x3. "
            "([h,l,m]|[!h,l,n]|[h,!l,o]|[!h,!l,p])*", ("h", "l", "m", "n", "o", "p")),
    "dc": ("forall x1. forall x2. [li,li][pw,pw][lo,lo]+", ("li", "pw", "lo")),
    "tsni": ("forall x1. forall x2. [l,l][_,_]*[l,l]|[!l,!l][_,_]*|[l,!l][_,_]*"
             "|[!l,l][_,_]*", ("l", "m")),
}

LEARN_TARGETS = [
    ("forall x. [a]*", "forall"),
    ("forall x1. forall x2. ([a,a]|[b,b])*([#,b]*|[b,#]*)", "forall"),
    ("forall x1. forall x2. (([a,a]|[a,b]|[b,b]|[a,#]|[b,#]|[#,b])*"
     "|([a,a]|[b,a]|[b,b]|[#,a]|[#,b]|[b,#])*)", "forall"),
    ("forall x. [a][b]*", "forall"),
    ("forall x. ([a][a])*", "forall"),
    ("forall x1. forall x2. ([a,a]|[b,b])*", "forall"),
    ("forall x. ([a]|[b])([a]|[b])*", "forall"),
    ("forall x. eps", "forall"),
    ("forall x. [b][b]*", "forall"),
    ("forall x1. forall x2. ([a,a]|[b,b]|[a,b]|[b,a])*", "forall"),
    ("forall x. [b]*", "forall"),
    ("forall x. [a][a]*", "forall"),
    ("exists x. ([a]|[b])*", "exists"),
    ("exists x. [a][a]*", "exists"),
    ("exists x. [a][b]", "exists"),
    ("exists x1. exists x2. ([a,b])*", "exists"),
    ("exists x. [b]*", "exists"),
    ("exists x. eps", "exists"),
    ("exists x1. exists x2. ([a,a])*([a,#])+", "exists"),
    ("exists x. [a]([a]|[b])*", "exists"),
]

CLOSURE_K3_TEXTS = [
    "forall x1. forall x2. forall x3. ([a,a,a]|[b,b,b])*",
    "forall x1. forall x2. forall x3. [a,_,_]*",
    "exists x1. exists x2. exists x3. [a,b,a]([a,a,b]|[b,#,b])*",
    "exists x1. exists x2. exists x3. ([a,b,_])*",
    "forall x1. forall x2. forall x3. ([a,a,b]|[b,b,a])*",
    "forall x1. forall x2. forall x3. [b,_,_]*[a,a,a]",
    "forall x1. forall x2. forall x3. ([a,b,_]|[b,a,_])*",
    "exists x1. exists x2. exists x3. ([a,_,b])*",
    "exists x1. exists x2. exists x3. [b,a,#]*",
    "exists x1. exists x2. exists x3. [a,a,_]*[b,#,#]",
    "forall x1. forall x2. forall x3. ([a,_,a]|[b,_,b])*",
    "forall x1. forall x2. forall x3. [a,a,a]*[b,_,_]",
]

DFA_SIZES = (200, 500, 1000)
DFA_LETTERS = tuple("abcdefghi")


def _call(L, name, *args):
    return getattr(L, name)(*args)


def _close(L, nfh):
    if nfh.prefix[0] is L.Quantifier.FORALL:
        return L.sequence_closure(nfh)
    return L.permutation_closure(nfh)


def _closure(L, nfh):
    closed = _close(L, nfh)
    return closed, L.check_complete(closed)


def _canonical_equal(L, n1, n2):
    c1, c2 = _close(L, n1), _close(L, n2)
    return c1, c2, L.canonical_equal(c1, c2)


def _learn(L, target, fragment):
    return L.learn(L.teacher(target), fragment, None, L.learner_trace)


def _fa_intersect(L, big, small):
    product = L.fa_intersect(big, small)
    return product, L.fa_shortest_accepted(product)


def _fa_determinize(L, big, small):
    return L.fa_determinize(L.fa_union(big, small))


def random_dfa(rng: random.Random, n: int) -> Dfa:
    delta = tuple(tuple(rng.randrange(n) for _ in DFA_LETTERS) for _ in range(n))
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Dfa(DFA_LETTERS, delta, 0, accepting)


def dfa_to_fa(L, dfa: Dfa):
    trans = [(q, a, r) for q, row in enumerate(dfa.delta) for a, r in zip(dfa.letters, row)]
    return L.fa(dfa.letters, len(dfa.delta), [dfa.initial], dfa.accepting, trans)


def random_prefix(rng, quants: str, k: int) -> str:
    return "".join(rng.choice(quants) for _ in range(k))


def trie(words) -> tuple:
    """(n_states, accepting, transitions) of the trie of a finite language."""
    ids = {(): 0}
    trans = []
    for w in sorted(set(words)):
        for i in range(1, len(w) + 1):
            if w[:i] not in ids:
                ids[w[:i]] = len(ids)
                trans.append((ids[w[:i - 1]], w[i - 1], ids[w[:i]]))
    return len(ids), frozenset(ids[w] for w in words), tuple(trans)


class DecideCheck:
    """Checks of the decide outputs, one method per operation kind."""

    def __init__(self, rng: random.Random):
        self.samples = rng.sample(SWEEP, 60)
        self.words = [tuple(rng.choice(DFA_LETTERS) for _ in range(rng.randint(0, 15)))
                      for _ in range(200)]
        self.ev: dict = {}

    def evaluator(self, acc: Acc) -> Evaluator:
        if acc not in self.ev:
            self.ev[acc] = Evaluator(acc)
        return self.ev[acc]

    def member(self, acc: Acc, hw) -> bool:
        return self.evaluator(acc).member(hw)

    def boolean(self, kind, operands, out: Acc, samples) -> bool:
        for hw in samples:
            vals = [self.member(a, hw) for a in operands]
            want = {"complement": lambda v: not v[0], "union": any,
                    "intersect": all}[kind](vals)
            if self.member(out, hw) != want:
                return False
        return True

    def nonempty(self, acc: Acc, witness) -> bool:
        if witness is not None:
            return self.member(acc, witness.words)
        size = max(acc.prefix.count("E"), 1)
        return checker.brute_nonempty(acc, size, acc.n_states + 1) is None

    def contains(self, a1: Acc, a2: Acc, witness, sweep) -> bool:
        if witness is not None:
            return self.member(a1, witness.words) and not self.member(a2, witness.words)
        return not any(self.member(a1, hw) and not self.member(a2, hw) for hw in sweep)

    def equivalent(self, a1: Acc, a2: Acc, outcome, sweep) -> bool:
        if outcome is None:
            return all(self.member(a1, hw) == self.member(a2, hw) for hw in sweep)
        hw, side = outcome
        left, right = self.member(a1, hw.words), self.member(a2, hw.words)
        return (left and not right) if side == "left_only" else (right and not left)

    def violation(self, acc: Acc, words: tuple, seq: tuple) -> bool:
        """True iff (words, seq) breaks completeness of acc."""
        ev = self.evaluator(acc)
        picked = tuple(words[i - 1] for i in seq)
        if acc.prefix[0] == "A":
            return ev.accepts_tuple(words) and not ev.accepts_tuple(picked)
        return not ev.accepts_tuple(words) and ev.accepts_tuple(picked)

    def report(self, acc: Acc, report) -> bool:
        if not report.complete:
            word, seq = report.counterexample
            k = acc.k
            words = tuple(tuple(l[t] for l in word.letters if l[t] != PAD) for t in range(k))
            return (checker.zip_letters(words) == tuple(word.letters)
                    and self.violation(acc, words, seq.indices))
        k = acc.k
        seqs = (itertools.product(range(1, k + 1), repeat=k) if acc.prefix[0] == "A"
                else itertools.permutations(range(1, k + 1)))
        seqs = list(seqs)
        pool = checker.all_words(acc.sigma, 2 if k == 3 else 3)
        return not any(self.violation(acc, ws, s)
                       for ws in itertools.product(pool, repeat=k) for s in seqs)

    def language(self, fa, want) -> bool:
        """fa accepts exactly the sampled words for which want(word) holds."""
        runner = checker.Nfa(fa.transitions, fa.initial, fa.accepting)
        return all(runner.accepts(w) == want(w) for w in self.words)

    def same_rows(self, a: Acc, b: Acc) -> bool:
        return all(self.member(a, hw) == self.member(b, hw) for hw in SWEEP)


def policy_sweep(sigma) -> list:
    return checker.all_hyperwords(sigma, 3, 3) if len(sigma) == 2 else []


def setup_decide(L, rng: random.Random, workdir: str) -> Workload:
    ck = DecideCheck(rng)
    ops: list = []
    checks: list = []  # parallel to ops: fn(output) -> bool

    def add(kind, fn, args, verify):
        ops.append((kind, fn, args))
        checks.append(verify)

    def rand(prefix, max_states=3, n=None):
        acc = random_acc(rng, prefix, max_states, 0.25, n=n)
        return acc, build_nfh(L, acc)

    # Boolean closure
    for i in range(72):
        a, n = rand(random_prefix(rng, "AE", 1 + i % 2), n=1 + i // 2 % 3)
        add("hfa.complement", _call, ("complement", n),
            lambda out, a=a: ck.boolean("complement", [a], to_acc(out), ck.samples))
    for kind in ("union", "intersect"):
        for i in range(36):
            (a1, n1), (a2, n2) = (rand(random_prefix(rng, "AE", 1 + (i + j) % 2),
                                       n=1 + (i // 2 + j) % 3) for j in range(2))
            add(f"hfa.{kind}", _call, (kind, n1, n2),
                lambda out, kind=kind, a1=a1, a2=a2:
                ck.boolean(kind, [a1, a2], to_acc(out), ck.samples))
    # nonemptiness
    for name, prefixes in (("nonempty_exists", ("E", "EE")),
                           ("nonempty_forall", ("A", "AA")),
                           ("nonempty_exists_forall", ("EA",))):
        for i in range(24):
            a, n = rand(prefixes[i % len(prefixes)], n=1 + i // len(prefixes) % 3)
            add(f"hfa.{name}", _call, (name, n), lambda out, a=a: ck.nonempty(a, out))
    # regular membership on trie languages
    pool = checker.all_words(SIGMA_AB, 3)
    for i in range(36):
        words = tuple(sorted(rng.sample(pool, 1 + i // 2 % 3)))
        a, n = rand(random_prefix(rng, "AE", 1 + i % 2), n=1 + i // 6 % 3)
        size, acc_states, trans = trie(words)
        lang = L.fa(SIGMA_AB, size, [0], acc_states, trans)
        add("hfa.regular_member", _call, ("regular_member", lang, n),
            lambda out, a=a, words=words: out == ck.member(a, words))
    # containment and equivalence on random pairs of total arity <= 3
    for i in range(9):
        k1, s1, s2 = 1 + i % 2, 1 + i % 3, 1 + i // 3
        left = random_prefix(rng, "AE", 1) if k1 == 1 else rng.choice(("AA", "EE", "EA"))
        a1, n1 = rand(left, n=s1)
        a2, n2 = rand(rng.choice("AE") * (3 - k1 if i % 4 < 2 else 1), n=s2)
        add("hfa.contains", _call, ("contains", n1, n2),
            lambda out, a1=a1, a2=a2: ck.contains(a1, a2, out, SWEEP))
        b1, m1 = rand(rng.choice("AE") * k1, n=s1)
        b2, m2 = rand(rng.choice("AE") * (3 - k1 if i % 4 < 2 else 1), n=s2)
        add("hfa.equivalent", _call, ("equivalent", m1, m2),
            lambda out, b1=b1, b2=b2: ck.equivalent(b1, b2, out, SWEEP))
    # policy templates
    pol = {}
    for name, (text, sigma) in POLICY_TEXTS.items():
        nfh = L.compile_hre(L.hre_parse(text), sigma)
        pol[name] = (to_acc(nfh), nfh)
    for x in ("od", "tsni", "dc"):
        add("hfa.equivalent", _call, ("equivalent", pol[x][1], pol[x][1]),
            lambda out: out is None)
    for x, y in (("od", "tsni"), ("tsni", "od")):
        add("hfa.contains", _call, ("contains", pol[x][1], pol[y][1]),
            lambda out, x=x, y=y: ck.contains(pol[x][0], pol[y][0], out,
                                              policy_sweep(("l", "m"))))
    add("hfa.equivalent", _call, ("equivalent", pol["od"][1], pol["tsni"][1]),
        lambda out: ck.equivalent(pol["od"][0], pol["tsni"][0], out,
                                  policy_sweep(("l", "m"))))
    for x in ("od", "dc", "tsni"):
        add("hfa.nonempty_exists_forall", _call, ("nonempty_exists_forall", pol[x][1]),
            lambda out, x=x: out is not None and ck.member(pol[x][0], out.words))
    for x in ("ni", "gni"):
        sigma = pol[x][0].sigma
        samples = [tuple(sorted({tuple(rng.choice(sigma) for _ in range(rng.randint(0, 3)))
                                 for _ in range(rng.randint(1, 3))})) for _ in range(40)]
        add("hfa.complement", _call, ("complement", pol[x][1]),
            lambda out, x=x, samples=samples:
            ck.boolean("complement", [pol[x][0]], to_acc(out), samples))
    # canonical forms
    for i in range(9):
        a, n = rand(rng.choice(("AA", "EE")), n=1 + i % 3)
        add("canon.check_complete", _call, ("check_complete", n),
            lambda out, a=a: ck.report(a, out))
    closed_inputs: dict = {}
    for i in range(12):
        prefix = ("A", "E", "AA", "EE")[i % 4]
        a, n = rand(prefix, n=1 + i // 4 % 2)
        closed_inputs.setdefault(prefix, []).append((a, n))
        add("canon.closure", _closure, (n,),
            lambda out, a=a: ck.same_rows(a, to_acc(out[0])) and out[1].complete
            and ck.report(to_acc(out[0]), out[1]))
    for text in CLOSURE_K3_TEXTS:
        nfh = L.compile_hre(L.hre_parse(text), SIGMA_AB)
        a = to_acc(nfh)
        add("canon.closure", _closure, (nfh,),
            lambda out, a=a: ck.same_rows(a, to_acc(out[0])) and out[1].complete
            and ck.report(to_acc(out[0]), out[1]))
    for prefix in ("A", "E", "AA", "EE"):
        group = closed_inputs[prefix]
        for (a1, n1), (a2, n2) in list(zip(group, group[1:]))[:2 if len(prefix) == 2 else 1]:
            add("canon.canonical_equal", _canonical_equal, (n1, n2),
                lambda out, a1=a1, a2=a2: ck.same_rows(a1, to_acc(out[0]))
                and ck.same_rows(a2, to_acc(out[1]))
                and (not out[2] or ck.same_rows(a1, a2)))
    # learning
    for text, frag in LEARN_TARGETS:
        target = L.compile_hre(L.hre_parse(text), SIGMA_AB)
        fragment = L.Fragment.FORALL_ONLY if frag == "forall" else L.Fragment.EXISTS_ONLY
        a = to_acc(target)
        add("learn.learn", _learn, (target, fragment),
            lambda out, a=a: ck.same_rows(a, to_acc(out)))
    # the fa kernel
    small = random_dfa(rng, 8)
    small_fa = dfa_to_fa(L, small)
    for size in DFA_SIZES:
        dfa = random_dfa(rng, size)
        big = dfa_to_fa(L, dfa)
        add("fa.minimize", _call, ("fa_minimize", big),
            lambda out, dfa=dfa: out.n_states == checker.minimal_state_count(dfa))
        add("fa.complement", _call, ("fa_complement", big),
            lambda out, dfa=dfa: ck.language(out, lambda w: not checker.dfa_accepts(dfa, w)))
        add("fa.intersect", _fa_intersect, (big, small_fa),
            lambda out, dfa=dfa: _check_product(ck, dfa, small, *out))
        add("fa.determinize", _fa_determinize, (big, small_fa),
            lambda out, dfa=dfa: len(out.initial) == 1 and ck.language(
                out, lambda w: checker.dfa_accepts(dfa, w) or checker.dfa_accepts(small, w)))

    return Workload(ops, checked(ops, checks))


def _check_product(ck, big: Dfa, small: Dfa, product, witness) -> bool:
    agree = ck.language(product, lambda w: checker.dfa_accepts(big, w)
                        and checker.dfa_accepts(small, w))
    shortest = checker.shortest_product_length(big, small)
    if witness is None:
        return agree and shortest is None
    return (agree and len(witness) == shortest and checker.dfa_accepts(big, witness)
            and checker.dfa_accepts(small, witness))


# ------------------------------------------------------------ cli

CLI_BOOT = "import sys; from hyperfa.cli import main; sys.exit(main())"

# criterion-9 trace sets: (policy, accepted hyperwords, rejected hyperwords)
CLI_FIXTURES = [
    ("ni", [[""]], [["l"], ["l", "m"]]),
    ("od", [["ll"], ["ll", "ml"]], [["l", "lm"], ["ll", "l"]]),
    ("gni", [["p"], ["m", "p"]], [["h"], ["m", "n"]]),
    ("dc", [["li.pw.lo"], ["li.pw.lo.lo"]], [["li.lo"], ["li.pw.lo", "li.pw.lo.lo"]]),
    ("tsni", [["ll"], ["lml", "lll"]], [["ll", "lm"], ["l"]]),
]

# Expected exit code and first stdout line of the decision subcommands on
# the policies, worked out by hand.  A witness or counterexample is checked
# for what it claims rather than compared letter by letter, so another
# valid witness is not counted wrong.
CLI_EXPECTED = {
    ("empty", "od"): (0, None),  # {l}: one low event, trivially deterministic
    ("empty", "dc"): (0, None),  # {li.pw.lo}
    ("empty", "tsni"): (0, None),  # {m}
    ("canon", "od"): (1, "INCOMPLETE"),  # (l,m)(m,l) accepted, (l,l)(m,m) not
    ("canon", "dc"): (0, "COMPLETE"),  # diagonal language: selections stay inside
    ("canon", "tsni"): (1, "INCOMPLETE"),  # (l,m) accepted, (l,l) not
    ("contains", "od", "tsni"): (1, None),  # {l}: od accepts, tsni needs two letters
    ("contains", "tsni", "od"): (1, None),  # {lll, lml}: tsni accepts, od does not
    ("equiv", "od", "od"): (0, "EQUIVALENT"),
    ("equiv", "tsni", "tsni"): (0, "EQUIVALENT"),
    ("equiv", "od", "tsni"): (1, "left_only"),  # {l} again
}


def _word(text: str) -> tuple:
    return tuple(text.split(".")) if "." in text else tuple(text)


class CliFailure(Exception):
    """A subcommand exited with a code other than 0 or 1, or printed a traceback."""


def _cli(L, argv, cwd, env):
    proc = subprocess.run([sys.executable, "-c", CLI_BOOT, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=150)
    if proc.returncode not in (0, 1) or "Traceback" in proc.stderr:
        raise CliFailure(f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr.strip()}")
    return proc.returncode, proc.stdout, proc.stderr


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_cli(L, rng: random.Random, workdir: str) -> Workload:
    env = child_env(SRC)
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)

    def write(name: str, text: str) -> str:
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return name

    pol = {}
    for name, (text, sigma) in POLICY_TEXTS.items():
        write(f"{name}.hre", text + "\n")
        nfh = L.compile_hre(L.hre_parse(text), sigma)
        write(f"{name}.nfh", L.format_nfh(nfh))
        pol[name] = (to_acc(nfh), sigma)
    ham_n = 5
    ham_edges = graph(rng, "random", ham_n)
    write("ham.edges", "".join(f"{u} {v}\n" for u, v in ham_edges))
    nfh, hw = L.gen_hamiltonian(ham_n, ham_edges)
    write("ham.nfh", L.format_nfh(nfh))
    write("ham.hw", checker.format_words(hw.words, False))
    ham_truth = checker.held_karp(ham_n, ham_edges)

    ops, checks = [], []

    def add(argv, verify):
        ops.append(("cli." + argv[0], _cli, (argv, workdir, env)))
        checks.append(verify)

    def expect(code: int, stdout: str):
        return lambda out: out[0] == code and out[1] == stdout

    for name, (_text, sigma) in POLICY_TEXTS.items():
        add(["compile", f"{name}.hre", "-o", f"out/{name}.nfh", "--sigma", ",".join(sigma)],
            lambda out, name=name: out[:2] == (0, "") and _compiled_ok(workdir, name, pol))
    for name, accepted, rejected in CLI_FIXTURES:
        multi = any(len(s) > 1 for s in pol[name][1])
        for j, (groups, want) in enumerate(((accepted, True), (rejected, False))):
            for i, group in enumerate(groups):
                words = tuple(sorted({_word(t) for t in group}))
                if Evaluator(pol[name][0]).member(words) is not want:
                    raise AssertionError(f"fixture {name} {group} is not {want}")
                hw_file = write(f"{name}-{'acc' if want else 'rej'}{i}.hw",
                                checker.format_words(words, multi))
                add(["member", f"{name}.nfh", hw_file],
                    expect(0 if want else 1, "true\n" if want else "false\n"))
    add(["member", "ham.nfh", "ham.hw"],
        expect(0 if ham_truth else 1, "true\n" if ham_truth else "false\n"))
    for name in ("od", "dc", "tsni"):
        add(["empty", f"{name}.nfh"], _expected(("empty", name), pol))
        add(["canon", f"{name}.nfh"], _expected(("canon", name), pol))
    for x, y in (("od", "tsni"), ("tsni", "od")):
        add(["contains", f"{x}.nfh", f"{y}.nfh"], _expected(("contains", x, y), pol))
    for x, y in (("od", "od"), ("tsni", "tsni"), ("od", "tsni")):
        add(["equiv", f"{x}.nfh", f"{y}.nfh"], _expected(("equiv", x, y), pol))
    add(["gen-ham", "ham.edges", "-o", "out/ham.nfh", "-o-hw", "out/ham.hw"],
        lambda out: out[:2] == (0, "") and _ham_ok(workdir, ham_n, ham_truth))
    for name in ("od", "gni", "tsni"):
        add(["dot", f"{name}.nfh"], lambda out, name=name: _dot_ok(out, pol[name][0]))

    order = list(range(len(ops)))
    rng.shuffle(order)
    ops = [ops[i] for i in order]
    checks = [checks[i] for i in order]

    def replay(L):
        """The library calls behind each subcommand, in-process."""
        def load(name):
            return L.parse_nfh(_read(workdir, name))

        for _kind, _fn, (argv, _cwd, _env) in ops:
            sub, args = argv[0], argv[1:]
            if sub == "compile":
                name = args[0][:-4]
                L.format_nfh(L.compile_hre(L.hre_parse(_read(workdir, args[0])),
                                           POLICY_TEXTS[name][1]))
            elif sub == "member":
                nfh = load(args[0])
                L.member(nfh, L.parse_hyperword(_read(workdir, args[1]), nfh.sigma))
            elif sub == "empty":
                L.nonempty_exists_forall(load(args[0]))
            elif sub == "canon":
                L.check_complete(load(args[0]))
            elif sub == "contains":
                L.contains(load(args[0]), load(args[1]))
            elif sub == "equiv":
                L.equivalent(load(args[0]), load(args[1]))
            elif sub == "gen-ham":
                L.format_nfh(L.gen_hamiltonian(ham_n, ham_edges)[0])
            elif sub == "dot":
                load(args[0]).underlying.to_dot(name="nfh")

    return Workload(ops, checked(ops, checks), replay)


def _read(workdir: str, name: str) -> str:
    with open(os.path.join(workdir, name), encoding="utf-8") as fh:
        return fh.read()


def _compiled_ok(workdir: str, name: str, pol: dict) -> bool:
    got = checker.parse_acceptor(_read(workdir, f"out/{name}.nfh"))
    want = pol[name][0]
    if (got.prefix, got.sigma) != (want.prefix, tuple(sorted(want.sigma))):
        return False
    ev = Evaluator(got)
    for pid, accepted, rejected in CLI_FIXTURES:
        if pid == name:
            for groups, truth in ((accepted, True), (rejected, False)):
                if any(ev.member({_word(t) for t in g}) is not truth for g in groups):
                    return False
    return True


def _ham_ok(workdir: str, n: int, truth: bool) -> bool:
    acc = checker.parse_acceptor(_read(workdir, "out/ham.nfh"))
    words = checker.parse_words(_read(workdir, "out/ham.hw"), False)
    return (acc.prefix == "E" * n and len(words) == n
            and Evaluator(acc).member(words) is truth)


def _dot_ok(out, acc: Acc) -> bool:
    lines = out[1].splitlines()
    pairs = {(q, r) for q, _l, r in acc.transitions}
    edges = [ln for ln in lines if "->" in ln]
    nodes = [ln for ln in lines if "[shape=" in ln and "point" not in ln]
    return (out[0] == 0 and lines[0] == "digraph nfh {" and lines[-1] == "}"
            and len(edges) == len(pairs) + len(acc.initial)
            and len(nodes) == acc.n_states)


def _expected(key: tuple, pol: dict):
    code, first_line = CLI_EXPECTED[key]

    def verify(out) -> bool:
        return (out[0] == code
                and (first_line is None or out[1].split("\n")[0] == first_line)
                and _semantic(key, out, pol))
    return verify


def _semantic(key: tuple, out, pol: dict) -> bool:
    code, stdout = out[0], out[1]
    sub, names = key[0], key[1:]
    accs = [pol[n][0] for n in names]
    sweep = policy_sweep(accs[0].sigma)
    ck = DecideCheck(random.Random(0))
    multi = any(len(s) > 1 for s in accs[0].sigma)
    lines = stdout.splitlines()
    if sub == "empty":
        if code == 1:
            return stdout == "EMPTY\n" and checker.brute_nonempty(
                accs[0], max(accs[0].prefix.count("E"), 1), accs[0].n_states + 1) is None
        return ck.member(accs[0], checker.parse_words(stdout, multi))
    if sub == "contains":
        if code == 0:
            return stdout == "CONTAINED\n" and ck.contains(accs[0], accs[1], None, sweep)
        words = checker.parse_words(stdout, multi)
        return ck.member(accs[0], words) and not ck.member(accs[1], words)
    if sub == "equiv":
        if code == 0:
            return stdout == "EQUIVALENT\n" and all(
                ck.member(accs[0], hw) == ck.member(accs[1], hw) for hw in sweep)
        words = checker.parse_words("\n".join(lines[1:]) + "\n", multi)
        left, right = ck.member(accs[0], words), ck.member(accs[1], words)
        return (left and not right) if lines[0] == "left_only" else (right and not left)
    if sub == "canon":
        acc = accs[0]
        if code == 0:
            return stdout == "COMPLETE\n"
        letters = tuple(tuple(t[1:-1].split(",")) for t in lines[1].split()[1:])
        seq = tuple(int(i) for i in lines[2].split()[1].split(","))
        words = tuple(tuple(l[t] for l in letters if l[t] != PAD) for t in range(acc.k))
        return (lines[0] == "INCOMPLETE" and checker.zip_letters(words) == letters
                and ck.violation(acc, words, seq))
    raise ValueError(key)


SETUPS = {
    "member-random": setup_member_random,
    "member-ham": setup_member_ham,
    "decide": setup_decide,
    "cli": setup_cli,
}
