"""Active learning of alternation-free acceptors from queries.

The observation table stores answers to membership queries on hyperwords
decoded from row-plus-column zip encodings; encodings that decode to no
hyperword (pad before symbol, or an all-pad letter) get a False entry
without consulting the teacher.  Counterexamples larger than the current
variable count raise it; the table is rebuilt by widening every label and
refilling entries.

The automated teacher answers equivalence queries with hfa.contains run
both ways, the one selection search that decides containment.  Each
witness is shrunk greedily by dropping words while target and candidate
still disagree, so counterexamples are irreducible, though not always of
least size.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Protocol

from .canon import check_complete
from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    InvalidArity,
    QueryBudgetExceeded,
    ResourceLimit,
    TableNotClosed,
    TeacherInconsistent,
    WrongFragment,
)
from .fa import Fa
from .hfa import (
    Fragment,
    Hyperword,
    Nfh,
    Quantifier,
    contains as hfa_contains,
    member as hfa_member,
)
from .zipwords import (
    Letter,
    ZipWord,
    _Record,
    all_letters,
    apply_sequence,
    is_exact_zip,
    lift,
    strip_pads,
    unzip,
    zip_words,
)

TraceFn = Callable[[dict], None]
_EmitFn = Callable[[str, dict], None]


class Teacher(Protocol):
    sigma: tuple[str, ...]

    def member(self, hw: Hyperword) -> bool: ...

    def equivalent(self, candidate: Nfh) -> Optional[tuple[Hyperword, bool]]: ...


class LearnerConfig(_Record):
    __slots__ = ("max_k", "max_iterations", "max_word_length")

    def __init__(self, max_k: int = 4, max_iterations: int = 200, max_word_length: int = 64):
        if min(max_k, max_iterations, max_word_length) < 1:
            raise ValueError("learner bounds must be positive")
        super().__init__(max_k, max_iterations, max_word_length)


class ObservationTable:
    """Rows D (prefix-closed) and boundary D.letter, columns E (suffix-closed)."""

    def __init__(
        self,
        teacher: Teacher,
        sigma,
        k: int = 1,
        trace: Optional[_EmitFn] = None,
        budget: Optional[list[int]] = None,
    ):
        self.teacher = teacher
        self.sigma = tuple(sorted(set(sigma)))
        self.k = k
        self.letters = all_letters(self.sigma, k)
        self.rows: list[ZipWord] = [ZipWord(k, ())]
        self.columns: list[ZipWord] = [ZipWord(k, ())]
        self.trace = trace
        self.budget = budget if budget is not None else [1_000_000]
        self.query_cap = self.budget[0]
        self._cache: dict[tuple[Letter, ...], bool] = {}

    def entry_letters(self, word: tuple[Letter, ...]) -> bool:
        if word in self._cache:
            return self._cache[word]
        zw = ZipWord(self.k, word)
        if not is_exact_zip(zw):
            value = False
        else:
            hw = Hyperword.of(unzip(zw))
            if self.budget[0] <= 0:
                raise QueryBudgetExceeded(f"membership queries exceed the cap of {self.query_cap}")
            self.budget[0] -= 1
            value = self.teacher.member(hw)
            if self.trace:
                self.trace("query", {"hyperword": [list(w) for w in hw.words],
                                     "answer": value})
        self._cache[word] = value
        return value

    def entry(self, d: ZipWord, e: ZipWord) -> bool:
        return self.entry_letters(d.letters + e.letters)

    def row_of(self, prefix_letters: tuple[Letter, ...]) -> tuple[bool, ...]:
        return tuple(self.entry_letters(prefix_letters + e.letters) for e in self.columns)

    def add_column_with_suffixes(self, zw: ZipWord) -> bool:
        existing = {c.letters for c in self.columns}
        grew = False
        for i in range(len(zw.letters) + 1):
            suffix = zw.letters[i:]
            if suffix not in existing:
                self.columns.append(ZipWord(self.k, suffix))
                existing.add(suffix)
                grew = True
        return grew


def lift_table(table: ObservationTable, k_new: int) -> ObservationTable:
    """Widen all labels by duplicating their last track; entries refill lazily."""
    if k_new <= table.k:
        raise InvalidArity(f"cannot lift arity {table.k} to {k_new}")
    lifted = ObservationTable(
        table.teacher, table.sigma, k_new, trace=table.trace, budget=table.budget
    )
    lifted.query_cap = table.query_cap
    lifted.rows = [lift(d, k_new) for d in table.rows]
    lifted.columns = [lift(e, k_new) for e in table.columns]
    return lifted


def close_and_consist(table: ObservationTable) -> ObservationTable:
    """Promote unmatched boundary rows until the table is closed.

    The table is consistent by construction, so no consistency split is
    searched for: a row is promoted only when its vector is new, a new
    column only splits rows, ``lift_table`` keeps every entry (lift(d) +
    lift(e) decodes to the hyperword of d + e), and counterexamples add all
    their suffixes as columns.  No two rows ever share a vector.
    """
    while True:
        row_set = {table.row_of(d.letters) for d in table.rows}
        boundary = next((d.letters + (letter,) for d in table.rows for letter in table.letters
                         if table.row_of(d.letters + (letter,)) not in row_set), None)
        if boundary is None:
            return table
        table.rows.append(ZipWord(table.k, boundary))


def build_candidate(table: ObservationTable, fragment: Fragment) -> Nfh:
    """Deterministic acceptor whose states are the distinct row vectors."""
    if fragment is Fragment.FORALL_ONLY:
        quant = Quantifier.FORALL
    elif fragment is Fragment.EXISTS_ONLY:
        quant = Quantifier.EXISTS
    else:
        raise WrongFragment("candidates are alternation free")
    state_of: dict[tuple[bool, ...], int] = {}
    reps: list[tuple[Letter, ...]] = []
    for d in table.rows:
        r = table.row_of(d.letters)
        if r not in state_of:
            state_of[r] = len(reps)
            reps.append(d.letters)
    transitions = []
    for r, q in sorted(state_of.items(), key=lambda item: item[1]):
        rep = reps[q]
        for letter in table.letters:
            succ = table.row_of(rep + (letter,))
            if succ not in state_of:
                raise TableNotClosed("boundary row without a matching state")
            transitions.append((q, letter, state_of[succ]))
    accepting = [q for r, q in state_of.items() if r[0]]
    fa = Fa(table.letters, len(reps), [0], accepting, transitions)
    return Nfh(table.sigma, (quant,) * table.k, fa)


def learn(
    teacher: Teacher,
    fragment: Fragment,
    config: Optional[LearnerConfig] = None,
    trace: Optional[TraceFn] = None,
) -> Nfh:
    """Query loop: close the table, propose, repair completeness, ask for
    equivalence, and fold counterexamples back into the table.

    A counterexample larger than the current variable count sets the count
    to its size; smaller ones contribute the zip encoding of the first
    ordering of their words on which the candidate disagrees with the
    counterexample's sign.
    """
    if fragment not in (Fragment.FORALL_ONLY, Fragment.EXISTS_ONLY):
        raise WrongFragment("only alternation-free acceptors are learnable")
    config = config or LearnerConfig()
    budget = [config.max_iterations * 2000]
    iteration = [0]

    def emit(event: str, detail: dict) -> None:
        if trace:
            trace({"event": event, "iteration": iteration[0], "k": table.k,
                   "detail": detail})

    table = ObservationTable(teacher, teacher.sigma, 1, trace=emit, budget=budget)
    while True:
        iteration[0] += 1
        if iteration[0] > config.max_iterations:
            raise BudgetExceeded(f"learner iterations exceed the cap of {config.max_iterations}")
        measure = len(table.rows) + len(table.columns) + table.k
        close_and_consist(table)
        candidate = build_candidate(table, fragment)
        emit("candidate", {"states": candidate.underlying.n_states})
        report = check_complete(candidate, max_k=config.max_k)
        if not report.complete:
            word, seq = report.counterexample
            image = strip_pads(apply_sequence(word, seq))
            emit("incomplete", {"word": [list(l) for l in word.letters],
                                "selection": list(seq.indices)})
            grew = table.add_column_with_suffixes(word)
            grew |= table.add_column_with_suffixes(image)
            assert grew or len(table.rows) + len(table.columns) + table.k > measure
        else:
            answer = teacher.equivalent(candidate)
            if answer is None:
                final = candidate.underlying.minimize()
                emit("done", {"states": final.n_states})
                return Nfh(table.sigma, candidate.prefix, final)
            counterexample, positive = answer
            emit("counterexample", {
                "words": [list(w) for w in counterexample.words],
                "sign": "positive" if positive else "negative",
            })
            if len(counterexample) > table.k:
                k_new = len(counterexample)
                if k_new > config.max_k:
                    raise BudgetExceeded(f"{k_new} variables exceed the cap of {config.max_k}")
                table = lift_table(table, k_new)
                emit("lift", {"to": k_new})
                table.add_column_with_suffixes(zip_words(counterexample.words))
            else:
                ordering = _disagreeing_ordering(candidate, counterexample, positive, table.k)
                if ordering is None:
                    raise TeacherInconsistent(
                        "no ordering of the counterexample separates the candidate"
                    )
                table.add_column_with_suffixes(ordering)
        assert len(table.rows) + len(table.columns) + table.k > measure, (
            "learner iteration made no progress"
        )


def _disagreeing_ordering(
    candidate: Nfh, hw: Hyperword, positive: bool, k: int
) -> Optional[ZipWord]:
    """First k-tuple covering hw whose encoding the candidate treats
    contrary to the counterexample's sign."""
    full = set(hw.words)
    for combo in itertools.product(sorted(full), repeat=k):
        if set(combo) != full:
            continue
        encoded = zip_words(combo)
        if candidate.underlying.accepts(encoded.letters) != positive:
            return encoded
    return None


# ---------------------------------------------------------------- teacher


class AutomatedTeacher:
    """Answers queries from a known alternation-free acceptor.

    Candidates must share the target's fragment, because comparing the
    sizes up to the larger arity decides equivalence only then.
    Equivalence counterexamples are irreducible: dropping any one of their
    words makes target and candidate agree.  They are found by the
    containment search both ways and shrunk greedily, so their size is at
    most the larger arity but not always the least.  Of the two
    directions the least (size, longest word, words) is returned, signed
    by the target's own answer.  A counterexample longer than the config's
    max_word_length raises ResourceLimit.
    """

    def __init__(self, target: Nfh, config: Optional[LearnerConfig] = None):
        if target.fragment not in (Fragment.FORALL_ONLY, Fragment.EXISTS_ONLY):
            raise WrongFragment("automated teacher needs an alternation-free target")
        self.target = target
        self.sigma = target.sigma
        self.config = config or LearnerConfig()
        self._members: dict[tuple, bool] = {}

    def member(self, hw: Hyperword) -> bool:
        key = hw.words
        if key not in self._members:
            self._members[key] = hfa_member(self.target, hw)
        return self._members[key]

    def equivalent(self, candidate: Nfh) -> Optional[tuple[Hyperword, bool]]:
        if candidate.sigma != self.sigma:
            raise AlphabetMismatch("candidate alphabet differs from the target's")
        if candidate.fragment is not self.target.fragment:
            raise WrongFragment(
                f"candidate fragment {candidate.fragment.value} differs from the "
                f"target's {self.target.fragment.value}"
            )
        found = []
        for a1, a2 in ((candidate, self.target), (self.target, candidate)):
            witness = hfa_contains(a1, a2, max_k=candidate.k + self.target.k)
            if witness is not None:
                words = self._shrink(candidate, witness).words
                found.append((len(words), max(map(len, words)), words))
        if not found:
            return None
        _size, length, words = min(found)
        bound = self.config.max_word_length
        if length > bound:
            raise ResourceLimit(
                f"counterexample length {length} exceeds the word-length bound {bound}"
            )
        final = Hyperword.of(words)
        return final, self.member(final)

    def _shrink(self, candidate: Nfh, hw: Hyperword) -> Hyperword:
        """Drop the first word whose removal keeps the target and the
        candidate disagreeing, until no word can go."""
        while len(hw) > 1:
            smaller = (Hyperword.of(hw.words[:i] + hw.words[i + 1:]) for i in range(len(hw)))
            trial = next((t for t in smaller if self.member(t) != hfa_member(candidate, t)), None)
            if trial is None:
                break
            hw = trial
        return hw
