"""Zip-encoded word tuples.

A word tuple (u_1, ..., u_k) is encoded as a single word over k-tuples of
symbols: position j of the encoding carries the j-th symbol of every track,
with the reserved pad token filling tracks that have already ended.  All
operations below work on that encoding.

Words are tuples of symbol tokens (strings).  The pad token is the reserved
string "#"; it is never a member of any declared alphabet.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Iterator, Sequence
from typing import Optional

from .errors import IllegalZipWord, IndexOutOfRange, InvalidArity, ResourceLimit

PAD = "#"

Word = tuple[str, ...]
Letter = tuple[str, ...]

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def check_symbol(token: str) -> str:
    """Validate a plain alphabet symbol (pad and the bare wildcard token are
    reserved)."""
    if token == PAD:
        raise InvalidArity(f"{PAD!r} is reserved for padding and cannot be a symbol")
    if token == "_" or not _TOKEN_RE.match(token):
        raise InvalidArity(f"bad symbol token {token!r}")
    return token


def parse_word(text: str, multichar: bool = False) -> Word:
    """Parse a word: juxtaposed single characters, or '.'-separated tokens.

    The pad token is rejected: plain words never contain padding.
    """
    text = text.strip()
    if not text:
        return ()
    tokens = text.split(".") if multichar else list(text)
    return tuple(check_symbol(t) for t in tokens)


def word_text(word: Word, multichar: bool = False) -> str:
    sep = "." if multichar else ""
    return sep.join(word)


class _Record:
    """Immutable value record whose fields are its class's __slots__.

    Records of the same class are equal when their fields are; the hash,
    the repr (``Name(field=value, ...)``), pickling and copying all go
    through the field tuple ``_key()``.  A subclass without its own
    __init__ takes its fields positionally.  The records built on hot paths
    set their fields in their own __init__ with object.__setattr__, and the
    ones compared or hashed there define _key too: both are faster than the
    generic loops over __slots__.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key()


class ZipWord(_Record):
    """Immutable word over k-tuples of symbols (k = arity, possibly 0)."""

    __slots__ = ("arity", "letters")

    def __init__(self, arity: int, letters: tuple[Letter, ...]) -> None:
        if arity < 0:
            raise InvalidArity("arity must be >= 0")
        for letter in letters:
            if len(letter) != arity:
                raise InvalidArity(
                    f"letter {letter!r} has arity {len(letter)}, expected {arity}"
                )
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "letters", letters)

    def _key(self) -> tuple:
        return (self.arity, self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def track(self, i: int) -> Word:
        """Track i (1-based), pad letters dropped."""
        if not 1 <= i <= self.arity:
            raise IndexOutOfRange(f"track {i} outside [1..{self.arity}]")
        return tuple(l[i - 1] for l in self.letters if l[i - 1] != PAD)


class IndexSequence(_Record):
    """Length-k sequence of 1-based track indices in [1..k]."""

    __slots__ = ("indices",)

    def __init__(self, indices: tuple[int, ...]) -> None:
        k = len(indices)
        for i in indices:
            if not 1 <= i <= k:
                raise IndexOutOfRange(f"index {i} outside [1..{k}]")
        object.__setattr__(self, "indices", indices)

    def _key(self) -> tuple:
        return (self.indices,)

    @property
    def is_permutation(self) -> bool:
        return len(set(self.indices)) == len(self.indices)

    def compose(self, other: "IndexSequence") -> "IndexSequence":
        """self after other: result(i) = self(other(i))."""
        return IndexSequence(tuple(self.indices[j - 1] for j in other.indices))


def zip_words(words: Sequence[Word]) -> ZipWord:
    """Encode a word tuple; shorter tracks are padded on the right."""
    n = max((len(w) for w in words), default=0)
    letters = tuple(
        tuple(w[j] if j < len(w) else PAD for w in words) for j in range(n)
    )
    return ZipWord(len(words), letters)


def is_legal(w: ZipWord) -> bool:
    """True iff every track is a run of symbols followed by a run of pads."""
    dead = [False] * w.arity
    for letter in w.letters:
        for i, sym in enumerate(letter):
            if sym == PAD:
                dead[i] = True
            elif dead[i]:
                return False
    return True


def unzip(w: ZipWord) -> tuple[Word, ...]:
    """Recover the word tuple of a legal encoding."""
    if not is_legal(w):
        raise IllegalZipWord(f"cannot unzip {w.letters!r}")
    return tuple(w.track(i) for i in range(1, w.arity + 1))


def is_exact_zip(w: ZipWord) -> bool:
    """True iff w == zip_words(unzip(w)): legal and no all-pad letter."""
    if w.arity == 0:
        return len(w) == 0
    return is_legal(w) and all(any(s != PAD for s in l) for l in w.letters)


def strip_pads(w: ZipWord) -> ZipWord:
    """Drop trailing all-pad letters."""
    letters = list(w.letters)
    while letters and all(s == PAD for s in letters[-1]):
        letters.pop()
    return ZipWord(w.arity, tuple(letters))


def apply_sequence(w: ZipWord, seq: IndexSequence) -> ZipWord:
    """Select tracks letterwise: result letter j, track i = w letter j, track seq(i).

    The result has the same length as w; for legal w its tracks are the
    selected tracks of w up to re-padding.
    """
    if len(seq.indices) != w.arity:
        raise IndexOutOfRange(
            f"sequence of length {len(seq.indices)} applied to arity {w.arity}"
        )
    letters = tuple(tuple(l[i - 1] for i in seq.indices) for l in w.letters)
    return ZipWord(w.arity, letters)


def concat_tracks(w1: ZipWord, w2: ZipWord) -> ZipWord:
    """Tuple concatenation: re-encode (tracks of w1, tracks of w2).

    Both operands must be legal; the result has arity k1 + k2 and is padded
    to the length of the longest track overall.
    """
    return zip_words(unzip(w1) + unzip(w2))


def lift(w: ZipWord, new_arity: int) -> ZipWord:
    """Widen each letter by duplicating its last component."""
    if new_arity < w.arity:
        raise InvalidArity(f"cannot lift arity {w.arity} down to {new_arity}")
    if w.arity == 0 and len(w) > 0:
        raise InvalidArity("cannot lift a nonempty arity-0 word")
    extra = new_arity - w.arity
    letters = tuple(l + (l[-1],) * extra for l in w.letters)
    return ZipWord(new_arity, letters)


# Materializing a tuple alphabet above this many letters raises ResourceLimit.
MAX_LETTERS = 500_000


class TupleAlphabet(Sequence):
    """Every arity-tuple over symbols, in canonical (sorted) order.

    The value is the pair (symbols, arity): len and `in` are arithmetic, and
    equality with another TupleAlphabet compares the pair.  The letters are
    built on first iteration or indexing, at most MAX_LETTERS of them, and
    kept; equality with a plain tuple or list compares letters.
    """

    def __init__(self, symbols: Iterable[str], arity: int):
        self.symbols = tuple(sorted(set(symbols)))
        self.arity = arity
        self._symbol_set = frozenset(self.symbols)
        self._size = len(self.symbols) ** arity
        self._letters: Optional[tuple[Letter, ...]] = None

    def __len__(self) -> int:
        return self._size

    def __contains__(self, letter: object) -> bool:
        return (
            type(letter) is tuple
            and len(letter) == self.arity
            and self._symbol_set.issuperset(letter)
        )

    @property
    def letters(self) -> tuple[Letter, ...]:
        if self._letters is None:
            if self._size > MAX_LETTERS:
                raise ResourceLimit(
                    f"tuple alphabet of {self._size} letters exceeds the cap of {MAX_LETTERS}"
                )
            self._letters = tuple(itertools.product(self.symbols, repeat=self.arity))
        return self._letters

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, index):
        return self.letters[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TupleAlphabet):
            return (self.symbols, self.arity) == (other.symbols, other.arity)
        if isinstance(other, (tuple, list)):
            return len(other) == self._size and self.letters == tuple(other)
        return NotImplemented

    __hash__ = None  # equal to plain sequences, which hash differently

    def __repr__(self) -> str:
        return f"TupleAlphabet({self.symbols!r}, {self.arity})"


def all_letters(sigma: Iterable[str], arity: int, with_pad: bool = True) -> TupleAlphabet:
    """Every arity-tuple over sigma (plus the pad token), in canonical order."""
    return TupleAlphabet(set(sigma) | ({PAD} if with_pad else set()), arity)
