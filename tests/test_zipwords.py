import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperfa.errors import IllegalZipWord, IndexOutOfRange, InvalidArity, ResourceLimit
from hyperfa.zipwords import (
    PAD,
    IndexSequence,
    ZipWord,
    all_letters,
    apply_sequence,
    concat_tracks,
    is_exact_zip,
    is_legal,
    lift,
    strip_pads,
    unzip,
    zip_words,
)

import oracles


def zw(arity, *letters):
    return ZipWord(arity, tuple(letters))


def test_zip_three_words():
    w = zip_words([("a", "a", "b"), ("b", "c"), ("a", "b", "d", "d")])
    assert w.letters == (
        ("a", "b", "a"),
        ("a", "c", "b"),
        ("b", PAD, "d"),
        (PAD, PAD, "d"),
    )
    assert is_legal(w)


def test_zip_empty_word():
    w = zip_words([()])
    assert w.arity == 1 and len(w) == 0


def test_zip_equal_lengths_no_padding():
    w = zip_words([("a", "b"), ("a", "b")])
    assert w.letters == (("a", "a"), ("b", "b"))


def test_unzip_three_words():
    w = zw(3, ("a", "b", "a"), ("a", "c", "b"), ("b", PAD, "d"), (PAD, PAD, "d"))
    assert unzip(w) == (("a", "a", "b"), ("b", "c"), ("a", "b", "d", "d"))


def test_unzip_empty():
    assert unzip(zw(3)) == ((), (), ())


def test_unzip_illegal_raises():
    with pytest.raises(IllegalZipWord):
        unzip(zw(2, ("a", PAD), ("b", "b")))


def test_is_legal():
    assert is_legal(zw(2, ("a", "a"), (PAD, "b"), (PAD, "b")))
    assert not is_legal(zw(2, ("a", PAD), ("b", "b")))
    assert is_legal(zw(2))


def test_is_exact_zip_rejects_trailing_pad_column():
    assert is_exact_zip(zw(2, ("a", "b")))
    assert not is_exact_zip(zw(2, ("a", "b"), (PAD, PAD)))
    assert is_exact_zip(zw(2))


def test_strip_pads():
    assert strip_pads(zw(2, ("a", "b"), (PAD, PAD))) == zw(2, ("a", "b"))
    assert strip_pads(zw(1)) == zw(1)


def test_apply_sequence_swap():
    w = zw(2, ("a", "b"), ("c", "d"))
    assert apply_sequence(w, IndexSequence((2, 1))).letters == (("b", "a"), ("d", "c"))


def test_apply_sequence_identity():
    w = zw(2, ("a", "b"), (PAD, "d"))
    assert apply_sequence(w, IndexSequence((1, 2))) == w


def test_apply_sequence_duplicate_track():
    w = zw(2, ("a", "b"), (PAD, "d"))
    assert apply_sequence(w, IndexSequence((2, 2))).letters == (("b", "b"), ("d", "d"))


def test_apply_sequence_out_of_range():
    with pytest.raises(IndexOutOfRange):
        apply_sequence(zw(2, ("a", "b")), IndexSequence((1, 3)))


def test_concat_tracks():
    assert concat_tracks(zip_words([("a",)]), zip_words([("b", "b")])) == zip_words(
        [("a",), ("b", "b")]
    )
    assert concat_tracks(zip_words([("a", "b")]), zip_words([("c", "d")])).letters == (
        ("a", "c"),
        ("b", "d"),
    )


def test_concat_tracks_empty_side():
    w = zip_words([("a", "b"), ("b",)])
    assert concat_tracks(w, ZipWord(0, ())) == w


def test_lift():
    assert lift(zw(1, ("a",), ("b",)), 2).letters == (("a", "a"), ("b", "b"))
    w = zw(2, ("a", PAD))
    assert lift(w, 2) == w
    assert lift(w, 3).letters == (("a", PAD, PAD),)
    with pytest.raises(InvalidArity):
        lift(zw(2, ("a", "b")), 1)


def test_lift_commutes_with_zip():
    words = [("a", "b"), ("b",)]
    assert lift(zip_words(words), 3) == zip_words(words + [words[-1]])


def test_index_sequence_validation():
    assert IndexSequence((2, 1)).is_permutation
    assert not IndexSequence((1, 1)).is_permutation
    with pytest.raises(IndexOutOfRange):
        IndexSequence((0, 1))


def test_all_letters_order_and_size():
    letters = all_letters(("b", "a"), 2)
    assert len(letters) == 9
    assert letters[0] == (PAD, PAD)
    assert letters == sorted(letters)
    assert all_letters(("a",), 1, with_pad=False) == [("a",)]


def listed_letters(sigma, arity, with_pad=True):
    # the alphabet as a plain list, built the way it was before it became lazy
    symbols = sorted(set(sigma) | ({PAD} if with_pad else set()))
    return [tuple(t) for t in itertools.product(symbols, repeat=arity)]


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
@pytest.mark.parametrize("sigma", ["ab", "abc", ("x1", "y")])
def test_lazy_alphabet_behaves_like_the_listed_one(sigma, arity):
    for with_pad in (True, False):
        lazy = all_letters(sigma, arity, with_pad)
        listed = listed_letters(sigma, arity, with_pad)
        assert len(lazy) == len(listed)
        assert list(lazy) == listed
        assert [lazy[i] for i in range(-len(listed), len(listed))] == listed + listed
        assert lazy[1:-1] == tuple(listed[1:-1])
        with pytest.raises(IndexError):
            lazy[len(listed)]
        assert lazy == listed and listed == lazy
        assert lazy == tuple(listed) and tuple(listed) == lazy
        assert lazy != listed[:-1] and lazy != listed[::-1]
        assert lazy == all_letters(sigma, arity, with_pad)
        assert lazy != all_letters(sigma, arity + 1, with_pad)
        assert lazy != all_letters(tuple(sigma) + ("z",), arity, with_pad)
        assert all(letter in lazy for letter in listed)
        assert lazy.index(listed[-1]) == len(listed) - 1
        outside = [
            listed[0][:-1],
            listed[0] + listed[0][:1],
            ("q",) + listed[0][1:],
            list(listed[0]),
            "".join(listed[0]),
        ]
        assert not any(letter in lazy for letter in outside)
    assert (PAD,) * arity not in all_letters(sigma, arity, with_pad=False)


def test_lazy_alphabet_is_not_built_until_iterated():
    big = all_letters("ab", 12)
    assert len(big) == 3 ** 12
    assert ("a",) * 11 + (PAD,) in big
    assert big == all_letters("ba", 12)
    with pytest.raises(ResourceLimit, match="tuple alphabet of 531441 letters exceeds the cap of 500000"):
        list(big)
    with pytest.raises(ResourceLimit):
        big[0]


words_st = st.lists(
    st.lists(st.sampled_from("abc"), max_size=4).map(tuple), min_size=1, max_size=4
)


@settings(max_examples=200)
@given(words_st)
def test_roundtrip_matches_oracle(words):
    w = zip_words(words)
    assert w.letters == oracles.oracle_zip(words)
    assert is_legal(w)
    assert unzip(w) == tuple(tuple(x) for x in words)


@settings(max_examples=200)
@given(words_st, st.data())
def test_sequence_composition(words, data):
    k = len(words)
    w = zip_words(words)
    idx = st.tuples(*([st.integers(1, k)] * k))
    z1 = IndexSequence(data.draw(idx))
    z2 = IndexSequence(data.draw(idx))
    once = apply_sequence(apply_sequence(w, z1), z2)
    assert once == apply_sequence(w, z1.compose(z2))


@settings(max_examples=200)
@given(words_st, st.data())
def test_sequence_selects_tracks(words, data):
    k = len(words)
    w = zip_words(words)
    seq = IndexSequence(data.draw(st.tuples(*([st.integers(1, k)] * k))))
    selected = unzip(apply_sequence(w, seq))
    assert selected == tuple(tuple(words[i - 1]) for i in seq.indices)
