"""The package's immutable records: value equality, repr, pickling."""

import copy
import pickle

import pytest

from hyperfa import canon, hre, learn
from hyperfa.errors import IndexOutOfRange, InvalidArity
from hyperfa.hfa import Hyperword, Quantifier
from hyperfa.zipwords import IndexSequence, ZipWord

EPS = hre.Eps()

# (build, the repr it had as a dataclass, a same-shaped record of another class)
RECORDS = [
    (lambda: ZipWord(2, (("a", "#"),)), "ZipWord(arity=2, letters=(('a', '#'),))", None),
    (lambda: IndexSequence((2, 1)), "IndexSequence(indices=(2, 1))", None),
    (lambda: Hyperword.of([("a",), ()]), "Hyperword(words=((), ('a',)))", None),
    (lambda: canon.CompletenessReport(False, (ZipWord(1, (("a",),)), IndexSequence((1,)))),
     "CompletenessReport(complete=False, counterexample=(ZipWord(arity=1, letters=(('a',),)),"
     " IndexSequence(indices=(1,))))", None),
    (lambda: learn.LearnerConfig(max_k=2),
     "LearnerConfig(max_k=2, max_iterations=200, max_word_length=64)", None),
    (lambda: hre.Sym("a"), "Sym(name='a')", lambda: hre.NotSym("a")),
    (lambda: hre.NotSym("b"), "NotSym(name='b')", lambda: hre.Sym("b")),
    (hre.Pad, "Pad()", hre.Any),
    (hre.Any, "Any()", hre.Pad),
    (hre.Empty, "Empty()", hre.Eps),
    (hre.Eps, "Eps()", hre.Empty),
    (lambda: hre.TupleLetter((hre.Sym("a"), hre.Pad())),
     "TupleLetter(comps=(Sym(name='a'), Pad()))", None),
    (lambda: hre.Alt((EPS, hre.Empty())), "Alt(items=(Eps(), Empty()))",
     lambda: hre.Concat((EPS, hre.Empty()))),
    (lambda: hre.Concat((EPS, EPS)), "Concat(items=(Eps(), Eps()))",
     lambda: hre.Alt((EPS, EPS))),
    (lambda: hre.Star(EPS), "Star(item=Eps())", lambda: hre.Plus(EPS)),
    (lambda: hre.Plus(EPS), "Plus(item=Eps())", lambda: hre.Star(EPS)),
    (lambda: hre.HreAst(((Quantifier.FORALL, "x"),), EPS),
     "HreAst(prefix=((<Quantifier.FORALL: 'A'>, 'x'),), body=Eps())", None),
    (lambda: hre._Token("NAME", "a", 3), "_Token(kind='NAME', text='a', pos=3)", None),
]


@pytest.mark.parametrize("build, text, twin", RECORDS, ids=[r[1].split("(")[0] for r in RECORDS])
def test_records_are_frozen_values(build, text, twin):
    record = build()
    assert record == build() and hash(record) == hash(build())
    if twin is not None:
        assert record != twin() and twin() != record
    assert repr(record) == text
    field = (type(record).__slots__ or ("name",))[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is type(record) and clone == record and repr(clone) == text


def test_records_validate_and_take_their_fields_as_before():
    with pytest.raises(InvalidArity):
        ZipWord(-1, ())
    with pytest.raises(IndexOutOfRange):
        IndexSequence((3,))
    with pytest.raises(ValueError):
        learn.LearnerConfig(max_k=0)
    assert ZipWord(arity=1, letters=()) == ZipWord(1, ())
    assert learn.LearnerConfig(max_word_length=1).max_word_length == 1
    # records without their own __init__ take exactly their fields, by position
    with pytest.raises(TypeError):
        hre.Sym()
    with pytest.raises(TypeError):
        hre.Star(EPS, EPS)
