import itertools
import random

import pytest

from hyperfa import hfa, hre
from hyperfa.errors import ArityMismatch, HreSyntaxError, UnknownSymbol
from hyperfa.hfa import Hyperword, Quantifier
from hyperfa.zipwords import PAD, ZipWord, all_letters

import oracles

A1_TEXT = "forall x1. forall x2. ([a,a]|[b,b])*([#,b]*|[b,#]*)"

ROUNDTRIP_CASES = [
    "forall x1. forall x2. ([a,a]|[b,b])*([#,b]*|[b,#]*)",
    "exists x. eps",
    "forall x. empty",
    "exists x. [a][a]*",
    "forall x1. exists x2. ([_,_])*([#,_])+",
    "exists x1. exists x2. ([a,b]|[b,a])([!a,_])*",
    "forall x. ([a]([b]|[a]))*[b]+",
    "exists x. ([a]*)*",
]


def hw(*words):
    return Hyperword.of([tuple(w) for w in words])


def test_parse_a1_shape():
    ast = hre.parse(A1_TEXT)
    assert [q for q, _ in ast.prefix] == [Quantifier.FORALL, Quantifier.FORALL]
    assert [v for _, v in ast.prefix] == ["x1", "x2"]
    assert ast.arity == 2
    assert isinstance(ast.body, hre.Concat)


def test_parse_eps():
    ast = hre.parse("exists x. eps")
    assert ast.prefix == ((Quantifier.EXISTS, "x"),)
    assert isinstance(ast.body, hre.Eps)


def test_parse_arity_mismatch():
    with pytest.raises(ArityMismatch):
        hre.parse("forall x1. [a,a]")


def test_parse_syntax_error_has_position():
    with pytest.raises(HreSyntaxError) as err:
        hre.parse("forall x1. ([a,a]")
    assert err.value.position is not None


def test_parse_rejects_missing_prefix():
    with pytest.raises(HreSyntaxError):
        hre.parse("[a][b]")


def test_parse_reserves_wildcard_name():
    with pytest.raises(HreSyntaxError):
        hre.parse("forall _. [a]")


def test_format_parse_identity():
    for text in ROUNDTRIP_CASES:
        ast = hre.parse(text)
        printed = hre.format_hre(ast)
        assert hre.parse(printed) == ast
        # printing is a fixpoint
        assert hre.format_hre(hre.parse(printed)) == printed


def test_compile_a1_member_examples():
    nfh = hre.compile_hre(hre.parse(A1_TEXT), "ab")
    assert hfa.member(nfh, hw("ab", "abb"))
    assert not hfa.member(nfh, hw("aab", "abb"))


def test_compile_exists_a_plus():
    nfh = hre.compile_hre(hre.parse("exists x. [a][a]*"), "ab")
    assert hfa.nonempty_exists(nfh) == hw("a")


def test_compile_forall_empty():
    nfh = hre.compile_hre(hre.parse("forall x. empty"), "ab")
    for s in [hw(""), hw("a"), hw("a", "bb")]:
        assert not hfa.member(nfh, s)


def test_compile_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        hre.compile_hre(hre.parse("exists x. [c]"), "ab")


def test_compile_has_no_epsilon_artifacts():
    # every compiled underlying transition consumes exactly one letter
    nfh = hre.compile_hre(hre.parse("exists x. ([a]*)*"), "ab")
    assert all(len(l) == 1 for _, l, _ in nfh.underlying.transitions)
    assert nfh.underlying.accepts(())
    assert nfh.underlying.accepts((("a",), ("a",)))
    assert not nfh.underlying.accepts((("b",),))


def matcher_agrees(text, sigma="ab", max_len=3):
    ast = hre.parse(text)
    nfh = hre.compile_hre(ast, sigma)
    letters = all_letters(sigma, ast.arity)
    for n in range(max_len + 1):
        for w in itertools.product(letters, repeat=n):
            direct = oracles.hre_match(ast.body, w, sigma)
            assert nfh.underlying.accepts(w) == direct, (text, w)


def test_compile_agrees_with_backtracking_matcher():
    for text in ROUNDTRIP_CASES:
        matcher_agrees(text, max_len=3)


def random_node(rng, k, depth):
    """Random body over sigma "ab" at arity k, nested at most depth deep."""
    roll = rng.randrange(10 if depth else 3)
    if roll == 0:
        return rng.choice((hre.Empty(), hre.Eps()))
    if roll < 3:
        comps = (hre.Sym("a"), hre.Sym("b"), hre.Pad(), hre.Any(), hre.NotSym("a"))
        return hre.TupleLetter(tuple(rng.choice(comps) for _ in range(k)))
    if roll < 7:
        kind = hre.Alt if roll < 5 else hre.Concat
        return kind(tuple(random_node(rng, k, depth - 1) for _ in range(rng.randint(2, 3))))
    return (hre.Star if roll < 9 else hre.Plus)(random_node(rng, k, depth - 1))


def test_compile_agrees_with_matcher_on_random_expressions():
    rng = random.Random(7)
    for _ in range(400):
        k = rng.randint(1, 2)
        body = random_node(rng, k, 4)
        prefix = tuple((Quantifier.EXISTS, f"x{i}") for i in range(k))
        nfh = hre.compile_hre(hre.HreAst(prefix, body), "ab")
        assert nfh.underlying.n_states == 1 + sum(1 for _ in hre._tuple_letters(body))
        letters = all_letters("ab", k)
        for n in range(4):
            for w in itertools.product(letters, repeat=n):
                assert nfh.underlying.accepts(w) == oracles.hre_match(body, w, "ab"), (body, w)


def test_wildcard_and_negation_never_match_pad():
    matcher_agrees("exists x1. exists x2. [_,#]([!a,_])*", max_len=2)
    nfh = hre.compile_hre(hre.parse("exists x1. exists x2. [_,#]"), "ab")
    assert not nfh.underlying.accepts(((PAD, PAD),))
    assert nfh.underlying.accepts((("b", PAD),))


def test_comments_and_whitespace():
    ast = hre.parse("forall x. // binder\n  [a]* // body\n")
    assert hre.format_hre(ast) == "forall x. [a]*"


# ------------------------------------------------------------------ policies

def test_policy_od_examples():
    od = hre.policy(hre.PolicyId.OD, {"l": "l"})
    nfh = hre.compile_hre(od, ("l", "m"))
    assert hfa.member(nfh, hw("ll"))
    for s in [hw("lm", "ml"), hw("ll", "lm"), hw("l", "m", "lm")]:
        assert hfa.member(nfh, s) == oracles.brute_member(nfh, s.words)


def test_policy_dc_singleton_accepted():
    dc = hre.policy(hre.PolicyId.DC, {"li": "li", "pw": "pw", "lo": "lo"})
    nfh = hre.compile_hre(dc, ("li", "pw", "lo"))
    assert hfa.member(nfh, hw(("li", "pw", "lo")))
    assert hfa.member(nfh, Hyperword.of([("li", "pw", "lo", "lo")]))
    assert not hfa.member(nfh, Hyperword.of([("li", "lo")]))


def test_policy_ni_shape():
    ni = hre.policy(hre.PolicyId.NI, {"l": "l", "llam": "m"})
    assert hre.format_hre(ni) == "forall x1. exists x2. [l,m]*"
    nfh = hre.compile_hre(ni, ("l", "m"))
    assert hfa.member(nfh, hw(""))
    assert not hfa.member(nfh, hw("l"))
    assert not hfa.member(nfh, hw("l", "m"))


def test_policy_gni_selector_semantics():
    sigma = ("h", "l", "m", "n", "o", "p")
    gni = hre.policy(
        hre.PolicyId.GNI,
        {"h": "h", "l": "l", "hl": "m", "hbar_l": "n", "h_lbar": "o", "hbar_lbar": "p"},
    )
    nfh = hre.compile_hre(gni, sigma)
    assert nfh.k == 3
    assert hfa.member(nfh, hw("p"))
    assert hfa.member(nfh, hw("m", "p"))
    assert not hfa.member(nfh, hw("h"))
    for s in [hw("p"), hw("h"), hw("m", "n")]:
        assert hfa.member(nfh, s) == oracles.brute_member(nfh, s.words)


def test_policy_tsni_examples():
    tsni = hre.policy(hre.PolicyId.TSNI, {"l": "l"})
    nfh = hre.compile_hre(tsni, ("l", "m"))
    assert hfa.member(nfh, hw("ll"))
    assert hfa.member(nfh, hw("lml", "lll"))
    assert not hfa.member(nfh, hw("ll", "lm"))
    assert not hfa.member(nfh, hw("l"))


def test_policy_binding_validation():
    with pytest.raises(UnknownSymbol):
        hre.policy(hre.PolicyId.OD, {})
    with pytest.raises(UnknownSymbol):
        hre.policy(hre.PolicyId.OD, {"l": "l", "h": "h"})


def test_all_policies_compile_and_roundtrip():
    cases = [
        (hre.PolicyId.NI, {"l": "l", "llam": "m"}, ("l", "m")),
        (hre.PolicyId.OD, {"l": "l"}, ("l", "m")),
        (
            hre.PolicyId.GNI,
            {"h": "h", "l": "l", "hl": "m", "hbar_l": "n", "h_lbar": "o",
             "hbar_lbar": "p"},
            ("h", "l", "m", "n", "o", "p"),
        ),
        (hre.PolicyId.DC, {"li": "li", "pw": "pw", "lo": "lo"}, ("li", "pw", "lo")),
        (hre.PolicyId.TSNI, {"l": "l"}, ("l", "m")),
    ]
    for pid, bindings, sigma in cases:
        ast = hre.policy(pid, bindings)
        assert hre.parse(hre.format_hre(ast)) == ast
        nfh = hre.compile_hre(ast, sigma)
        assert nfh.k == ast.arity


def test_policies_print_as_their_published_text():
    gni_bindings = {"h": "h", "l": "l", "hl": "m", "hbar_l": "n", "h_lbar": "o",
                    "hbar_lbar": "p"}
    published = [
        (hre.PolicyId.NI, {"l": "l", "llam": "m"}, "forall x1. exists x2. [l,m]*"),
        (hre.PolicyId.OD, {"l": "l"},
         "forall x1. forall x2. [l,l]+|[!l,!l][_,_]*|[l,!l][_,_]*|[!l,l][_,_]*"),
        (hre.PolicyId.GNI, gni_bindings,
         "forall x1. forall x2. exists x3. ([h,l,m]|[!h,l,n]|[h,!l,o]|[!h,!l,p])*"),
        (hre.PolicyId.DC, {"li": "li", "pw": "pw", "lo": "lo"},
         "forall x1. forall x2. [li,li][pw,pw][lo,lo]+"),
        (hre.PolicyId.TSNI, {"l": "l"},
         "forall x1. forall x2. [l,l][_,_]*[l,l]|[!l,!l][_,_]*|[l,!l][_,_]*|[!l,l][_,_]*"),
    ]
    for pid, bindings, text in published:
        assert hre.format_hre(hre.policy(pid, bindings)) == text


def test_policy_keyword_named_bindings_are_symbols():
    ni = hre.policy(hre.PolicyId.NI, {"l": "eps", "llam": "forall"})
    assert ni.body == hre.Star(hre.TupleLetter((hre.Sym("eps"), hre.Sym("forall"))))
    for name in ("empty", "exists", "x1"):
        od = hre.policy(hre.PolicyId.OD, {"l": name})
        assert od.body.items[0] == hre.Plus(hre.TupleLetter((hre.Sym(name),) * 2))
        assert hre.symbols(od) == [name]


def test_symbols_names_plain_and_negated_symbols_only():
    ast = hre.parse("forall x1. forall x2. [b,!a]([_,#]|[c,c])*|eps|empty")
    assert hre.symbols(ast) == ["a", "b", "c"]
    assert hre.symbols(hre.parse("exists x1. exists x2. ([_,#][#,_])+")) == []
    assert hre.symbols(hre.parse("exists x. eps")) == []
