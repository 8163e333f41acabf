"""Hyperregular expressions: quantifier-prefixed regexes over tuple letters.

Concrete syntax
    expr    := quant+ body
    quant   := ('forall' | 'exists') NAME '.'
    body    := branch ('|' branch)*
    branch  := piece+
    piece   := unit ('*' | '+')*
    unit    := '(' body ')' | 'eps' | 'empty' | '[' comp (',' comp)* ']'
    comp    := NAME | '#' | '_' | '!' NAME

'#' is the pad token, '_' matches any alphabet symbol (pad excluded) and
'!a' matches any alphabet symbol except a.  '//' starts a line comment.

compile_hre builds the position automaton: state 0 plus one state per
tuple letter, in text order, with no epsilon moves.

The policy templates keep their published shape; the distinguished symbols
(low state, dummy-rewritten low state, combined input/output events and so
on) stay opaque and are supplied by the caller as members of its alphabet.
"""

from __future__ import annotations

import enum
import itertools
import re
from collections import namedtuple
from typing import Iterable, Iterator, Mapping, Union as TUnion

from .errors import ArityMismatch, HreSyntaxError, UnknownSymbol
from .fa import Fa
from .hfa import Nfh, Quantifier
from .zipwords import PAD, Letter, _Record, all_letters, check_symbol


class Sym(_Record):
    __slots__ = ("name",)


class Pad(_Record):
    __slots__ = ()


class Any(_Record):
    __slots__ = ()


class NotSym(_Record):
    __slots__ = ("name",)


Component = TUnion[Sym, Pad, Any, NotSym]


class Empty(_Record):
    __slots__ = ()


class Eps(_Record):
    __slots__ = ()


class TupleLetter(_Record):
    __slots__ = ("comps",)  # tuple[Component, ...]


class Alt(_Record):
    __slots__ = ("items",)  # tuple[Node, ...]


class Concat(_Record):
    __slots__ = ("items",)  # tuple[Node, ...]


class Star(_Record):
    __slots__ = ("item",)  # Node


class Plus(_Record):
    __slots__ = ("item",)  # Node


Node = TUnion[Empty, Eps, TupleLetter, Alt, Concat, Star, Plus]


class HreAst(_Record):
    __slots__ = ("prefix", "body")  # tuple[tuple[Quantifier, str], ...], Node

    @property
    def arity(self) -> int:
        return len(self.prefix)


# ------------------------------------------------------------------- parser

_KEYWORDS = {"forall", "exists", "eps", "empty"}
_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
_WS_RE = re.compile(r"(?:[ \t\r\n]+|//[^\n]*)+")


# kind: NAME, the punctuation character or EOF.  A tuple, not a _Record:
# one is built per token, and a tuple builds fastest.
_Token = namedtuple("_Token", "kind text pos")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        ws = _WS_RE.match(text, i)
        if ws:
            i = ws.end()
            continue
        name = _NAME_RE.match(text, i)
        if name:
            tokens.append(_Token("NAME", name.group(), i))
            i = name.end()
            continue
        ch = text[i]
        if ch in "[](),|*+!#.":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise HreSyntaxError(f"stray character {ch!r}", i)
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind: str) -> _Token:
        tok = self.cur
        if tok.kind != kind:
            raise HreSyntaxError(f"expected {kind!r}, found {tok.text or 'end'!r}", tok.pos)
        self.i += 1
        return tok

    def parse(self) -> HreAst:
        prefix: list[tuple[Quantifier, str]] = []
        names: set[str] = set()
        while self.cur.kind == "NAME" and self.cur.text in ("forall", "exists"):
            quant = Quantifier.FORALL if self.cur.text == "forall" else Quantifier.EXISTS
            self.i += 1
            tok = self.take("NAME")
            if tok.text in _KEYWORDS or tok.text == "_":
                raise HreSyntaxError(f"bad variable name {tok.text!r}", tok.pos)
            if tok.text in names:
                raise HreSyntaxError(f"duplicate variable {tok.text!r}", tok.pos)
            names.add(tok.text)
            self.take(".")
            prefix.append((quant, tok.text))
        if not prefix:
            raise HreSyntaxError("expected a quantifier prefix", self.cur.pos)
        body = self.body()
        tok = self.cur
        if tok.kind != "EOF":
            raise HreSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        _check_arities(body, len(prefix))
        return HreAst(tuple(prefix), body)

    def body(self) -> Node:
        items = [self.branch()]
        while self.cur.kind == "|":
            self.i += 1
            items.append(self.branch())
        return items[0] if len(items) == 1 else Alt(tuple(items))

    def branch(self) -> Node:
        items = [self.piece()]
        while self.cur.kind in ("(", "[") or (
            self.cur.kind == "NAME" and self.cur.text in ("eps", "empty")
        ):
            items.append(self.piece())
        return items[0] if len(items) == 1 else Concat(tuple(items))

    def piece(self) -> Node:
        node = self.unit()
        while self.cur.kind in ("*", "+"):
            node = Star(node) if self.cur.kind == "*" else Plus(node)
            self.i += 1
        return node

    def unit(self) -> Node:
        tok = self.cur
        if tok.kind == "(":
            self.i += 1
            node = self.body()
            self.take(")")
            return node
        if tok.kind == "[":
            self.i += 1
            comps = [self.component()]
            while self.cur.kind == ",":
                self.i += 1
                comps.append(self.component())
            self.take("]")
            return TupleLetter(tuple(comps))
        if tok.kind == "NAME" and tok.text == "eps":
            self.i += 1
            return Eps()
        if tok.kind == "NAME" and tok.text == "empty":
            self.i += 1
            return Empty()
        raise HreSyntaxError(f"expected an atom, found {tok.text or 'end'!r}", tok.pos)

    def component(self) -> Component:
        tok = self.cur
        if tok.kind == "#":
            self.i += 1
            return Pad()
        if tok.kind == "!":
            self.i += 1
            name = self.take("NAME")
            if name.text == "_":
                raise HreSyntaxError("cannot negate the wildcard", name.pos)
            return NotSym(name.text)
        if tok.kind == "NAME":
            self.i += 1
            if tok.text == "_":
                return Any()
            return Sym(tok.text)
        raise HreSyntaxError(f"expected a letter component, found {tok.text or 'end'!r}", tok.pos)


def _tuple_letters(node: Node) -> Iterator[TupleLetter]:
    if isinstance(node, TupleLetter):
        yield node
    elif isinstance(node, (Alt, Concat)):
        for item in node.items:
            yield from _tuple_letters(item)
    elif isinstance(node, (Star, Plus)):
        yield from _tuple_letters(node.item)


def _check_arities(node: Node, k: int) -> None:
    for tl in _tuple_letters(node):
        if len(tl.comps) != k:
            raise ArityMismatch(f"tuple letter has {len(tl.comps)} components, prefix binds {k}")


def symbols(ast: HreAst) -> list[str]:
    """Sorted names of the symbols the expression mentions, negated ones included."""
    return sorted({c.name for tl in _tuple_letters(ast.body) for c in tl.comps
                   if isinstance(c, (Sym, NotSym))})


def parse(text: str) -> HreAst:
    return _Parser(text).parse()


# ------------------------------------------------------------------ printer


def _comp_text(comp: Component) -> str:
    if isinstance(comp, Sym):
        return comp.name
    if isinstance(comp, Pad):
        return PAD
    if isinstance(comp, Any):
        return "_"
    return f"!{comp.name}"


_LEVEL_ALT, _LEVEL_CONCAT, _LEVEL_REPEAT = 0, 1, 2


def _node_text(node: Node, level: int) -> str:
    if isinstance(node, Empty):
        return "empty"
    if isinstance(node, Eps):
        return "eps"
    if isinstance(node, TupleLetter):
        return "[" + ",".join(_comp_text(c) for c in node.comps) + "]"
    if isinstance(node, Alt):
        text = "|".join(_node_text(item, _LEVEL_CONCAT) for item in node.items)
        return f"({text})" if level > _LEVEL_ALT else text
    if isinstance(node, Concat):
        text = "".join(_node_text(item, _LEVEL_REPEAT) for item in node.items)
        return f"({text})" if level > _LEVEL_CONCAT else text
    mark = "*" if isinstance(node, Star) else "+"
    inner = node.item
    text = _node_text(inner, _LEVEL_REPEAT + 1)
    if isinstance(inner, (Star, Plus)):
        text = f"({text})"
    return text + mark


def format_hre(ast: HreAst) -> str:
    quants = "".join(
        f"{'forall' if q is Quantifier.FORALL else 'exists'} {name}. "
        for q, name in ast.prefix
    )
    return quants + _node_text(ast.body, _LEVEL_ALT)


# ----------------------------------------------------------------- compiler


def _expand(comp: Component, sigma: tuple[str, ...]) -> tuple[str, ...]:
    if isinstance(comp, Sym):
        if comp.name not in sigma:
            raise UnknownSymbol(f"symbol {comp.name!r} not in the alphabet")
        return (comp.name,)
    if isinstance(comp, Pad):
        return (PAD,)
    if isinstance(comp, Any):
        return sigma
    if comp.name not in sigma:
        raise UnknownSymbol(f"symbol {comp.name!r} not in the alphabet")
    return tuple(s for s in sigma if s != comp.name)


def _letters(tl: TupleLetter, sigma: tuple[str, ...]) -> list[Letter]:
    pools = [_expand(c, sigma) for c in tl.comps]
    return [tuple(p) for p in itertools.product(*pools)]


def compile_hre(ast: HreAst, sigma: Iterable[str]) -> Nfh:
    """Position automaton: state 0 starts, and state p is the p-th tuple
    letter in text order, entered only by that tuple letter's letters."""
    sigma = tuple(sorted(set(sigma)))
    letters: list[list[Letter]] = [[]]  # letters[p] enter state p
    follow: list[set[int]] = [set()]  # follow[q]: states entered from q

    def build(node: Node) -> tuple[bool, set[int], set[int]]:
        """(nullable, first, last) of node; links follow inside it."""
        if isinstance(node, Empty):
            return False, set(), set()
        if isinstance(node, Eps):
            return True, set(), set()
        if isinstance(node, TupleLetter):
            letters.append(_letters(node, sigma))
            follow.append(set())
            return False, {len(follow) - 1}, {len(follow) - 1}
        if isinstance(node, Alt):
            nullables, firsts, lasts = zip(*(build(item) for item in node.items))
            return any(nullables), set().union(*firsts), set().union(*lasts)
        if isinstance(node, Concat):
            nullable, first, last = True, set(), set()
            for item in node.items:
                item_nullable, item_first, item_last = build(item)
                for q in last:
                    follow[q] |= item_first
                if nullable:
                    first |= item_first
                last = last | item_last if item_nullable else item_last
                nullable = nullable and item_nullable
            return nullable, first, last
        nullable, first, last = build(node.item)  # Star or Plus: loop back
        for q in last:
            follow[q] |= first
        return nullable or isinstance(node, Star), first, last

    nullable, follow[0], last = build(ast.body)
    transitions = [(q, letter, p) for q, targets in enumerate(follow)
                   for p in targets for letter in letters[p]]
    accepting = last | {0} if nullable else last
    fa = Fa(all_letters(sigma, ast.arity), len(follow), [0], accepting, transitions)
    return Nfh(sigma, tuple(q for q, _ in ast.prefix), fa)


# ------------------------------------------------------------------ policies


class PolicyId(enum.Enum):
    NI = "ni"
    OD = "od"
    GNI = "gni"
    DC = "dc"
    TSNI = "tsni"


_POLICIES = {
    PolicyId.NI: "forall x1. exists x2. [{l},{llam}]*",
    PolicyId.OD: "forall x1. forall x2. "
    "[{l},{l}]+|[!{l},!{l}][_,_]*|[{l},!{l}][_,_]*|[!{l},{l}][_,_]*",
    PolicyId.GNI: "forall x1. forall x2. exists x3. "
    "([{h},{l},{hl}]|[!{h},{l},{hbar_l}]|[{h},!{l},{h_lbar}]|[!{h},!{l},{hbar_lbar}])*",
    PolicyId.DC: "forall x1. forall x2. [{li},{li}][{pw},{pw}][{lo},{lo}]+",
    PolicyId.TSNI: "forall x1. forall x2. "
    "[{l},{l}][_,_]*[{l},{l}]|[!{l},!{l}][_,_]*|[{l},!{l}][_,_]*|[!{l},{l}][_,_]*",
}


def policy(pid: PolicyId, bindings: Mapping[str, str]) -> HreAst:
    """Instantiate a security-policy template with concrete symbols.

    The binding keys are the template's fields: NI l,llam; OD l; GNI h,l,hl,
    hbar_l,h_lbar,hbar_lbar (the last four name the combined input/output
    events); DC li,pw,lo; TSNI l.  A valid symbol parses as a symbol inside
    a tuple letter even when it spells a keyword.
    """
    template = _POLICIES[pid]
    keys = dict.fromkeys(re.findall(r"\{(\w+)\}", template))
    extra = set(bindings) - set(keys)
    if extra:
        raise UnknownSymbol(f"unexpected bindings {sorted(extra)!r} for {pid.value}")
    try:
        b = {key: check_symbol(bindings[key]) for key in keys}
    except KeyError as exc:
        raise UnknownSymbol(f"policy {pid.value} needs a binding for {exc.args[0]!r}") from exc
    return parse(template.format(**b))
