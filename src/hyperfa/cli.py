"""Command-line front end.

Boolean outcomes are encoded in the exit code (0 = yes, 1 = no); exit 2
flags parse or usage problems, 3 an unsupported quantifier fragment, 4 a
resource cap or input nested past the recursion limit.  ``compile``,
``canon`` and ``learn`` import their modules inside the command, so the
decision subcommands load only errors, zipwords, fa and hfa.  The package's
records subclass zipwords._Record, not the standard library's data classes,
whose import pulls in inspect, ast and dis.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .errors import (
    FormatError,
    HyperfaError,
    ResourceLimit,
    Unsupported,
    UnknownSymbol,
    WrongFragment,
)
from .hfa import (
    Fragment,
    Nfh,
    contains,
    equivalent,
    format_hyperword,
    format_nfh,
    gen_hamiltonian,
    member,
    nonempty_exists_forall,
    parse_hyperword,
    parse_nfh,
)


def _read(path: str) -> str:
    """The file's text, with universal newlines as in text mode."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_nfh(path: str) -> Nfh:
    return parse_nfh(_read(path))


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _cap(args: argparse.Namespace) -> dict:
    """max_k when --max-k is given; unset, each operation keeps its own cap."""
    return {} if args.max_k is None else {"max_k": args.max_k}


def cmd_compile(args: argparse.Namespace) -> int:
    from . import hre

    ast = hre.parse(_read(args.hre))
    if args.sigma:
        sigma = [s for s in args.sigma.split(",") if s]
    else:
        sigma = hre.symbols(ast)
    if not sigma:
        raise UnknownSymbol("no alphabet: expression has no literals, pass --sigma")
    nfh = hre.compile_hre(ast, sigma)
    _write(args.output, format_nfh(nfh))
    return 0


def cmd_member(args: argparse.Namespace) -> int:
    nfh = _load_nfh(args.nfh)
    hw = parse_hyperword(_read(args.hyperword), nfh.sigma)
    verdict = member(nfh, hw)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_empty(args: argparse.Namespace) -> int:
    nfh = _load_nfh(args.nfh)
    witness = nonempty_exists_forall(nfh, **_cap(args))
    if witness is None:
        print("EMPTY")
        return 1
    sys.stdout.write(format_hyperword(witness, nfh.sigma))
    return 0


def cmd_contains(args: argparse.Namespace) -> int:
    left = _load_nfh(args.nfh1)
    right = _load_nfh(args.nfh2)
    witness = contains(left, right, **_cap(args))
    if witness is None:
        print("CONTAINED")
        return 0
    sys.stdout.write(format_hyperword(witness, left.sigma))
    return 1


def cmd_equiv(args: argparse.Namespace) -> int:
    left = _load_nfh(args.nfh1)
    right = _load_nfh(args.nfh2)
    outcome = equivalent(left, right, **_cap(args))
    if outcome is None:
        print("EQUIVALENT")
        return 0
    witness, side = outcome
    print(side)
    sys.stdout.write(format_hyperword(witness, left.sigma))
    return 1


def cmd_learn(args: argparse.Namespace) -> int:
    import json

    from .learn import AutomatedTeacher, LearnerConfig, learn

    target = _load_nfh(args.target)
    fragment = Fragment.FORALL_ONLY if args.fragment == "forall" else Fragment.EXISTS_ONLY
    config = LearnerConfig(**_cap(args))
    teacher = AutomatedTeacher(target, config)
    if target.fragment is not fragment:
        raise WrongFragment(f"--fragment {fragment.value} differs from the target's "
                            f"fragment {target.fragment.value}")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            result = learn(
                teacher,
                fragment,
                config,
                trace=lambda record: fh.write(json.dumps(record) + "\n"),
            )
    else:
        result = learn(teacher, fragment, config)
    sys.stdout.write(format_nfh(result))
    return 0


def _parse_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    edges = []
    top = 0
    for lineno, line in enumerate(text.split("\n"), 1):
        bare = line.split("//")[0].strip()
        if not bare:
            continue
        parts = bare.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise FormatError(f"bad edge on line {lineno}: {line!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        top = max(top, u, v)
    return top, edges


def cmd_gen_ham(args: argparse.Namespace) -> int:
    n, edges = _parse_edges(_read(args.edges))
    nfh, hw = gen_hamiltonian(n, edges)
    _write(args.output, format_nfh(nfh))
    if args.output_hw:
        _write(args.output_hw, format_hyperword(hw, nfh.sigma))
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    nfh = _load_nfh(args.nfh)
    sys.stdout.write(nfh.underlying.to_dot(name="nfh"))
    return 0


def cmd_canon(args: argparse.Namespace) -> int:
    from . import canon

    nfh = _load_nfh(args.nfh)
    cap = _cap(args)
    if args.close:
        if nfh.fragment is Fragment.FORALL_ONLY:
            closed = canon.sequence_closure(nfh, **cap)
        else:
            closed = canon.permutation_closure(nfh, **cap)
        _write(args.output, format_nfh(closed))
        return 0
    report = canon.check_complete(nfh, **cap)
    if report.complete:
        print("COMPLETE")
        return 0
    word, seq = report.counterexample
    print("INCOMPLETE")
    print("word " + " ".join("(" + ",".join(l) + ")" for l in word.letters))
    print("selection " + ",".join(str(i) for i in seq.indices))
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperfa",
        description="Decision procedures, canonical forms and learning "
        "for finite automata over sets of words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile an expression file to an acceptor")
    p.add_argument("hre")
    p.add_argument("-o", dest="output", default=None)
    p.add_argument("--sigma", default=None, help="comma-separated alphabet override")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("member", help="is the hyperword accepted")
    p.add_argument("nfh")
    p.add_argument("hyperword")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("empty", help="emptiness with witness")
    p.add_argument("nfh")
    p.add_argument("--max-k", type=_positive_int)
    p.set_defaults(func=cmd_empty)

    p = sub.add_parser("contains", help="is every hyperword of nfh1 (E*A*) one of nfh2 (A*E*)")
    p.add_argument("nfh1")
    p.add_argument("nfh2")
    p.add_argument("--max-k", type=_positive_int)
    p.set_defaults(func=cmd_contains)

    p = sub.add_parser("equiv", help="do both accept the same hyperwords")
    p.add_argument("nfh1")
    p.add_argument("nfh2")
    p.add_argument("--max-k", type=_positive_int)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("learn", help="learn an acceptor from a target via queries")
    p.add_argument("--target", required=True)
    p.add_argument("--fragment", choices=("forall", "exists"), required=True)
    p.add_argument("--trace", default=None, help="JSON-lines event log path")
    p.add_argument("--max-k", type=_positive_int)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("gen-ham", help="Hamiltonian-cycle membership instance")
    p.add_argument("edges", help="file of 'u v' lines, vertices 1..n")
    p.add_argument("-o", dest="output", default=None)
    p.add_argument("-o-hw", dest="output_hw", default=None)
    p.set_defaults(func=cmd_gen_ham)

    p = sub.add_parser("dot", help="render the underlying automaton as DOT")
    p.add_argument("nfh")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("canon", help="completeness check or closure")
    p.add_argument("nfh")
    p.add_argument("--close", action="store_true")
    p.add_argument("-o", dest="output", default=None)
    p.add_argument("--max-k", type=_positive_int)
    p.set_defaults(func=cmd_canon)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Unsupported, WrongFragment) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RecursionError:
        print(f"error: input nesting exceeds the recursion limit of "
              f"{sys.getrecursionlimit()}", file=sys.stderr)
        return 4
    except (HyperfaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
