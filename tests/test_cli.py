import json
import random
import shutil
import subprocess
import sys
import time

import pytest

from hyperfa import canon, hfa, hre
from hyperfa.cli import main as cli_main
from hyperfa.errors import FormatError
from hyperfa.fa import Fa
from hyperfa.hfa import Hyperword, Quantifier, format_hyperword, format_nfh, parse_nfh

import oracles

A = Quantifier.FORALL
E = Quantifier.EXISTS

A1_TEXT = "forall x1. forall x2. ([a,a]|[b,b])*([#,b]*|[b,#]*)\n"


def run_cli(args, capsys):
    code = cli_main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def compile_to(tmp_path, name, text, capsys, sigma=None):
    src = write(tmp_path / (name + ".hre"), text)
    out = str(tmp_path / (name + ".nfh"))
    args = ["compile", src, "-o", out]
    if sigma:
        args += ["--sigma", sigma]
    code, _, err = run_cli(args, capsys)
    assert code == 0, err
    return out


# ----------------------------------------------------------------- compile

def test_compile_serialize_parse_serialize_is_byte_identical(tmp_path, capsys):
    path = compile_to(tmp_path, "a1", A1_TEXT, capsys)
    text = open(path, encoding="utf-8").read()
    assert format_nfh(parse_nfh(text)) == text
    # a second trip through the CLI-independent printer stays fixed too
    again = format_nfh(parse_nfh(format_nfh(parse_nfh(text))))
    assert again == text


def test_compile_infers_alphabet_from_literals(tmp_path, capsys):
    path = compile_to(tmp_path, "astar", "forall x. [a]*\n", capsys)
    assert parse_nfh(open(path, encoding="utf-8").read()).sigma == ("a",)
    path = compile_to(tmp_path, "astar2", "forall x. [a]*\n", capsys, sigma="a,b")
    assert parse_nfh(open(path, encoding="utf-8").read()).sigma == ("a", "b")


def test_compile_without_any_alphabet_fails(tmp_path, capsys):
    src = write(tmp_path / "wild.hre", "forall x. [_]*\n")
    code, _, err = run_cli(["compile", src], capsys)
    assert code == 2 and "alphabet" in err


def test_compile_stdout_default(tmp_path, capsys):
    src = write(tmp_path / "e.hre", "exists x. [a][b]\n")
    code, out, _ = run_cli(["compile", src], capsys)
    assert code == 0
    assert parse_nfh(out).prefix == (E,)


# ------------------------------------------------------------------ member

def test_member_exit_codes(tmp_path, capsys):
    path = compile_to(tmp_path, "astar", "forall x. [a]*\n", capsys, sigma="a,b")
    good = write(tmp_path / "good.hw", "a\naa\n")
    bad = write(tmp_path / "bad.hw", "a\nb\n")
    code, out, _ = run_cli(["member", path, good], capsys)
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli(["member", path, bad], capsys)
    assert (code, out) == (1, "false\n")


def test_member_rejects_foreign_symbols(tmp_path, capsys):
    path = compile_to(tmp_path, "astar", "forall x. [a]*\n", capsys)
    hw = write(tmp_path / "c.hw", "c\n")
    code, _, err = run_cli(["member", path, hw], capsys)
    assert code == 2 and err.startswith("error:")


def test_member_long_word_past_the_cutover(tmp_path, capsys):
    # for all x1, x2: one word is a prefix of the other; 17 words make
    # 17^2 assignments, so the block is searched along a 2,000-letter zip
    letters = ["(a,a)", "(b,b)", "(a,#)", "(b,#)", "(#,a)", "(#,b)"]
    text = "nfh k=2 sigma=a,b prefix=AA\nstate 0 init accept\n"
    text += "".join(f"trans 0 {l} 0\n" for l in letters)
    nfh = write(tmp_path / "prefixes.nfh", text)
    words = ["a" * i for i in range(16)] + ["a" * 2000]
    assert len(words) ** 2 > hfa.MEMBER_SEARCH_CUTOVER
    chain = write(tmp_path / "chain.hw", "\n".join(words) + "\n")
    code, out, _ = run_cli(["member", nfh, chain], capsys)
    assert (code, out) == (0, "true\n")
    forked = write(tmp_path / "forked.hw", "\n".join(words + ["b"]) + "\n")
    code, out, _ = run_cli(["member", nfh, forked], capsys)
    assert (code, out) == (1, "false\n")


# ------------------------------------------------------------------- empty

def test_empty_witness_and_verdict(tmp_path, capsys):
    path = compile_to(tmp_path, "aplus", "exists x. [a][a]*\n", capsys)
    code, out, _ = run_cli(["empty", path], capsys)
    assert code == 0 and out == "a\n"
    empty = compile_to(tmp_path, "none", "exists x. empty\n", capsys, sigma="a")
    code, out, _ = run_cli(["empty", empty], capsys)
    assert code == 1 and out == "EMPTY\n"


def test_empty_witness_reaccepted_by_member(tmp_path, capsys):
    path = compile_to(
        tmp_path, "pair", "exists x1. forall x2. ([a,a]|[b,a])*\n", capsys
    )
    code, out, _ = run_cli(["empty", path], capsys)
    assert code == 0
    witness = write(tmp_path / "w.hw", out)
    code, _, _ = run_cli(["member", path, witness], capsys)
    assert code == 0


# ------------------------------------------------------- contains and equiv

def test_contains_and_witness_direction(tmp_path, capsys):
    small = compile_to(tmp_path, "small", "forall x. [a]*\n", capsys, sigma="a,b")
    big = compile_to(tmp_path, "big", "forall x. ([a]|[b])*\n", capsys)
    code, out, _ = run_cli(["contains", small, big], capsys)
    assert (code, out) == (0, "CONTAINED\n")
    code, out, _ = run_cli(["contains", big, small], capsys)
    assert code == 1
    witness = write(tmp_path / "w.hw", out)
    assert run_cli(["member", big, witness], capsys)[0] == 0
    assert run_cli(["member", small, witness], capsys)[0] == 1


def test_equiv_exit_codes_and_side(tmp_path, capsys):
    small = compile_to(tmp_path, "small", "forall x. [a]*\n", capsys, sigma="a,b")
    big = compile_to(tmp_path, "big", "forall x. ([a]|[b])*\n", capsys)
    code, out, _ = run_cli(["equiv", small, small], capsys)
    assert (code, out) == (0, "EQUIVALENT\n")
    code, out, _ = run_cli(["equiv", small, big], capsys)
    assert code == 1
    side, witness_text = out.split("\n", 1)
    assert side == "right_only"
    witness = write(tmp_path / "w.hw", witness_text)
    assert run_cli(["member", big, witness], capsys)[0] == 0
    assert run_cli(["member", small, witness], capsys)[0] == 1


# -------------------------------------------------------------- error codes

def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli_main([])
    assert exc.value.code == 2


def test_bad_inputs_exit_2(tmp_path, capsys):
    broken = write(tmp_path / "broken.nfh", "not an acceptor\n")
    hw = write(tmp_path / "x.hw", "a\n")
    assert run_cli(["member", broken, hw], capsys)[0] == 2
    missing = str(tmp_path / "no-such-file.nfh")
    assert run_cli(["member", missing, hw], capsys)[0] == 2
    badhre = write(tmp_path / "bad.hre", "forall x. [a\n")
    assert run_cli(["compile", badhre], capsys)[0] == 2


@pytest.mark.parametrize("text, message", [
    ("nfh k=1 sigma=a prefix=A\nstate x\n", "bad state line"),
    ("nfh k=1 sigma=a prefix=A\nstate 0 final\n", "unknown state flag"),
    ("nfh k=1 sigma=a prefix=A\nstate 0 init\ntrans 0 (a)\n", "bad transition line"),
    ("nfh k=1 sigma=a prefix=A\nstate 0 init\ntrans 0 a 0\n", "bad letter"),
    ("nfh k=1 sigma=# prefix=A\nstate 0 init accept\n", "reserved for padding"),
])
def test_malformed_acceptor_lines_are_format_errors(tmp_path, capsys, text, message):
    with pytest.raises(FormatError, match=message):
        parse_nfh(text)
    code, out, err = run_cli(["dot", write(tmp_path / "bad.nfh", text)], capsys)
    assert (code, out) == (2, "") and message in err and "Traceback" not in err


@pytest.mark.parametrize("state_line", ["state 1000000", "state 30000000 init accept"])
def test_sparse_state_ids_are_rejected_before_any_automaton(tmp_path, capsys, monkeypatch,
                                                            state_line):
    def refuse(*args):
        raise AssertionError("no acceptor is built for a sparse state id")

    monkeypatch.setattr(hfa, "make_nfh", refuse)
    path = write(tmp_path / "sparse.nfh", f"nfh k=1 sigma=a prefix=A\n{state_line}\n")
    code, out, err = run_cli(["dot", path], capsys)
    state_id = state_line.split()[1]
    assert (code, out) == (2, "") and "Traceback" not in err
    assert f"state id {state_id} is not below 2" in err


@pytest.mark.parametrize("command, name, data, offset", [
    ("dot", "bad.nfh", b"nfh k=1 sigma=a prefix=A\nstate 0 init accept\xff\n", 44),
    ("member", "bad.hw", b"a\n\xfe\n", 2),
    ("compile", "bad.hre", b"forall x. [\xc3(]\n", 11),
], ids=["nfh", "hw", "hre"])
def test_files_that_are_not_utf8_exit_2(tmp_path, capsys, command, name, data, offset):
    path = tmp_path / name
    path.write_bytes(data)
    args = [command, str(path)]
    if command == "member":
        args.insert(1, write(tmp_path / "ok.nfh", "nfh k=1 sigma=a prefix=A\nstate 0 init\n"))
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "") and "Traceback" not in err
    assert f"{path}: invalid UTF-8 at byte offset {offset}" in err


def test_crlf_files_read_like_lf_files(tmp_path, capsys):
    nfh = "nfh k=1 sigma=a,b prefix=A\nstate 0 init accept\ntrans 0 (a) 0\n"
    results = []
    for newline in ("\n", "\r\n", "\r"):
        path = tmp_path / "crlf.nfh"
        path.write_bytes(nfh.replace("\n", newline).encode())
        hw = tmp_path / "crlf.hw"
        hw.write_bytes(f"a{newline}aa{newline}".encode())
        results.append(run_cli(["member", str(path), str(hw)], capsys))
    assert results == [(0, "true\n", "")] * 3


@pytest.mark.parametrize("command, files", [
    ("compile", {"deep.hre": "forall x. " + "(" * 3000 + "[a]" + ")" * 3000 + "\n"}),
    ("compile", {"deep.hre": "forall x. [a]" + "*" * 5000 + "\n"}),
    ("member", {"deep.nfh": "nfh k=1500 sigma=a prefix=" + "AE" * 750 + "\nstate 0 init accept\n",
                "a.hw": "a\n"}),
], ids=["parentheses", "stars", "alternations"])
def test_inputs_nested_past_the_recursion_limit_exit_4(tmp_path, capsys, command, files):
    paths = [write(tmp_path / name, text) for name, text in files.items()]
    code, out, err = run_cli([command, *paths], capsys)
    assert (code, out) == (4, "") and "Traceback" not in err
    assert f"input nesting exceeds the recursion limit of {sys.getrecursionlimit()}" in err


def test_unsupported_fragment_exits_3(tmp_path, capsys):
    e1 = compile_to(tmp_path, "e1", "exists x. [a]*\n", capsys)
    ea = compile_to(
        tmp_path, "ea", "exists x1. forall x2. ([a,a])*\n", capsys
    )
    ae = compile_to(
        tmp_path, "ae", "forall x1. exists x2. ([a,a])*\n", capsys
    )
    assert run_cli(["contains", e1, ea], capsys)[0] == 3
    assert run_cli(["empty", ae], capsys)[0] == 3


def test_resource_limit_exits_4(tmp_path, capsys):
    wide = hfa.make_nfh(
        "ab", (A,) * 5, 1, [0], [0],
        [(0, l, 0) for l in hfa.all_letters("ab", 5)],
    )
    path = write(tmp_path / "wide.nfh", format_nfh(wide))
    assert run_cli(["canon", path], capsys)[0] == 4


def test_contains_and_equiv_past_the_arity_cap_exit_4(tmp_path, capsys, monkeypatch):
    ee = write(tmp_path / "ee.nfh", format_nfh(hfa.make_nfh("ab", (E, E), 1, [0], [0], [])))
    aaa = write(tmp_path / "aaa.nfh", format_nfh(hfa.make_nfh("ab", (A,) * 3, 1, [0], [0], [])))

    def refuse(*args):
        raise AssertionError("no subset construction past the arity cap")

    monkeypatch.setattr(Fa, "determinize", refuse)
    for command in ("contains", "equiv"):
        code, out, err = run_cli([command, ee, aaa], capsys)
        assert (code, out) == (4, "") and "arity 5 exceeds the cap of 4" in err


def test_contains_and_equiv_on_different_alphabets_exit_2(tmp_path, capsys, monkeypatch):
    ab = write(tmp_path / "ab.nfh", format_nfh(hfa.make_nfh("ab", (A,), 1, [0], [0], [])))
    abc = write(tmp_path / "abc.nfh", format_nfh(hfa.make_nfh("abc", (A,), 1, [0], [0], [])))

    def refuse(*args):
        raise AssertionError("no subset construction on different alphabets")

    monkeypatch.setattr(Fa, "determinize", refuse)
    for command in ("contains", "equiv"):
        code, out, err = run_cli([command, ab, abc], capsys)
        assert (code, out) == (2, "")
        assert "containment requires identical alphabets" in err and "Traceback" not in err


def test_wide_header_empty_and_dot_exit_cleanly(tmp_path, capsys):
    all_a = "(" + ",".join("a" * 14) + ")"
    cases = [
        # the witness is found along the one transition, no letter is listed
        ("E" * 14, f"state 0 init\nstate 1 accept\ntrans 0 {all_a} 1\n", 0, "a\n"),
        ("A" * 14, "state 0 init accept\n", 0, "\n"),
        ("E" * 7 + "A" * 7, "state 0 init accept\n", 4, ""),
    ]
    for i, (prefix, body, empty_code, empty_out) in enumerate(cases):
        path = write(tmp_path / f"k14-{i}.nfh", f"nfh k=14 sigma=a,b prefix={prefix}\n{body}")
        code, out, err = run_cli(["empty", path], capsys)
        assert (code, out) == (empty_code, empty_out) and "Traceback" not in err
        if code == 4:
            assert "arity 14 exceeds the cap of 4" in err
        code, out, err = run_cli(["dot", path], capsys)
        assert code == 0 and out.startswith("digraph") and not err


def test_empty_and_contains_hold_one_state_per_left_run(tmp_path, capsys):
    # "the 18th letter from the end is a", universal and accepting nothing:
    # stepped as subsets of states, the left run would meet 2^18 of them
    n = 18
    trans = [(0, ("a",), 0), (0, ("b",), 0), (0, ("a",), 1)]
    trans += [(i, (s,), i + 1) for i in range(1, n) for s in "ab"]
    nfh = hfa.make_nfh("ab", [A], n + 1, [0], [], trans)
    family = write(tmp_path / "nth.nfh", format_nfh(nfh))
    nothing = write(tmp_path / "nothing.nfh", "nfh k=1 sigma=a,b prefix=A\nstate 0 init\n")
    for args, want in ((["empty", family], (1, "EMPTY\n", "")),
                       (["contains", family, nothing], (0, "CONTAINED\n", ""))):
        start = time.perf_counter()
        assert run_cli(args, capsys) == want
        assert time.perf_counter() - start < 1


# ----------------------------------------------------------------- gen-ham

def test_gen_ham_triangle_accepts_and_path_rejects(tmp_path, capsys):
    edges = write(tmp_path / "k3.edges", "// triangle\n1 2\n2 3\n1 3\n")
    nfh_out = str(tmp_path / "k3.nfh")
    hw_out = str(tmp_path / "k3.hw")
    code, _, _ = run_cli(["gen-ham", edges, "-o", nfh_out, "-o-hw", hw_out], capsys)
    assert code == 0
    code, out, _ = run_cli(["member", nfh_out, hw_out], capsys)
    assert (code, out) == (0, "true\n")

    path_edges = write(tmp_path / "p3.edges", "1 2\n2 3\n")
    code, _, _ = run_cli(["gen-ham", path_edges, "-o", nfh_out, "-o-hw", hw_out], capsys)
    assert code == 0
    assert run_cli(["member", nfh_out, hw_out], capsys)[0] == 1


def test_gen_ham_bad_edge_files(tmp_path, capsys):
    assert run_cli(
        ["gen-ham", write(tmp_path / "a.edges", "1 x\n")], capsys
    )[0] == 2
    assert run_cli(
        ["gen-ham", write(tmp_path / "b.edges", "0 1\n")], capsys
    )[0] == 2


def test_gen_ham_caps_the_instance_size_before_building(tmp_path, capsys):
    # a 9-byte file names vertex 2000: 2000 indicator words of 2000 symbols
    start = time.perf_counter()
    code, out, err = run_cli(["gen-ham", write(tmp_path / "far.edges", "1 2\n2 2000\n")], capsys)
    assert (code, out) == (4, "") and "Traceback" not in err
    assert "n^2 = 4000000 indicator symbols exceed the cap of 500000" in err
    assert time.perf_counter() - start < 0.5
    # 707^2 = 499849 symbols is within the cap
    near = write(tmp_path / "near.edges", "1 2\n2 707\n")
    assert run_cli(["gen-ham", near, "-o", str(tmp_path / "near.nfh")], capsys) == (0, "", "")


# --------------------------------------------------------------------- dot

def test_dot_output(tmp_path, capsys):
    path = compile_to(tmp_path, "astar", "forall x. [a]*\n", capsys)
    code, out, _ = run_cli(["dot", path], capsys)
    assert code == 0
    assert out.startswith("digraph") and "doublecircle" in out


# ------------------------------------------------------------------- canon

def test_canon_reports_first_violation_and_close_repairs(tmp_path, capsys):
    path = compile_to(tmp_path, "pair", "forall x1. forall x2. [a,b]\n", capsys)
    code, out, _ = run_cli(["canon", path], capsys)
    assert code == 1
    assert out.splitlines() == ["INCOMPLETE", "word (a,b)", "selection 1,1"]

    closed = str(tmp_path / "closed.nfh")
    code, _, _ = run_cli(["canon", path, "--close", "-o", closed], capsys)
    assert code == 0
    code, out, _ = run_cli(["canon", closed], capsys)
    assert (code, out) == (0, "COMPLETE\n")


def test_canon_close_on_an_existential_acceptor(tmp_path, capsys):
    path = compile_to(tmp_path, "pair", "exists x1. exists x2. [a,b][b,#]*\n", capsys)
    closed = str(tmp_path / "closed.nfh")
    assert run_cli(["canon", path, "--close", "-o", closed], capsys) == (0, "", "")
    nfh = parse_nfh(open(path, encoding="utf-8").read())
    with open(closed, "rb") as fh:
        assert fh.read() == format_nfh(canon.permutation_closure(nfh)).encode()


def test_canon_complete_at_arity_one(tmp_path, capsys):
    path = compile_to(tmp_path, "astar", "forall x. [a]*\n", capsys)
    assert run_cli(["canon", path], capsys) == (0, "COMPLETE\n", "")


def test_canon_caps_default_to_the_library_caps(tmp_path, capsys):
    # the check's own cap is 4; the closures' is 3
    text = "forall x1. forall x2. forall x3. forall x4. ([a,a,a,a]|[b,b,b,b])*\n"
    path = compile_to(tmp_path, "diagonal", text, capsys)
    assert run_cli(["canon", path], capsys) == (0, "COMPLETE\n", "")
    code, out, err = run_cli(["canon", path, "--close", "-o", str(tmp_path / "closed.nfh")], capsys)
    assert (code, out, err) == (4, "", "error: arity 4 exceeds the cap of 3\n")
    assert run_cli(["canon", path, "--max-k", "3"], capsys)[0] == 4


# ------------------------------------------------------------------- learn

def test_learn_emits_acceptor_and_trace(tmp_path, capsys):
    target_path = compile_to(tmp_path, "a1", A1_TEXT, capsys)
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(
        ["learn", "--target", target_path, "--fragment", "forall",
         "--trace", str(trace_path)],
        capsys,
    )
    assert code == 0
    learned = parse_nfh(out)
    target = parse_nfh(open(target_path, encoding="utf-8").read())
    assert canon.canonical_equal(learned, canon.sequence_closure(target))

    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert records
    assert all(set(r) == {"event", "iteration", "k", "detail"} for r in records)
    assert [r["detail"]["to"] for r in records if r["event"] == "lift"] == [2]
    assert records[-1]["event"] == "done"


def test_learn_exists_fragment(tmp_path, capsys):
    target_path = compile_to(
        tmp_path, "aplus", "exists x. [a][a]*\n", capsys, sigma="a,b"
    )
    code, out, _ = run_cli(
        ["learn", "--target", target_path, "--fragment", "exists"], capsys
    )
    assert code == 0
    learned = parse_nfh(out)
    target = parse_nfh(open(target_path, encoding="utf-8").read())
    assert canon.canonical_equal(learned, canon.permutation_closure(target))


def test_learn_fragment_other_than_the_targets_exits_3(tmp_path, capsys):
    target_path = compile_to(
        tmp_path, "exists_a", "exists x. [a]([a]|[b])*\n", capsys, sigma="a,b"
    )
    trace_path = tmp_path / "trace.jsonl"
    code, out, err = run_cli(
        ["learn", "--target", target_path, "--fragment", "forall",
         "--trace", str(trace_path)],
        capsys,
    )
    assert (code, out) == (3, "")
    assert "fragment" in err and "forall" in err and "exists" in err
    # the mismatch is found before the first membership query
    records = trace_path.read_text().splitlines() if trace_path.exists() else []
    assert not [r for r in map(json.loads, records) if r["event"] == "query"]


def test_learn_variable_cap_is_an_error(tmp_path, capsys):
    target_path = compile_to(tmp_path, "a1", A1_TEXT, capsys)
    code, _, err = run_cli(
        ["learn", "--target", target_path, "--fragment", "forall", "--max-k", "1"],
        capsys,
    )
    assert code == 4 and "variables" in err and "cap of 1" in err


@pytest.mark.parametrize("command", ["empty", "contains", "equiv", "canon", "learn"])
def test_learn_variable_cap_below_one_is_a_usage_error(tmp_path, capsys, command):
    path = compile_to(tmp_path, "a1", A1_TEXT, capsys)
    args = {"contains": [path, path], "equiv": [path, path],
            "learn": ["--target", path, "--fragment", "forall"]}.get(command, [path])
    for bad in ("0", "-1", "x"):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, *args, "--max-k", bad])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "--max-k" in captured.err and "Traceback" not in captured.err


# ------------------------------------------------------- installed command

def test_console_entry_point(tmp_path):
    exe = shutil.which("hyperfa")
    base = [exe] if exe else [sys.executable, "-m", "hyperfa.cli"]
    src = tmp_path / "astar.hre"
    src.write_text("forall x. [a]*\n", encoding="utf-8")
    out = tmp_path / "astar.nfh"
    done = subprocess.run(
        base + ["compile", str(src), "-o", str(out)], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    hw = tmp_path / "a.hw"
    hw.write_text("aa\n", encoding="utf-8")
    done = subprocess.run(
        base + ["member", str(out), str(hw)], capture_output=True, text=True
    )
    assert done.returncode == 0 and done.stdout == "true\n"


def test_module_entry_point_writes_nothing_to_stderr():
    done = subprocess.run(
        [sys.executable, "-m", "hyperfa.cli", "--help"], capture_output=True, text=True
    )
    assert done.returncode == 0 and "contains" in done.stdout
    assert done.stderr == ""


def loaded_modules(setup, runs=()):
    """The package's modules loaded in a fresh interpreter by setup and
    cli main on each argument list (every run must exit 0 or 1), and the
    other modules that setup and the runs newly imported."""
    script = "\n".join([
        # site hooks may load modules before the script starts: not counted
        "import sys; started = set(sys.modules)",
        "import contextlib, io, json",
        setup,
        "codes = []",
        f"for args in {list(runs)!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        codes.append(main(args))",
        "print(json.dumps([codes, sorted(set(sys.modules) - started)]))",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    codes, new = json.loads(done.stdout)
    assert all(code in (0, 1) for code in codes), (runs, codes)
    ours = {m for m in new if m.startswith("hyperfa")}
    return ours, set(new) - ours


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, capsys):
    policy = compile_to(tmp_path, "a1", A1_TEXT, capsys)
    pair = compile_to(tmp_path, "pair", "exists x1. forall x2. ([a,a]|[b,a])*\n", capsys)
    hw = write(tmp_path / "ab.hw", "ab\nab\n")
    edges = write(tmp_path / "k3.edges", "1 2\n2 3\n1 3\n")
    source = write(tmp_path / "a1.hre", A1_TEXT)
    cli = "from hyperfa.cli import main"
    kernel = {"hyperfa", "hyperfa.cli", "hyperfa.errors", "hyperfa.fa", "hyperfa.hfa",
              "hyperfa.zipwords"}
    decisions = [["dot", policy], ["member", policy, hw], ["empty", pair],
                 ["contains", pair, policy], ["equiv", policy, policy], ["gen-ham", edges]]
    for setup, runs, expected in [
        ("import hyperfa", [], {"hyperfa"}),
        (cli, decisions, kernel),
        (cli, [["compile", source]], kernel | {"hyperfa.hre"}),
        (cli, [["canon", policy]], kernel | {"hyperfa.canon"}),
    ]:
        ours, others = loaded_modules(setup, runs)
        assert ours == expected, runs
        # the package's records need neither dataclasses nor what it imports
        assert not others & {"dataclasses", "inspect"}, (runs, others)


# ------------------------------------------------- corpus: CLI == library

def test_cli_member_matches_library_on_random_corpus(tmp_path, capsys):
    rng = random.Random(83)
    pool = oracles.all_hyperwords("ab", 2, 2)
    for i in range(24):
        nfh = oracles.random_nfh(rng)
        nfh_path = write(tmp_path / f"m{i}.nfh", format_nfh(nfh))
        hw = Hyperword.of(rng.choice(pool))
        hw_path = write(tmp_path / f"m{i}.hw", format_hyperword(hw, nfh.sigma))
        code, out, _ = run_cli(["member", nfh_path, hw_path], capsys)
        expected = hfa.member(nfh, hw)
        assert code == (0 if expected else 1)
        assert out == ("true\n" if expected else "false\n")


def test_cli_equiv_matches_library_on_random_pairs(tmp_path, capsys):
    rng = random.Random(89)
    for i in range(8):
        prefix = (A,) * rng.randint(1, 2) if i % 2 else (E,) * rng.randint(1, 2)
        left = oracles.random_nfh(rng, fixed_prefix=prefix)
        right = oracles.random_nfh(rng, fixed_prefix=prefix)
        lp = write(tmp_path / f"l{i}.nfh", format_nfh(left))
        rp = write(tmp_path / f"r{i}.nfh", format_nfh(right))
        code, out, _ = run_cli(["equiv", lp, rp], capsys)
        outcome = hfa.equivalent(left, right)
        if outcome is None:
            assert (code, out) == (0, "EQUIVALENT\n")
        else:
            assert code == 1
            assert out.split("\n", 1)[0] == outcome[1]
