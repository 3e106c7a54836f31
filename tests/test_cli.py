"""Tests for the expression language and the command-line front end."""

import ast
import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscalg
import oscalg.cli
import oscalg.coinv
import oscalg.fock
from oscalg.cli import format_expression, main, parse_expression
from oscalg.fock import (FockVector, apply_quadratic, format_label, parse_label,
                         virasoro)
from oscalg.laurent import LaurentPoly
from oscalg.quadops import (
    DiagonalSeries,
    ExpressionError,
    Poly,
    QuadraticElement,
    WittElement,
    b,
    pair,
    sigma,
    tau,
    unit,
)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_atoms():
    assert parse_expression("K") == unit()
    assert parse_expression("b(1)") == b(1)
    assert parse_expression("b(-3)") == b(-3)
    assert parse_expression(":b(1)b(2):") == pair(1, 2)
    assert parse_expression("T(2)") == tau(2)
    assert parse_expression("S(2)") == sigma(WittElement.L(2))


def test_parse_combination():
    got = parse_expression("1/2*:b(-1)b(-1): + K")
    assert got == pair(-1, -1).scale(Fraction(1, 2)) + unit()
    assert parse_expression("-b(1)") == b(1).scale(-1)
    assert parse_expression("2*T(-1) + b(-3) + K") == \
        tau(-1).scale(2) + b(-3) + unit()


def test_parse_whitespace_insensitive():
    assert parse_expression(" b ( 1 ) +  b(2) ") == b(1) + b(2)


def test_parse_sigma_atom_expansion():
    got = parse_expression("S(2)")
    assert got == tau(2) + b(2).scale(Fraction(-3, 2))
    assert format_expression(got) == "T(2) - 3/2*b(2)"


def test_parse_b_zero_rejected():
    with pytest.raises(ExpressionError) as e:
        parse_expression("b(0)")
    assert str(e.value) == "b(0) is the central element; write K at position 2"
    with pytest.raises(ExpressionError) as e:
        parse_expression(":b(1)b(0):")
    assert "write K at position 7" in str(e.value)


def test_parse_syntax_errors():
    with pytest.raises(ExpressionError, match="position 3"):
        parse_expression("b(1")
    with pytest.raises(ExpressionError, match="unexpected character 'L'"):
        parse_expression("L(2)")
    with pytest.raises(ExpressionError, match="zero denominator"):
        parse_expression("1/0*K")
    with pytest.raises(ExpressionError, match="expected an atom"):
        parse_expression("3*")
    with pytest.raises(ExpressionError, match="expected an atom"):
        parse_expression("")
    with pytest.raises(ExpressionError, match=r"expected '\+' or '-'"):
        parse_expression("b(1) b(2)")


def test_integers_use_the_digits_int_reads(capsys):
    # '²' is a digit to str.isdigit, but int cannot read it
    assert run_cli(capsys, ["fock-apply", "²*b(-1)", "[]"]) == (
        2, "", "error: unexpected character '²' at position 0\n")
    assert run_cli(capsys, ["fock-apply", "٣*b(-1)", "[]"]) == (0, "3*[1]\n", "")


# ---------------------------------------------------------------------------
# canonical printing and round trips
# ---------------------------------------------------------------------------

CANONICAL = [
    "K",
    "-K",
    "-2*K",
    "1/2*K",
    "0*K",
    "b(1)",
    "b(-3)",
    "-b(2)",
    "2*b(1)",
    "T(0)",
    "T(-2)",
    "-3/4*T(2)",
    ":b(1)b(1):",
    ":b(-2)b(3):",
    ":b(2)b(2):",
    ":b(-3)b(3): + K",
    "T(1) + b(1)",
    "T(-1) - b(-1)",
    "T(2) - 3/2*b(2)",
    ":b(1)b(2): + K",
    "2*T(-1) + b(-3) + K",
    "T(0) - 1/2*:b(-2)b(3): + 4*b(2) - K",
    ":b(-1)b(2): + 3/2*b(1)",
    "T(-3) + T(3)",
    "T(-2) + :b(1)b(1): - b(1)",
    ":b(-1)b(-1): + :b(1)b(1):",
    "1/3*:b(-2)b(-2): - 2/5*:b(-1)b(3):",
    "5*b(-2) + b(-1) + b(1) + 5*b(2)",
    "T(2) + 7*K",
    ":b(1)b(4): - :b(2)b(3):",
    "-1/2*T(0) + 1/2*b(-1)",
]


def test_format_zero():
    assert format_expression(QuadraticElement()) == "0*K"


def test_canonical_strings_round_trip():
    for text in CANONICAL:
        elem = parse_expression(text)
        assert format_expression(elem) == text
        assert parse_expression(format_expression(elem)) == elem


def _random_element(rng):
    A = QuadraticElement()
    for _ in range(rng.randrange(1, 5)):
        coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        kind = rng.randrange(4)
        if kind == 0:
            A = A + unit(coeff)
        elif kind == 1:
            A = A + b(rng.choice([m for m in range(-5, 6) if m])).scale(coeff)
        elif kind == 2:
            a = rng.choice([m for m in range(-4, 5) if m])
            bb = rng.choice([m for m in range(-4, 5) if m])
            A = A + pair(a, bb).scale(coeff)
        else:
            A = A + tau(rng.randrange(-4, 5)).scale(coeff)
    return A


def test_random_round_trips():
    rng = random.Random(20260819)
    seen = set(CANONICAL)
    for _ in range(60):
        A = _random_element(rng)
        text = format_expression(A)
        seen.add(text)
        assert parse_expression(text) == A
        assert format_expression(parse_expression(text)) == text
    assert len(seen) >= 50


def test_format_rejects_nonconstant_diagonal():
    # a(2 - a) is symmetric on the d = 2 diagonal but not constant
    A = QuadraticElement(quad={2: DiagonalSeries(2, Poly((0, 2, -1)))})
    with pytest.raises(ValueError, match="canonical"):
        format_expression(A)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cmd_bracket(capsys):
    code, out, _ = run_cli(capsys, ["bracket", ":b(1)b(-2):", "b(-1)"])
    assert (code, out) == (0, "b(-2)\n")
    code, out, _ = run_cli(capsys, ["bracket", "b(-1)", ":b(1)b(1):"])
    assert (code, out) == (0, "-2*b(1)\n")
    code, out, _ = run_cli(capsys, ["bracket", "b(1)", "b(-1)"])
    assert (code, out) == (0, "K\n")
    code, out, _ = run_cli(capsys, ["bracket", "T(2)", "T(-2)"])
    assert (code, out) == (0, "4*T(0) + 1/2*K\n")


def test_cmd_bracket_json(capsys):
    code, out, _ = run_cli(capsys, ["bracket", "b(1)", "b(-1)",
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"command": "bracket",
                               "inputs": ["b(1)", "b(-1)"], "result": "K"}


def test_cmd_cocycle(capsys):
    code, out, _ = run_cli(capsys, ["cocycle", "psi", "T(2)", "T(-2)"])
    assert (code, out) == (0, "-1\n")
    code, out, _ = run_cli(capsys, ["cocycle", "beta", "b(1)", "b(-1)"])
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(capsys, ["cocycle", "gamma", ":b(1)b(1):", "b(-2)"])
    assert (code, out) == (0, "2\n")
    code, out, _ = run_cli(capsys, ["cocycle", "psi", "T(2)", "T(-2)",
                                    "--format", "json"])
    assert json.loads(out)["value"] == "-1"


def test_cmd_fock_apply(capsys):
    code, out, _ = run_cli(capsys, ["fock-apply", "T(-2)", "[]"])
    assert (code, out) == (0, "1/2*[1,1]\n")
    code, out, _ = run_cli(capsys, ["fock-apply", ":b(-2)b(2):", "[2]"])
    assert (code, out) == (0, "2*[2]\n")
    code, out, _ = run_cli(capsys, ["fock-apply", "T(-2)", "[]",
                                    "--format", "json"])
    data = json.loads(out)
    assert data["result"] == [{"label": "[1,1]", "coeff": "1/2"}]
    # an integral coefficient is a string too
    code, out, _ = run_cli(capsys, ["fock-apply", ":b(-2)b(2):", "[2]",
                                    "--format", "json"])
    assert json.loads(out)["result"] == [{"label": "[2]", "coeff": "2"}]


def test_cmd_fock_apply_large_offset_is_fast(capsys):
    # only pairs of parts present in the state can both be annihilated
    start = time.process_time()
    code, out, _ = run_cli(capsys, ["fock-apply", "T(2000000)", "[3,2,1]"])
    assert (code, out) == (0, "0\n")
    code, out, _ = run_cli(capsys, ["fock-apply", "T(2000000)",
                                    "[1999999,1000000,1000000,1]"])
    assert (code, out) == (0, "1000000000000*[1999999,1] "
                              "+ 1999999*[1000000,1000000]\n")
    assert time.process_time() - start < 0.2


def fock_apply_closed_form(p):
    """(label, coefficient) terms of T(-p) on [1]: [p+1], then [p-i,i,1] for
    i = 1..p//2, with coefficient 1/2 at i = p/2 and 1 elsewhere."""
    terms = [(f"[{p + 1}]", "1")]
    for i in range(1, p // 2 + 1):
        terms.append((f"[{p - i},{i},1]", "1/2" if 2 * i == p else "1"))
    return terms


@pytest.mark.parametrize("p", [7, 8, 1000])
def test_cmd_fock_apply_closed_form(capsys, p):
    terms = fock_apply_closed_form(p)
    code, out, _ = run_cli(capsys, ["fock-apply", f"T({-p})", "[1]"])
    text = " + ".join(label if c == "1" else f"{c}*{label}" for label, c in terms)
    assert (code, out) == (0, text + "\n")
    code, out, _ = run_cli(capsys, ["fock-apply", f"T({-p})", "[1]",
                                    "--format", "json"])
    assert code == 0
    assert json.loads(out) == {
        "command": "fock-apply", "expr": f"T({-p})", "state": "[1]",
        "result": [{"label": label, "coeff": c} for label, c in terms]}


def test_cmd_coinv_json(capsys):
    code, out, _ = run_cli(capsys, ["coinv"])
    assert code == 0
    data = json.loads(out)
    assert list(data.keys()) == ["gaps", "rank", "N", "M", "W", "dims",
                                 "stabilized", "generators"]
    assert data["gaps"] == []
    assert data["rank"] == 1
    assert data["N"] == 4
    assert data["dims"] == [1, 0, 0, 0, 0]
    assert data["stabilized"] is True


def test_cmd_coinv_text(capsys):
    code, out, _ = run_cli(capsys, ["coinv", "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gaps: []"
    assert lines[1] == "rank: 1"
    assert "dims: [1, 0, 0, 0, 0]" in lines
    assert "stabilized: true" in lines


def test_cmd_coinv_unstabilized_exit_3(capsys):
    code, out, _ = run_cli(capsys, ["coinv", "--N", "4", "--M", "4",
                                    "--W", "4"])
    assert code == 3
    assert json.loads(out)["stabilized"] is False


def test_cmd_coinv_gaps(capsys):
    code, out, _ = run_cli(capsys, ["coinv", "--gaps", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["gaps"] == [1]
    assert data["dims"][0] == 1
    assert data["stabilized"] is True


def test_cmd_verify_all(capsys):
    code, out, _ = run_cli(capsys, ["verify-all", "--probe-bound", "2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS ") for line in lines)
    code, out, _ = run_cli(capsys, ["verify-all", "--probe-bound", "2",
                                    "--format", "json"])
    assert code == 0
    verdicts = json.loads(out)
    assert len(verdicts) == 8
    assert all(v["pass"] for v in verdicts)


# SHA-256 of verify-all's stdout at --probe-bound 1..8, text then json.
VERIFY_ALL_DIGESTS = {
    1: ("b6160b1fdbeca8aecc1b0c829e2e6ee2f1a33d4d989860d30688df4140fd8f38",
        "ef0f1ec0b0860a22e70c1325ae0f153ec27e3a1f34a9a6fbeff9b79bfc868524"),
    2: ("a9bd1c865b2791032fcd3751fdd92f23da03b35fd1d191011c4c0c15d5cd042f",
        "789c67109447cccd7d6415565d29f46f8bb7d6c75108d2f596a77bd616d77989"),
    3: ("d1397f01940424560b3d8568bc1487a252b88cd9859865059b028eda98998a29",
        "2089149f90e131cfbf5325b85ca18c0833f5093b3d5efe5cd35dd9ab9f22399b"),
    4: ("3d9dcb069d1f3753f224a95457d097275199d90c369c49fffe75f8becfc32889",
        "e980b2be01ac616c466f6fc9c67750e09becf2b6d6ad88fc4e5adfdd9bf07cec"),
    5: ("625d7bf1431bf9b7ce828e598644f0d51cc6466311e982e0a8f42fd4a504b17c",
        "2a13ced3f4ffd582ff88d74826f8602d13c5908a4b7b2d444013fe23dda0fbee"),
    6: ("a38874f690023124b387766a69d4122cdf81930a109ea0faa3bff110ed1b494d",
        "e578b6431db904a3d1048a678d2640f1a4b99f9d282893200676c7abf59ded58"),
    7: ("1ab8f63d2f335674528cfc9fabc59741919d498b355365f883acf7ebc90f5f06",
        "72d8d670c0695a907a195dc4d707825bd1dba7df0e7268c1dde352e348fd9c20"),
    8: ("de7c598bec1a4688debc260e7dddf0ed3ddaa7d9c72642e4b398bbc5ffd65cd4",
        "e97d268710429cb8a5c1514628dbeec3a0dacfdcb709137b6f7869b50125c0b4"),
}


def test_verify_all_bytes_are_frozen(capsys, monkeypatch):
    # each bound's verdicts are computed once and printed in both formats
    monkeypatch.setattr(oscalg.cli, "verify_all",
                        functools.cache(oscalg.cli.verify_all))
    for bound, digests in VERIFY_ALL_DIGESTS.items():
        for fmt, digest in zip(("text", "json"), digests):
            code, out, _ = run_cli(capsys, ["verify-all", "--probe-bound",
                                            str(bound), "--format", fmt])
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (bound, fmt)


# The gap sets of perfbench/jobs.py: every numerical semigroup of genus <= 3
# and {1,2,3,5,7}.
COINV_GAP_SETS = ("", "1", "1,2", "1,3", "1,2,3", "1,2,4", "1,2,5", "1,3,5",
                  "1,2,3,5,7")
# Commands that exit 2: over the state-space cap, N > M, W < M, bad gaps.
COINV_REFUSED = (
    ["--N", "60", "--M", "60", "--W", "60"],
    ["--rank", "1100", "--N", "2", "--M", "2", "--W", "2"],
    ["--N", "5", "--M", "3", "--W", "3"],
    ["--N", "2", "--M", "4", "--W", "3"],
    ["--gaps", "1,x"],
    ["--gaps", "0,2"],
)
COINV_DIGESTS = {
    "answered": "83d23324bb531352f3f20627a1093936f75c62910e76f311a6e3f9281b1d02cb",
    "refused": "4be52a54f773ea20985f7db606b9d820ed0c3487922817346ffa57cc413a3937",
}


def _cli_digest(capsys, argvs) -> str:
    """SHA-256 over each argv and the exit code, stdout and stderr it gives."""
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = run_cli(capsys, argv)
        digest.update(repr((argv, code, out, err)).encode())
    return digest.hexdigest()


def test_coinv_bytes_are_frozen(capsys):
    answered = [["coinv", "--gaps", gaps, "--rank", str(rank), "--N", str(N),
                 "--M", str(N + dM), "--W", str(N + dM + dW), "--side", side,
                 "--format", fmt]
                for gaps in COINV_GAP_SETS for rank in (1, 2, 3)
                for side in "AX" for fmt in ("text", "json")
                for N in (0, 3, 6) for dM in (0, 2) for dW in (0, 2)]
    assert len(answered) == 1296
    refused = [["coinv", *argv, "--format", fmt]
               for argv in COINV_REFUSED for fmt in ("text", "json")]
    assert _cli_digest(capsys, answered) == COINV_DIGESTS["answered"]
    assert _cli_digest(capsys, refused) == COINV_DIGESTS["refused"]


# fock-apply T(-p) and -1/2*T(-p) for p where the created parts -a and
# a - d cross 10, 1000, 2000, 10^4 or 10^5, on states of rank 1 and 2 whose
# parts straddle them; the largest p, whose runs print 5*10^4 terms, on
# fewer states.
FOCK_APPLY_STATES = {
    (2, 3, 4, 11, 50, 999, 1000, 1001, 1002, 1003, 1999, 2000, 2001, 2002,
     2003): ("[1]", "[1001,1000,999,2]", "([2001,1999,1000]|[3])",
             "(-|[10001,9999])", "[100000,10000,1]"),
    (9999, 10001): ("[1]", "(-|[10001,9999])", "[100000,10000,1]"),
    (99999, 100001): ("[100000,10000,1]",),
}
# Commands that exit 2: malformed labels and expressions.
FOCK_APPLY_REFUSED = (
    ("T(-3)", "[1,0]"), ("T(-3)", "[1"), ("T(-3)", "([1]|[2]"),
    ("T(-3)", "[1000,-1]"), ("T(-3) +", "[1]"), ("b(0)", "[1]"),
    ("T(-p)", "[1]"), ("1/0*T(-3)", "[1]"),
)
FOCK_APPLY_DIGESTS = {
    "answered": "bce48cc85aee2e0dcc22e1fe4e3984c53ea9d62c74116fde23e0e4eb9385f67f",
    "refused": "6fa68193cb59323fae27cde65f4505cc5d49bb7d2d03e474a18dc42eeabdfc52",
}


def test_fock_apply_bytes_are_frozen(capsys):
    answered = [["fock-apply", expr, state, "--format", fmt]
                for ps, states in FOCK_APPLY_STATES.items() for p in ps
                for expr in (f"T({-p})", f"-1/2*T({-p})")
                for state in states for fmt in ("text", "json")]
    assert len(answered) == 332
    refused = [["fock-apply", expr, state, "--format", fmt]
               for expr, state in FOCK_APPLY_REFUSED for fmt in ("text", "json")]
    assert _cli_digest(capsys, answered) == FOCK_APPLY_DIGESTS["answered"]
    assert _cli_digest(capsys, refused) == FOCK_APPLY_DIGESTS["refused"]


def test_cmd_central_scalars(capsys):
    code, out, _ = run_cli(capsys, ["central-scalars"])
    assert code == 0
    assert "mp cocycle: -1/2*alpha (on tau-hat pair at p=2: 1/2)" in out
    assert "c=26: A-side 13, X-side -26" in out
    code, out, _ = run_cli(capsys, ["central-scalars", "--format", "json"])
    table = json.loads(out)
    assert table["u2_cocycle"] == "-1/2*alpha + beta"
    assert table["atiyah"][3] == {"c": "26", "A_multiple": "13",
                                  "X_multiple": "-26"}
    assert (table["lambda_fiber"], table["theta_fiber"]) == ("2", "-1")


@pytest.mark.parametrize("expr, state", [
    ("T(-9) + 2/3*b(-2) - K", "([2,1]|[3])"),
    ("T(4) - T(4)", "[1]"),
    # whitespace that JSON escapes, in both echoed inputs
    ("T(-3)\t+\u00a0b(-1)", " [2,2]\t"),
    # a fractional coefficient, halved again at the midpoint of d = -8
    ("1/3*T(-8)", "[1]"),
    # a rank-3 state with an empty channel written -
    ("T(-5)", "([2]|-|[1,1])"),
    # the empty result
    ("0*K", "[1]"),
])
def test_fock_apply_json_is_json_dumps(capsys, expr, state):
    # the streamed report has the bytes json.dumps gives the whole report
    v = FockVector.basis(parse_label(state))
    terms = apply_quadratic(parse_expression(expr), v).terms_sorted()
    report = {"command": "fock-apply", "expr": expr, "state": state,
              "result": [{"label": format_label(st), "coeff": str(c)}
                         for st, c in terms]}
    code, out, _ = run_cli(capsys, ["fock-apply", expr, state, "--format", "json"])
    assert (code, out) == (0, json.dumps(report) + "\n")


class _ByteCount(io.TextIOBase):
    """A stdout that keeps only the number of characters written and of
    write calls."""

    def __init__(self):
        self.count = 0
        self.writes = 0

    def write(self, text):
        self.count += len(text)
        self.writes += 1
        return len(text)


def _stream_to_counter(monkeypatch, argv):
    """main(argv) with stdout a _ByteCount: (exit code, characters
    written, write calls, peak traced bytes)."""
    sink = _ByteCount()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, sink.count, sink.writes, peak


def test_fock_apply_streams_its_terms(monkeypatch):
    # T(-40000) on [1] prints 20001 terms, 0.35 MB, holding none of them;
    # building the image whole traces about 6.6 MiB
    text = " + ".join(label if c == "1" else f"{c}*{label}"
                      for label, c in fock_apply_closed_form(40000))
    code, count, writes, peak = _stream_to_counter(
        monkeypatch, ["fock-apply", "T(-40000)", "[1]"])
    assert (code, count) == (0, len(text) + 1)
    assert peak < 2 * 2 ** 20
    # one write per block of pieces, not one per term
    assert writes <= -(-20001 // oscalg.fock.BLOCK) + 2


def test_fock_apply_streams_its_json(monkeypatch):
    # the same 20001 terms as JSON, 0.93 MB, also held a block at a time;
    # the report's opening and its closing are one write each
    report = {"command": "fock-apply", "expr": "T(-40000)", "state": "[1]",
              "result": [{"label": label, "coeff": c}
                         for label, c in fock_apply_closed_form(40000)]}
    code, count, writes, peak = _stream_to_counter(
        monkeypatch, ["fock-apply", "T(-40000)", "[1]", "--format", "json"])
    assert (code, count) == (0, len(json.dumps(report)) + 1)
    assert peak < 2 * 2 ** 20
    assert writes <= -(-20001 // oscalg.fock.BLOCK) + 2 + 2


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
@pytest.mark.parametrize("expr, state, message", [
    ("T(-3)", "[1,0]", "label '[1,0]': part 0 is not positive"),
    ("T(-3)", "[1", "bad partition '[1': expected [..] or -"),
    ("T(-3) +", "[1]", "expected an atom, found 'END' at position 7"),
    ("b(0)", "[1]", "b(0) is the central element; write K at position 2"),
])
def test_fock_apply_errors_print_nothing_on_stdout(capsys, fmt, expr, state, message):
    assert run_cli(capsys, ["fock-apply", expr, state, *fmt]) == (
        2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# error paths and exit codes
# ---------------------------------------------------------------------------

def test_cli_parse_error_exit_2(capsys):
    code, out, err = run_cli(capsys, ["bracket", "b(0)", "K"])
    assert code == 2
    assert out == ""
    assert "b(0) is the central element; write K at position 2" in err
    code, _, err = run_cli(capsys, ["bracket", "b(1", "K"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, message", [
    (["--rank", "0"], "rank must be a positive integer"),
    (["--N", "-2", "--M", "3", "--W", "3"], "N must be nonnegative"),
    (["--N", "4", "--M", "2", "--W", "2"], "N must not exceed the source cap M"),
    (["--N", "4", "--M", "8", "--W", "4"], "W must cover the source cap M"),
])
def test_cmd_coinv_invalid_input_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, ["coinv"] + argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_cmd_coinv_large_rank(capsys):
    code, out, _ = run_cli(capsys, ["coinv", "--rank", "1100", "--N", "0",
                                    "--M", "0", "--W", "0"])
    assert code == 3
    assert json.loads(out)["dims"] == [1]


@pytest.mark.parametrize("bound", ["-3", "0"])
def test_verify_all_empty_grid_exit_2(capsys, bound):
    code, out, err = run_cli(capsys, ["verify-all", "--probe-bound", bound])
    assert code == 2
    assert out == ""
    assert "probe bound must be at least 1" in err


def test_cli_unknown_command_exit_2():
    assert main(["nosuch"]) == 2


def test_cli_bad_cocycle_name_exit_2():
    assert main(["cocycle", "delta", "K", "K"]) == 2


def test_usage_errors_return_their_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")    # argparse wraps usage to the terminal
    code, out, err = run_cli(capsys, ["bracket", "K"])
    assert code == 2
    assert out == ""
    assert err == ("usage: oscalg bracket [-h] [--format {text,json}] x y\n"
                   "oscalg bracket: error: the following arguments are "
                   "required: y\n")
    code, out, err = run_cli(capsys, ["--help"])
    assert code == 0
    assert out.startswith("usage: oscalg") and err == ""


def test_console_script_matches_main(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rank = x\n")
    env = {**os.environ, "PYTHONPATH": str(Path(oscalg.__file__).parent.parent)}
    for argv in (["bracket", "T(2)", "T(-2)"], ["bracket", "K"],
                 ["coinv", "--help"], ["--config", str(cfg), "coinv"]):
        proc = subprocess.run([sys.executable, "-m", "oscalg", *argv], env=env,
                              capture_output=True, text=True)
        got = (proc.returncode, proc.stdout, proc.stderr)
        assert got == run_cli(capsys, argv), argv


def test_leading_minus_expression_after_double_dash(capsys):
    code, out, _ = run_cli(capsys, ["bracket", "--format", "json", "--",
                                    "-1/3*b(-1)", "b(1)"])
    assert code == 0
    assert json.loads(out) == {"command": "bracket",
                               "inputs": ["-1/3*b(-1)", "b(1)"],
                               "result": "1/3*K"}


@pytest.mark.parametrize("argv, dashed", [
    (["bracket", "-1/3*K", "K"], ["bracket", "--", "-1/3*K", "K"]),
    (["bracket", "T(1)", "-T(-1)", "--format", "json"],
     ["bracket", "--format", "json", "--", "T(1)", "-T(-1)"]),
    (["cocycle", "psi", "-T(2)", "T(-2)"],
     ["cocycle", "--", "psi", "-T(2)", "T(-2)"]),
    (["fock-apply", "-1/2*T(-2)", "[1]", "--format", "json"],
     ["fock-apply", "--format", "json", "--", "-1/2*T(-2)", "[1]"]),
    # a bare '-' is the empty-channel label, a positional
    (["fock-apply", "-1/2*T(-2)", "-"], ["fock-apply", "--", "-1/2*T(-2)", "-"]),
])
def test_leading_minus_expression_without_double_dash(capsys, argv, dashed):
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, dashed)


@pytest.mark.parametrize("expr", ["-\u0663*b(-1)", "- \u0663*b(-1)"])
def test_leading_minus_before_a_non_ascii_digit(capsys, expr):
    # the tokenizer reads any decimal digit, here ARABIC-INDIC DIGIT THREE,
    # so a '-' before one opens a term and is no option
    code, out, err = run_cli(capsys, ["bracket", "b(1)", expr])
    assert (code, out, err) == (0, "-3*K\n", "")


@pytest.mark.parametrize("argv, canonical", [
    # argparse reads --form as --format, so json is its value
    (["bracket", "--form", "json", "T(1)", "-T(-1)"],
     ["bracket", "--format", "json", "--", "T(1)", "-T(-1)"]),
    # a `--` after options that follow the positionals
    (["bracket", "T(1)", "T(-1)", "--format", "json", "--"],
     ["bracket", "--format", "json", "--", "T(1)", "T(-1)"]),
    (["fock-apply", "K", "[]", "--format=text", "--"],
     ["fock-apply", "--format", "text", "--", "K", "[]"]),
])
def test_option_spellings_and_double_dash_keep_their_meaning(capsys, argv,
                                                             canonical):
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, canonical)


def test_options_keep_their_meaning_next_to_leading_minus(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, _, err = run_cli(capsys, ["bracket", "--bogus", "-K", "K"])
    assert code == 2 and "unrecognized arguments: --bogus" in err
    code, _, err = run_cli(capsys, ["bracket", "-K", "K", "--format", "yaml"])
    assert code == 2 and "invalid choice: 'yaml'" in err
    code, out, _ = run_cli(capsys, ["cocycle", "psi", "-K", "-h"])
    assert code == 0 and out.startswith("usage: oscalg cocycle")


# -- an argv sweep over the expression commands --------------------------------

_INDEX = st.integers(-3, 3).map(str)
_ATOM = st.one_of(st.just("K"), _INDEX.map("b({})".format),
                  st.builds(":b({})b({}):".format, _INDEX, _INDEX),
                  _INDEX.map("T({})".format), _INDEX.map("S({})".format))
# \u0663 is ARABIC-INDIC DIGIT THREE, a digit to the tokenizer as to int
_COEFF = st.sampled_from(["", "2*", "0*", "1/2*", "3/0*", "\u0663*"])
_TERM = st.builds(str.__add__, _COEFF, _ATOM)
# every expression opens with an optional sign and a term, so a '-' in
# front of it is never read as an option
_EXPR = st.builds(lambda sign, first, rest: sign + first + "".join(rest),
                  st.sampled_from(["", "-", "- ", "+"]), _TERM,
                  st.lists(st.builds(str.__add__, st.sampled_from(["+", " - "]),
                                     _TERM), max_size=2))
_LABEL = st.sampled_from(["[]", "-", "[1]", "[2,1]", "([1]|-)", "[0]"])
_POSITIONALS = st.one_of(
    st.tuples(st.just("bracket"), st.tuples(_EXPR, _EXPR)),
    st.tuples(st.just("cocycle"),
              st.tuples(st.sampled_from(["psi", "alpha", "beta", "gamma"]),
                        _EXPR, _EXPR)),
    st.tuples(st.just("fock-apply"), st.tuples(_EXPR, _LABEL)))
# (options, their canonical spelling); argparse also reads a unique prefix
# of a long option, as in --form json
_OPTIONS = st.sampled_from([
    ((), ()), (("--format", "json"),) * 2, (("--format", "yaml"),) * 2,
    (("--format=text",), ("--format", "text")),
    (("--form", "json"), ("--format", "json")),
    (("--fo=json",), ("--format", "json"))])


@st.composite
def _expression_argv(draw):
    """(argv, its canonical form with every option before a `--`, or None
    when a drawn `--` makes an option positional)."""
    command, positionals = draw(_POSITIONALS)
    options, spelled = draw(_OPTIONS)
    at = draw(st.integers(0, len(positionals)))
    args = [*positionals[:at], *options, *positionals[at:]]
    canonical = [command, *spelled, "--", *positionals]
    dash = draw(st.none() | st.integers(0, len(args)))
    if dash is not None:
        args.insert(dash, "--")
        if options and dash < at + len(options):
            canonical = None    # `--` before or inside the options
    return [command, *args], canonical


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_expression_argv())
def test_expression_argv_sweep(drawn):
    argv, canonical = drawn
    code, out, err = _run_quiet(argv)
    if code == 0:
        assert out and err == "", argv
    else:
        assert code == 2 and out == "", argv
        one_error = err.startswith("error: ") and err.count("\n") == 1
        assert one_error or err.startswith("usage: oscalg "), argv
    if canonical is not None:
        assert (code, out, err) == _run_quiet(canonical), argv


def _assert_clean_exit(argv):
    """main(argv) answers with exit 0, 1 or 3 and a quiet stderr, or exits
    2 with empty stdout and one line holding `error:`."""
    code, out, err = _run_quiet(argv)
    if code in (0, 1, 3):
        assert out and err == "", argv
    else:
        assert code == 2 and out == "", argv
        errors = [line for line in err.splitlines() if "error: " in line]
        assert len(errors) == 1 and "Traceback" not in err, argv


# \u0662 is ARABIC-INDIC DIGIT TWO, which int and parse_int read as 2
_GAP = st.sampled_from(["1", "2", "3", "5", "0", "", " 2", "+1", "-1", "x",
                        "\u0662", "7"])
_GAPS = st.lists(_GAP, max_size=4).map(",".join)
_SIZE = st.sampled_from(["0", "1", "2", "3", "4", "6", "-1", "\u0662"])


@st.composite
def _coinv_argv(draw):
    gaps = draw(_GAPS)
    argv = ["coinv", *draw(st.sampled_from([["--gaps", gaps],
                                            [f"--gaps={gaps}"], []]))]
    for flag, values in (("--N", _SIZE), ("--M", _SIZE), ("--W", _SIZE),
                         ("--rank", st.sampled_from(["1", "2", "3", "0"])),
                         ("--side", st.sampled_from(["A", "X", "Y"])),
                         ("--format", st.sampled_from(["text", "json"]))):
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_coinv_argv())
def test_coinv_argv_sweep(argv):
    _assert_clean_exit(argv)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.lists(st.sampled_from([["--probe-bound", "0"], ["--probe-bound", "1"],
                                 ["--probe-bound=2"], ["--probe-bound", "3"],
                                 ["--probe-bound", "-1"], ["--probe-bound", "x"],
                                 ["--format", "json"], ["--format", "text"]]),
                max_size=2))
def test_verify_all_argv_sweep(options):
    _assert_clean_exit(["verify-all", *(arg for opt in options for arg in opt)])


# \u0663 is ARABIC-INDIC DIGIT THREE, which parse_int reads as 3;
# \u00b2 is SUPERSCRIPT TWO, a digit to str.isdigit but not to int
_PART = st.sampled_from(["1", "2", "0", "+3", "\u0663", "\u00b2", "", " ", "-1"])
_PARTITION = st.one_of(
    st.just("-"),
    st.lists(_PART, max_size=3).map(lambda parts: "[" + ",".join(parts) + "]"),
    st.lists(st.sampled_from(["[", "]", "(", ")", "|", ",", "-", " ", "0",
                              "+3", "\u0663", "\u00b2"]),
             min_size=1, max_size=5).map("".join))
_STATE_LABEL = st.one_of(
    _PARTITION,
    st.lists(_PARTITION, min_size=2, max_size=3).map(
        lambda channels: "(" + "|".join(channels) + ")"),
    st.builds(str.__add__, st.sampled_from([" ", "  "]), _PARTITION))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(["T(-3)", "b(-1) + 2*K", ":b(-2)b(1):", "T(2) - T(2)"]),
       _STATE_LABEL, st.sampled_from(["text", "json"]))
def test_fock_apply_label_sweep(expr, label, form):
    argv = ["fock-apply", expr, label, "--format", form]
    code, out, err = _run_quiet(argv)
    if code == 0:
        assert out.count("\n") == 1 and out.endswith("\n") and err == "", argv
    else:
        assert code == 2 and out == "" and "Traceback" not in err, argv
        assert err.startswith(("error: ", "usage: oscalg ")), argv


@pytest.mark.parametrize("argv, message", [
    (["coinv", "--gaps", "a"], "--gaps: 'a' is not an integer"),
    (["coinv", "--gaps", "1,,2"], "--gaps: '' is not an integer"),
    (["fock-apply", "T(2)", "[1,x]"], "label '[1,x]': 'x' is not an integer"),
])
def test_integer_errors_name_the_field(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("label, message", [
    ("[1,0]", "label '[1,0]': part 0 is not positive"),
    ("[1,-2]", "label '[1,-2]': part -2 is not positive"),
    ("([1]|[0])", "label '[0]': part 0 is not positive"),
])
def test_nonpositive_parts_name_the_label(capsys, label, message):
    code, out, err = run_cli(capsys, ["fock-apply", "T(2)", label])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_defaults_and_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("M = 4\nW = 4\nformat = text\n# comment line\n")
    code, out, _ = run_cli(capsys, ["--config", str(cfg), "coinv"])
    assert code == 3
    assert "stabilized: false" in out
    # flags given on the command line override config defaults
    code, out, _ = run_cli(capsys, ["--config", str(cfg), "coinv",
                                    "--M", "8", "--W", "8"])
    assert code == 0
    assert "stabilized: true" in out


def test_config_after_subcommand(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("M = 4\nW = 4\n")
    code, out, _ = run_cli(capsys, ["coinv", "--config=" + str(cfg)])
    assert code == 3
    assert json.loads(out)["stabilized"] is False


def test_config_hyphen_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("probe-bound = 2\n")
    code, out, _ = run_cli(capsys, ["--config", str(cfg), "verify-all"])
    assert code == 0
    assert all(line.startswith("PASS ") for line in out.splitlines())


def test_config_errors(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("zzz = 1\n")
    code, _, err = run_cli(capsys, ["--config", str(bad), "coinv"])
    assert code == 2
    assert "unknown key" in err
    bad.write_text("# ranks\nrank 2\n")
    assert run_cli(capsys, ["--config", str(bad), "coinv"]) == (
        2, "", f"error: {bad}:2: expected key = value\n")
    code, _, err = run_cli(capsys, ["--config"])
    assert code == 2
    assert "needs a path" in err
    code, _, err = run_cli(capsys, ["--config", str(tmp_path / "nope.cfg"),
                                    "coinv"])
    assert code == 2


def test_config_integer_error_names_path_line_and_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# ranks\nrank = x\n")
    code, out, err = run_cli(capsys, ["--config", str(cfg), "coinv"])
    assert code == 2
    assert out == ""
    assert err == f"error: {cfg}:2: key 'rank': 'x' is not an integer\n"


@pytest.mark.parametrize("key, value, argv", [
    ("side", "Z", ["coinv", "--gaps", "1"]),
    ("format", "xml", ["bracket", "b(1)", "b(-1)"]),
])
def test_config_value_outside_choices_exit_2(capsys, tmp_path, key, value, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, err = run_cli(capsys, ["--config", str(cfg)] + argv)
    assert code == 2
    assert out == ""
    assert repr(key) in err and repr(value) in err


def test_config_needs_one_nonempty_path(capsys, tmp_path):
    first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
    first.write_text("M = 4\n")
    second.write_text("format = text\n")
    for argv, message in [
            (["--config=", "coinv"], "--config needs a path"),
            (["--config", "", "coinv"], "--config needs a path"),
            (["coinv", "--config="], "--config needs a path"),
            (["--config", str(first), "--config", str(second), "coinv"],
             "--config may be given only once"),
            (["--config", str(first), "coinv", f"--config={first}"],
             "--config may be given only once")]:
        assert run_cli(capsys, argv) == (2, "", f"error: {message}\n"), argv


def test_config_after_double_dash_is_positional(capsys, tmp_path, monkeypatch):
    # after `--` an argument that looks like --config is an expression
    monkeypatch.chdir(tmp_path)
    (tmp_path / "K").write_text("format = json\n")
    assert run_cli(capsys, ["bracket", "--", "--config=K", "K"]) == (
        2, "", "error: unexpected character 'c' at position 2\n")
    assert run_cli(capsys, ["bracket", "--", "--config", "K"]) == (
        2, "", "error: unexpected character 'c' at position 2\n")
    # a --config before `--` is still read
    code, out, _ = run_cli(capsys, ["--config", "K", "bracket", "--", "b(1)", "-b(-1)"])
    assert (code, json.loads(out)["result"]) == (0, "-K")


def test_shared_parser_keeps_nothing_between_calls(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\n")
    code, out, _ = run_cli(capsys, ["--config", str(cfg), "bracket", "b(1)", "b(-1)"])
    assert (code, json.loads(out)["result"]) == (0, "K")
    assert run_cli(capsys, ["bracket", "b(1)", "b(-1)"]) == (0, "K\n", "")


@pytest.mark.parametrize("config, argv, expected", [
    # an int key, a string key, a choices key, and an abbreviated flag
    ("M = 4\nW = 4\n", ["coinv", "--M", "6", "--W", "6"],
     ["coinv", "--M", "6", "--W", "6"]),
    ("gaps = 1\n", ["coinv", "--gaps", "1,3"], ["coinv", "--gaps", "1,3"]),
    ("side = X\nformat = json\n", ["coinv", "--side", "A", "--format", "text"],
     ["coinv", "--format", "text"]),
    ("probe-bound = 2\n", ["verify-all", "--prob", "1"],
     ["verify-all", "--probe-bound", "1"]),
])
def test_argv_flag_beats_config(capsys, tmp_path, config, argv, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    want = run_cli(capsys, expected)
    assert run_cli(capsys, ["--config", str(cfg)] + argv) == want
    assert run_cli(capsys, argv[:1] + [f"--config={cfg}"] + argv[1:]) == want
    # the config value alone gives a different answer
    assert run_cli(capsys, ["--config", str(cfg), argv[0]]) != want


@pytest.mark.parametrize("argv", [
    ["bracket", "K", "K"],                 # the subcommand has no --side
    ["coinv", "--side", "A"],              # a flag overrides the key
])
def test_config_values_are_checked_even_when_unused(capsys, tmp_path, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sides\nside = Z\n")
    assert run_cli(capsys, ["--config", str(cfg)] + argv) == (
        2, "", f"error: {cfg}:2: key 'side': invalid choice 'Z'\n")


# config lines: every key in both spellings of probe-bound, good and bad
# integers and choices, an unknown key, a line without `=`, a comment and a
# blank line; drawn lines may repeat a key
_CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(["N", "M", "W", "rank", "probe_bound",
                               "probe-bound"]),
              st.sampled_from(["0", "1", "2", "4", "-1", "x", "", "\u0662"])
              ).map(" = ".join),
    st.sampled_from(["gaps = 1,3", "gaps = ", "gaps = 0", "gaps = 1,,2",
                     "side = A", "side = X", "side = Y", "format = json",
                     "format = text", "format = xml", "colour = red",
                     "rank 2", "# comment", ""]))
_CONFIG_COMMANDS = st.sampled_from([
    ["bracket", "b(1)", "b(-1)"], ["cocycle", "psi", "T(2)", "T(-2)"],
    ["fock-apply", "T(-2)", "[1]"], ["coinv"], ["verify-all"],
    ["central-scalars"]])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(_CONFIG_LINE, max_size=4), _CONFIG_COMMANDS,
       st.sampled_from(["before", "after", "after="]))
def test_config_line_sweep(tmp_path_factory, lines, command, placement):
    cfg = tmp_path_factory.getbasetemp() / "sweep.cfg"
    # verify-all reads a probe bound of 1 unless a drawn line overrides it
    head = ["probe_bound = 1"] if command[0] == "verify-all" else []
    cfg.write_text("\n".join(head + lines) + "\n")
    argv = {"before": ["--config", str(cfg), *command],
            "after": [*command, "--config", str(cfg)],
            "after=": [*command, f"--config={cfg}"]}[placement]
    _assert_clean_exit(argv)


def test_only_entry_points_import_cli():
    pkg = Path(oscalg.__file__).parent
    for path in sorted(pkg.glob("*.py")):
        if path.stem == "__main__":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any(n in ("cli", "oscalg.cli") for n in names), path.name


def test_importing_the_library_leaves_the_cli_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(oscalg.__file__).parent.parent)}
    code = ("import sys, oscalg; "
            "print(sorted({'oscalg.cli', 'argparse'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    assert oscalg.parse_expression is oscalg.quadops.parse_expression
    assert oscalg.format_expression is oscalg.quadops.format_expression


def test_only_quadops_holds_the_expression_language():
    # the tokenizer, the parser and the term-start test are defined once
    pkg = Path(oscalg.__file__).parent
    names = {"ExpressionError", "_tokenize", "_Parser", "parse_expression",
             "_SYMBOLS", "_ATOM_START", "opens_term"}
    holders = set()
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [getattr(n, "id", None) for n in node.targets]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a restated symbol set spells the atoms' first letters
                defined = ["_ATOM_START"] if "KbTS" in node.value else []
            else:
                continue
            if names.intersection(defined):
                holders.add(path.name)
    assert holders == {"quadops.py"}


def _enclosed(node, kind, where="<module>"):
    """(enclosing function or class, node) for each node of type kind under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, kind):
            yield where, child
        inner = (child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                 else where)
        yield from _enclosed(child, kind, inner)


def test_parser_is_built_once_and_never_changed():
    # main reads the one parser; only build_parser sets its defaults
    tree = ast.parse(Path(oscalg.cli.__file__).read_text())
    calls = [(where, getattr(call.func, "attr", getattr(call.func, "id", None)))
             for where, call in _enclosed(tree, ast.Call)]
    setters = {where for where, name in calls if name == "set_defaults"}
    assert setters == {"build_parser"}
    assert ("main", "build_parser") not in calls
    # nothing but func is bound, so the commands look up module globals
    subs = oscalg.cli._SUBPARSERS
    assert all(sub._defaults.keys() == {"func"} for sub in subs.values())


def test_only_laurent_joins_signed_terms():
    # the signed-sum separators belong to laurent.format_signed_sum alone
    pkg = Path(oscalg.__file__).parent
    holders = set()
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in ("+ ", "- "):
                holders.add(path.name)
    assert holders == {"laurent.py"}


def test_only_laurent_ratio_divides():
    # int / int is a float, so every true division goes through laurent.ratio
    pkg = Path(oscalg.__file__).parent
    holders = {f"{path.name}:{where}" for path in sorted(pkg.glob("*.py"))
               for where, _ in _enclosed(ast.parse(path.read_text()), ast.Div)}
    assert holders <= {"laurent.py:ratio"}


def test_only_coinv_runs_the_schedule():
    # coinv validates a coinvariant run and steps it through its schedule;
    # the CLI makes one coinvariants_A/X call per command
    tree = ast.parse(Path(oscalg.cli.__file__).read_text())
    named = {getattr(node, attr) for node in ast.walk(tree)
             for attr in ("id", "attr", "name") if hasattr(node, attr)}
    assert not named & {"default_schedule", "stabilize", "CoinvReduction",
                        "check_state_space"}


def test_cli_does_not_build_fock_vectors():
    # fock-apply hands its parsed label to fock.term_labels as a state
    tree = ast.parse(Path(oscalg.cli.__file__).read_text())
    named = {getattr(node, attr) for node in ast.walk(tree)
             for attr in ("id", "attr", "name") if hasattr(node, attr)}
    assert "FockVector" not in named


def test_one_spelling_per_operation():
    # b_n acts through apply_quadratic(b(n), v, channel), the derivative is
    # f.derivative(), the residue laurent.residue(f), zero LaurentPoly() and
    # t^e LaurentPoly.term(1, e); no parameter holds a value that every
    # caller leaves at its default
    for module in (oscalg, oscalg.fock, oscalg.laurent):
        assert not hasattr(module, "apply_mode")
        assert not hasattr(module, "derivative")
    assert not hasattr(LaurentPoly, "residue")
    assert not hasattr(LaurentPoly, "zero")
    assert not hasattr(LaurentPoly, "t")
    # the image of one basis state streams only as term_labels
    assert not hasattr(oscalg.fock, "iter_terms")
    # a sum or multiple of elements is built by quadops._combine
    assert not hasattr(oscalg.quadops, "_series_add")
    assert not hasattr(DiagonalSeries, "scaled")
    for function in (FockVector.basis, b, pair, Poly.affine, virasoro):
        named = set(inspect.signature(function).parameters)
        assert not named & {"coeff", "s", "channel"}, function


def test_the_partition_move_is_coded_once():
    # fock._moved takes a part out of a partition and puts parts in: fock's
    # actions and coinv's targets are made by it alone
    assert not hasattr(oscalg.coinv, "_target")
    tree = ast.parse(Path(oscalg.coinv.__file__).read_text())
    called = {getattr(call.func, "attr", getattr(call.func, "id", None))
              for _, call in _enclosed(tree, ast.Call)}
    assert not called & {"sort", "remove", "bisect_left"}
    tree = ast.parse(Path(oscalg.fock.__file__).read_text())
    removers = {where for where, node in _enclosed(tree, (ast.Call, ast.Delete))
                if isinstance(node, ast.Delete)
                or getattr(node.func, "attr", None) in ("remove", "pop", "index")}
    assert removers == {"_moved"}


def test_only_element_builds_computed_series():
    # every computed sum of series is built by quadops._element; the named
    # elements pair, tau and sigma build their own one series per offset
    pkg = Path(oscalg.__file__).parent
    builders = {f"{path.name}:{where}" for path in sorted(pkg.glob("*.py"))
                for where, call in _enclosed(ast.parse(path.read_text()), ast.Call)
                if getattr(call.func, "id", None) == "DiagonalSeries"}
    assert builders == {"quadops.py:_element", "quadops.py:pair",
                        "quadops.py:tau", "quadops.py:sigma"}


def test_the_diagonal_commutator_takes_one_path():
    # quadops._bracket_diag adds the generic part and scatters each side's
    # deviations: no early return picks a path, no candidate set is
    # gathered and no coefficient is read through DiagonalSeries.coeff
    tree = ast.parse(Path(oscalg.quadops.__file__).read_text())
    kinds = (ast.Return, ast.Set, ast.SetComp, ast.Call)
    found = [type(node).__name__ for where, node in _enclosed(tree, kinds)
             if where == "_bracket_diag" and (
                 not isinstance(node, ast.Call)
                 or getattr(node.func, "attr", None) == "coeff")]
    assert found == []
    assert "_bracket_diag" in {where for where, _ in _enclosed(tree, ast.Call)}


def test_a_diagonal_stores_its_deviations():
    # a DiagonalSeries keeps c(a) - P(a) in `dev`, so no module reads an
    # `exc` attribute, and the kernels that build, sum, scatter and print
    # deviations never call the series' own polynomial to convert one: not
    # as `series.poly(a)` nor through a name bound to it or to `polys`
    pkg = Path(oscalg.__file__).parent
    readers = [f"{path.name}:{where}" for path in sorted(pkg.glob("*.py"))
               for where, node in _enclosed(ast.parse(path.read_text()),
                                            ast.Attribute)
               if node.attr == "exc"]
    assert readers == []
    tree = ast.parse(Path(oscalg.quadops.__file__).read_text())
    kernels = {"_element", "_combine", "_scatter_diag", "_term_chunks"}
    own = {(where, target.id)
           for where, node in _enclosed(tree, ast.Assign) if where in kernels
           and any(getattr(inner, "attr", getattr(inner, "id", None))
                   in ("poly", "polys") for inner in ast.walk(node.value))
           for target in getattr(node.targets[0], "elts", node.targets)
           if isinstance(target, ast.Name)}
    calls = [(where, ast.unparse(call)) for where, call in _enclosed(tree, ast.Call)
             if where in kernels and (
                 getattr(call.func, "attr", None) == "poly"
                 or (where, getattr(call.func, "id", None)) in own)]
    assert calls == []
    assert {where for where, _ in _enclosed(tree, ast.Call)} >= kernels


def test_the_trace_sums_read_stored_deviations():
    # quadops._psi_diag_pair and _mixed_trace add the stored deviations to
    # one power sum of the polynomial part: neither reads a value through
    # DiagonalSeries.coeff (the one coeff call left reads the mode sum g)
    # nor gathers a set of candidate keys, and the power sum takes no
    # actual values and no key set
    tree = ast.parse(Path(oscalg.quadops.__file__).read_text())
    traces = {"_psi_diag_pair", "_mixed_trace"}
    found = [(where, ast.unparse(node))
             for where, node in _enclosed(tree, (ast.Call, ast.Set, ast.SetComp))
             if where in traces and (not isinstance(node, ast.Call)
                                     or getattr(node.func, "attr", None) == "coeff")]
    assert found == [("_mixed_trace", "g.coeff(-d)")]
    defs = {node.name: [arg.arg for arg in node.args.args]
            for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_diagonal_sum" not in defs
    assert defs["_power_sum"] == ["n", "deg", "q"]
    assert traces <= {where for where, _ in _enclosed(tree, ast.Call)}


def test_readme_modules_table_names_what_each_module_has():
    # every backticked call `name(...)` in a row of the README's Modules
    # table whose name has no dot is an attribute of the row's module
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    calls = []
    for row in table.splitlines():
        head = re.match(r"\| `(oscalg\.\w+)` \|", row)
        if head:
            calls += [(head[1], name) for name in re.findall(r"`([\w.]+)\(", row)
                      if "." not in name]
    assert ("oscalg.fock", "term_labels") in calls
    assert [(module, name) for module, name in calls
            if not hasattr(importlib.import_module(module), name)] == []


def test_package_holds_no_assert():
    # python -O strips assert statements, so a guard must raise instead
    pkg = Path(oscalg.__file__).parent
    holders = [f"{path.name}:{node.lineno}" for path in sorted(pkg.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert holders == []


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_json_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["coinv", "--gaps", "1,3"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["fock-apply", "T(-2)", "[1]"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
