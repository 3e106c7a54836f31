"""Tests for the verification helpers: defects, splitting, pullback, fits."""

import ast
import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from oscalg import verify
from oscalg.cli import main
from oscalg.coinv import (FPoint, check_state_space, coinvariants_A,
                          coinvariants_X, default_schedule)
from oscalg.fock import virasoro
from oscalg.quadops import (
    QuadraticElement,
    alpha,
    b,
    beta,
    bracket_sum,
    pair,
    tau,
    unit,
    WittElement,
)
from oscalg.verify import (
    CocycleHandle,
    LAMBDA_FIBER,
    THETA_FIBER,
    alpha_closed,
    central_scalars,
    check_central_scalars,
    check_closed_forms,
    check_cocycle_defects,
    check_fit_psi,
    check_lift_diagram,
    check_jacobi,
    check_pullback_sigma,
    check_splitting,
    cocycle_defect,
    fit_cocycle_coefficients,
    gamma_closed,
    sigma_hat_defect,
    small_generator_set,
    verdict,
    verify_all,
    witt_probe_elements,
)
from test_acceptance import acceptance_generators


def test_cocycle_handles_by_name():
    h = CocycleHandle("psi")
    assert h(tau(2), tau(-2)) == -1
    assert CocycleHandle("alpha")(tau(2), tau(-2)) == -1
    assert CocycleHandle("beta")(b(1), b(-1)) == 1
    assert CocycleHandle("gamma")(pair(1, 1), b(-2)) == 2


def test_cocycle_handle_errors():
    with pytest.raises(ValueError):
        CocycleHandle("nosuch")
    with pytest.raises(ValueError):
        CocycleHandle("custom")
    # any other form is a plain callable
    assert cocycle_defect(lambda u, v: Fraction(7), b(1), b(2), b(3)) == 21


def test_defect_examples():
    x, y, z = pair(1, 1), pair(1, -2), b(-1)
    assert cocycle_defect("gamma", x, y, z) == 2
    assert cocycle_defect("alpha", x, y, z) == 0
    assert cocycle_defect("beta", x, y, z) == 0
    # psi = alpha + beta + gamma inherits gamma's defect here
    assert cocycle_defect("psi", x, y, z) == 2
    assert cocycle_defect("beta", b(1), b(2), b(3)) == 0


def test_extension_cocycle_has_zero_defect():
    # the cocycle the bracket actually realizes is -1/2 alpha + beta
    def h(u, v):
        return Fraction(-1, 2) * alpha(u, v) + beta(u, v)

    x, y, z = pair(1, 1), pair(1, -2), b(-1)
    assert cocycle_defect(h, x, y, z) == 0
    assert cocycle_defect(h, pair(2, -1), b(1), b(-2)) == 0


def test_defect_rejects_central_argument():
    with pytest.raises(ValueError):
        cocycle_defect("gamma", unit(), b(1), b(-1))


def test_defect_is_alternating():
    x, y, z = pair(1, 1), pair(1, -2), b(-1)
    for name in ("psi", "alpha", "gamma"):
        assert cocycle_defect(name, x, y, z) == -cocycle_defect(name, y, x, z)
        assert cocycle_defect(name, x, x, z) == 0


def test_splitting_examples():
    assert check_splitting(FPoint([1]), 6) == []
    assert check_splitting(FPoint([]), 6) == []
    assert check_splitting(FPoint([1, 3]), 8) == []


def test_pullback_examples():
    L = WittElement.L
    mode = WittElement.mode
    assert sigma_hat_defect(L(2), L(-2)) == unit(-1)
    assert sigma_hat_defect(mode(1), mode(-1)) == unit(1)
    assert sigma_hat_defect(L(2), mode(-2)) == unit(-3)
    assert check_pullback_sigma(bound=3) == []


def test_fit_psi():
    assert fit_cocycle_coefficients("psi") == (1, 1, 1)
    assert check_fit_psi() == []


def test_fit_custom_combination():
    def h(u, v):
        return Fraction(-1, 2) * alpha(u, v) + beta(u, v)

    assert fit_cocycle_coefficients(h) == (Fraction(-1, 2), 1, 0)
    assert fit_cocycle_coefficients("alpha") == (1, 0, 0)


def test_closed_form_values():
    L = WittElement.L
    mode = WittElement.mode
    assert alpha_closed(L(2), L(-2)) == -1
    assert alpha_closed(L(2), L(3)) == 0
    assert gamma_closed(L(1), mode(-1)) == 1
    assert gamma_closed(L(2), mode(-2)) == 3
    assert gamma_closed(L(2), mode(3)) == 0
    assert check_closed_forms(bound=4) == []


def test_central_scalars_table():
    table = central_scalars()
    assert table["mp_cocycle"] == "-1/2*alpha"
    assert table["mp_cocycle_on_tau2"] == Fraction(1, 2)
    assert table["u2_cocycle"] == "-1/2*alpha + beta"
    assert table["lambda_fiber"] == 2
    assert table["theta_fiber"] == -1
    assert LAMBDA_FIBER == 2
    assert THETA_FIBER == -1
    rows = table["atiyah"]
    assert [r["c"] for r in rows] == [0, 1, 2, 26]
    for r in rows:
        assert r["A_multiple"] == Fraction(r["c"], 2)
        assert r["X_multiple"] == -r["c"]


def test_jacobi_small_set_clean():
    gens = small_generator_set()
    assert len(gens) == 20
    assert check_jacobi(gens) == []


def test_witt_probe_elements():
    elems = witt_probe_elements(2)
    # L(-2..2) and modes b(+-1), b(+-2)
    assert len(elems) == 9


def test_lift_diagram():
    assert check_lift_diagram(bound=3) == []


def test_verdict_key_order():
    v = verdict("demo", {"n": 3}, [])
    assert list(v.keys()) == ["check", "parameters", "pass", "witnesses"]
    assert v["pass"] is True
    assert v["witnesses"] == []


def test_verify_all_passes():
    verdicts = verify_all(probe_bound=3)
    assert len(verdicts) == 8
    names = [v["check"] for v in verdicts]
    assert names == [
        "jacobi",
        "cocycle-defects",
        "splitting",
        "pullback-sigma",
        "fit-psi",
        "closed-forms",
        "central-scalars",
        "lift-diagram",
    ]
    for v in verdicts:
        assert v["pass"] is True, v
        assert v["witnesses"] == [], v


@pytest.mark.parametrize("check, args, message", [
    (check_pullback_sigma, (-2,), "bound must be at least 1"),
    (check_pullback_sigma, (0,), "bound must be at least 1"),
    (check_lift_diagram, (-1,), "bound must be at least 1"),
    (check_closed_forms, (-1,), "bound must be at least 1"),
    (check_splitting, (FPoint([1]), 1),
     r"W: the window \[1, 1\] holds no element of S"),
    (check_splitting, (FPoint([]), 0),
     r"W: the window \[1, 0\] holds no element of S"),
    (check_jacobi, ([],), "gens must hold at least three elements, not 0"),
    (check_cocycle_defects, ([b(1)],),
     "elements must hold at least three elements, not 1"),
])
def test_checks_refuse_an_empty_grid(check, args, message):
    # an empty probe grid would read as a pass
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(*args)


def test_verify_all_reads_its_bound_as_an_integer(monkeypatch):
    # the report carries the int, and a non-integer fails before any check
    assert json.dumps(verify_all(True)[3]["parameters"]) == '{"bound": 1}'
    monkeypatch.setattr(verify, "check_jacobi",
                        lambda gens: pytest.fail("a check ran"))
    for bound in (2.5, Fraction(3)):
        with pytest.raises(TypeError):
            verify_all(bound)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: verify_all(2.5), "probe bound", id="verify_all"),
    pytest.param(lambda: check_closed_forms(2.5), "bound", id="closed-forms"),
    pytest.param(lambda: check_lift_diagram(2.5), "bound", id="lift-diagram"),
    pytest.param(lambda: check_splitting(FPoint(()), 2.5), "W", id="splitting"),
    pytest.param(lambda: coinvariants_A(1.5, FPoint(()), 2, 4, 4), "rank",
                 id="coinv-rank"),
    pytest.param(lambda: coinvariants_X(1, FPoint(()), 2.0, 4, 4), "N",
                 id="coinv-N"),
    pytest.param(lambda: default_schedule(1, 3.5, 4), "M", id="schedule-M"),
    pytest.param(lambda: check_state_space(1, 2.5), "M", id="state-space-M"),
    pytest.param(lambda: FPoint([1.5]), "gaps", id="gaps"),
])
def test_integer_errors_name_the_parameter(call, name):
    with pytest.raises(TypeError, match=f"^{name}: 'float' object cannot "
                                        f"be interpreted as an integer$"):
        call()


def test_broken_lift_is_a_fail_verdict(monkeypatch, capsys):
    # a lift with a non-central defect fails the checks; it must not abort
    # verify-all with an error before any verdict is printed
    sigma = verify.sigma
    monkeypatch.setattr(verify, "sigma", lambda x: sigma(x) + b(1))
    code = main(["verify-all"])
    captured = capsys.readouterr()
    verdicts = [line for line in captured.out.splitlines()
                if not line.startswith(" ")]
    assert code == 1
    assert captured.err == ""
    assert len(verdicts) == 8
    assert "FAIL pullback-sigma (bound=4)" in verdicts
    assert "FAIL lift-diagram (bound=4)" in verdicts
    # each failing probe is named with its expected and actual values
    lines = captured.out.splitlines()
    assert ("    witness: lift defect at (L(2), L(-2)): expected -K, "
            "got b(-1) - b(1) - b(3) - K") in lines
    assert ("    witness: lift defect mod K at (L(2), L(-2)): expected 0*K, "
            "got b(-1) - b(1) - b(3)") in lines


# ---------------------------------------------------------------------------
# one patched value, one named witness
# ---------------------------------------------------------------------------

def _patch_at(monkeypatch, name, probe, value):
    """Make verify.<name> return value on the probe pair, else the truth."""
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda u, v: Fraction(value)
                        if (u, v) == probe else original(u, v))


def test_cocycle_defect_witness(monkeypatch):
    assert check_cocycle_defects([b(1), b(2), pair(1, -2)]) == []
    monkeypatch.setattr(verify, "_defect_sum", lambda c, triple, brackets: 5)
    assert check_cocycle_defects([b(1), b(2), pair(1, -2)]) == [
        "alpha defect at (b(1), b(2), :b(-2)b(1):): expected 0, got 5",
        "beta defect at (b(1), b(2), :b(-2)b(1):): expected 0, got 5",
        "gamma defect at (:b(1)b(1):, :b(-2)b(1):, b(-1)): expected 2, got 5",
    ]


def test_jacobi_makes_every_bracket(monkeypatch):
    # zero and central-only arguments are skipped inside the kernel, never
    # by its caller: the 2652 ordered pairs of the 52 acceptance generators,
    # then three outer brackets for each of their 22100 triples, handed to
    # bracket_sum as one sum per triple
    gens = acceptance_generators()
    bracket = verify.bracket
    calls = _count_brackets(monkeypatch)
    assert check_jacobi(gens) == []
    assert len(calls) == 52 * 51 + 3 * comb(52, 3) == 2652 + 3 * 22100
    zero = QuadraticElement()
    for x in (unit(), b(-2), pair(1, -3), tau(2),
              tau(-1).scale(3) + b(4) + unit(5)):
        assert bracket(unit(3), x) == zero == bracket(x, unit(3))
        assert x + zero == x == zero + x


def test_jacobi_witness(monkeypatch):
    gens = [b(1), b(-2), tau(0)]
    assert check_jacobi(gens) == []
    bracket = verify.bracket
    monkeypatch.setattr(verify, "bracket", lambda u, v: bracket(u, v) + b(3)
                        if (u, v) == (b(1), b(-2)) else bracket(u, v))
    assert check_jacobi(gens) == [
        "Jacobi sum at (b(1), b(-2), T(0)): expected 0*K, got -3*b(3)"]


def test_splitting_witness(monkeypatch):
    _patch_at(monkeypatch, "alpha", (pair(-1, 2), pair(-1, 3)), 7)
    assert check_splitting(FPoint([]), 6) == [
        "alpha at (:b(-1)b(2):, :b(-1)b(3):): expected 0, got 7"]


def test_pullback_witnesses(monkeypatch):
    sigma = verify.sigma
    monkeypatch.setattr(verify, "sigma", lambda x: sigma(x) + b(1))
    bad = check_pullback_sigma(bound=2)
    assert ("-1/2 alpha + beta of the lifts at (L(1), b(-1)): expected -1, "
            "got 0") in bad
    assert ("lift defect at (L(2), L(-2)): expected -K, "
            "got b(-1) - b(1) - b(3) - K") in bad


def test_fit_witnesses(monkeypatch):
    beta = verify.beta
    monkeypatch.setattr(verify, "beta", lambda u, v: 2 * beta(u, v))
    assert check_fit_psi() == [
        "beta coefficient at (b(1), b(-1)): expected 1, got 1/2"]


def test_piece_vanishing_on_its_probe_fails_fit(monkeypatch, capsys):
    # the fit divides by each piece on its own probe: a zero there is a
    # FAIL verdict, not a ZeroDivisionError
    monkeypatch.setattr(verify, "gamma", lambda u, v: Fraction(0))
    with pytest.raises(ValueError, match="gamma at"):
        fit_cocycle_coefficients("psi")
    code = main(["verify-all"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert "FAIL fit-psi (probes=fixed gauge)" in captured.out.splitlines()
    assert check_fit_psi() == [
        "gamma at (T(2), b(-2)): expected nonzero, got 0"]


def test_closed_forms_witness(monkeypatch):
    _patch_at(monkeypatch, "alpha_closed",
              (WittElement.L(2), WittElement.L(-2)), 5)
    assert check_closed_forms(bound=2) == [
        "alpha_closed at (L(2), L(-2)): expected -1, got 5"]


def test_central_scalars_witnesses(monkeypatch):
    assert check_central_scalars() == []
    monkeypatch.setattr(verify, "psi", lambda u, v: Fraction(3))
    monkeypatch.setattr(verify, "measure_central_charge",
                        lambda p, vectors, apply_L: Fraction(3))
    assert check_central_scalars() == [
        "-1/2 psi at (T(2), T(-2)): expected 1/2, got -3/2",
        "central charge on rank-1 states of degree <= 2: expected 1, got 3",
        "central charge on rank-2 states of degree <= 2: expected 2, got 3",
    ]


def test_the_printed_central_term_is_checked(monkeypatch):
    # the check reads the value the table prints, not a second computation
    table = central_scalars()
    monkeypatch.setattr(verify, "central_scalars",
                        lambda: {**table, "mp_cocycle_on_tau2": Fraction(3, 2)})
    assert check_central_scalars() == [
        "-1/2 psi at (T(2), T(-2)): expected 1/2, got 3/2"]


def test_central_charge_failure_is_a_witness(monkeypatch):
    # one channel's Virasoro action on rank-2 states measures c = 1, not 2
    monkeypatch.setattr(verify, "virasoro_all", virasoro)
    assert check_central_scalars() == [
        "central charge on rank-2 states of degree <= 2: expected 2, got 1"]


def test_lift_diagram_witnesses(monkeypatch):
    sigma = verify.sigma
    monkeypatch.setattr(verify, "sigma", lambda x: sigma(x) + b(1))
    bad = check_lift_diagram(bound=1)
    assert len(bad) == 8
    assert "lift defect mod K at (L(1), L(0)): expected 0*K, got -b(2)" in bad


def _verify_all_report(capsys) -> dict:
    """verify-all's verdict lines, each with the witnesses printed under it;
    the run must fail with nothing on stderr."""
    code = main(["verify-all"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    report = {}
    for line in captured.out.splitlines():
        if line.startswith(" "):
            report[verdict_line].append(line.removeprefix("    witness: "))
        else:
            verdict_line = line
            report[line] = []
    assert len(report) == 8
    return report


def test_lift_diagram_compares_the_action_of_each_tau(monkeypatch, capsys):
    # the diagram's action half: a wrong image of t^12 under T(4) and of
    # t^-12 under T(-4), the corners of its grid, fails it and nothing else
    apply = verify._quad_apply_laurent
    corners = (({4}, {12}), ({-4}, {-12}))
    monkeypatch.setattr(verify, "_quad_apply_laurent", lambda quad, f: (
        apply(quad, f).scale(2) if (set(quad), set(f.coeffs)) in corners
        else apply(quad, f)))
    report = _verify_all_report(capsys)
    assert report["FAIL lift-diagram (bound=4)"] == [
        "T(-4) on t^-12: expected 12*t^-16, got 24*t^-16",
        "T(4) on t^12: expected -12*t^16, got -24*t^16"]
    assert [line for line in report if line.startswith("FAIL")] == [
        "FAIL lift-diagram (bound=4)"]


def test_closed_forms_compare_gamma_with_the_trace(monkeypatch, capsys):
    # the closed forms' gamma half: gamma_closed wrong at (L(4), b(-4)) and
    # at (b(4), L(-4)), corners of the grid in both orders, fails it;
    # d_cocycle reads gamma_closed too, so pullback-sigma fails as well
    gamma = verify.gamma_closed
    wrong = ((WittElement.L(4), WittElement.mode(-4)),
             (WittElement.mode(4), WittElement.L(-4)))
    monkeypatch.setattr(verify, "gamma_closed", lambda u, v: (
        Fraction(5) if (u, v) in wrong else gamma(u, v)))
    report = _verify_all_report(capsys)
    assert report["FAIL closed-forms (bound=4)"] == [
        "gamma_closed at (b(4), L(-4)): expected -6, got 5",
        "gamma_closed at (L(4), b(-4)): expected 10, got 5"]
    assert [line for line in report if line.startswith("FAIL")] == [
        "FAIL pullback-sigma (bound=4)", "FAIL closed-forms (bound=4)"]


# ---------------------------------------------------------------------------
# one bracket table for every triple sweep
# ---------------------------------------------------------------------------

def _count_brackets(monkeypatch):
    """The (u, v) of every bracket verify makes: each bracket call and each
    pair handed to bracket_sum."""
    calls = []
    bracket, bracket_sum = verify.bracket, verify.bracket_sum

    def counted(u, v):
        calls.append((u, v))
        return bracket(u, v)

    def counted_sum(pairs):
        pairs = tuple(pairs)
        calls.extend(pairs)
        return bracket_sum(pairs)

    monkeypatch.setattr(verify, "bracket", counted)
    monkeypatch.setattr(verify, "bracket_sum", counted_sum)
    return calls


def test_cocycle_defects_read_one_bracket_table(monkeypatch):
    # n(n-1) table brackets for the alpha and beta sweeps together, and
    # three for the fixed gamma triple
    central_free = [g for g in small_generator_set() if not g.central]
    assert len(central_free) == 19
    calls = _count_brackets(monkeypatch)
    assert check_cocycle_defects(central_free) == []
    assert len(calls) == 19 * 18 + 3


def test_vanishing_sums_share_one_zero_element(monkeypatch):
    # every Jacobi sum of the 52 acceptance generators vanishes, and a
    # vanishing sum builds no element: the sweep builds at most one per
    # ordered pair of its table (24752, one per bracket, when each sum
    # built its own zero)
    gens = acceptance_generators()
    init = QuadraticElement.__init__
    built = []
    monkeypatch.setattr(QuadraticElement, "__init__", lambda self, *args,
                        **kwargs: built.append(1) or init(self, *args, **kwargs))
    assert check_jacobi(gens) == []
    assert len(built) <= 52 * 51
    # the accumulators of the second sum hold cancelled modes and a
    # cancelled polynomial, and it is the same zero
    assert bracket_sum(((b(1), b(2)),)) is bracket_sum(
        ((tau(2), b(1)), (b(1), tau(2)), (tau(1), tau(2)), (tau(2), tau(1))))


def test_jacobi_brackets_per_triple(monkeypatch):
    # n(n-1) table brackets, then the three outer brackets of each triple,
    # summed by one bracket_sum call
    gens = small_generator_set()
    calls = _count_brackets(monkeypatch)
    sums = []
    bracket_sum = verify.bracket_sum
    monkeypatch.setattr(verify, "bracket_sum",
                        lambda pairs: sums.append(len(pairs)) or bracket_sum(pairs))
    assert check_jacobi(gens) == []
    assert len(calls) == 20 * 19 + 3 * comb(20, 3)
    assert sums == [3] * comb(20, 3)


def test_only_the_triple_generator_calls_combinations():
    # every triple sweep in verify reads the brackets of _cyclic_triples
    tree = ast.parse(Path(verify.__file__).read_text())

    def combination_calls(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call)
                and "combinations" in (getattr(n.func, "id", None),
                                       getattr(n.func, "attr", None))]

    generator, = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
                  and n.name == "_cyclic_triples"]
    assert len(combination_calls(tree)) == 1
    assert len(combination_calls(generator)) == 1
