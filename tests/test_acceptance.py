"""Acceptance suite.

One test per acceptance criterion, each printing a PASS or FAIL line
(run with -s to see them).  Every comparison is exact; the only
tolerances are wall-clock budgets on the large sweeps.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from oscalg.cli import format_expression, main, parse_expression
from oscalg.coinv import FPoint, coinvariants_A
from oscalg.fock import FockVector, apply_quadratic, graded_basis, virasoro
from oscalg.quadops import (QuadraticElement, WittElement, b, bracket, pair,
                            psi, tau, unit)
from oscalg.verify import (central_scalars, check_closed_forms, check_lift_diagram,
                           check_pullback_sigma, check_splitting,
                           cocycle_defect, fit_cocycle_coefficients)

HALF = Fraction(1, 2)


def ok_line(name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"{status} {name}"
    if detail:
        line += f" ({detail})"
    print(line)


def acceptance_generators():
    """1, b(+-1..+-4), all pairs on those modes, T(-3..3): 52 elements."""
    gens = [unit()]
    idx = [m for m in range(-4, 5) if m]
    gens += [b(m) for m in idx]
    for i, a in enumerate(idx):
        for bb in idx[i:]:
            gens.append(pair(a, bb))
    gens += [tau(p) for p in range(-3, 4)]
    return gens


def test_criterion_01_central_values():
    t0 = time.monotonic()
    ok = all(-HALF * psi(tau(p), tau(-p)) == Fraction(p**3 - p, 12)
             for p in range(1, 9))
    dt = time.monotonic() - t0
    ok = ok and dt < 1.0
    ok_line("criterion 1: -1/2 psi on tau pairs is (p^3-p)/12 for p=1..8",
            ok, f"{dt:.2f}s")
    assert ok


def test_criterion_02_jacobi_22100_triples():
    t0 = time.monotonic()
    gens = acceptance_generators()
    assert len(gens) == 52
    n = len(gens)
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            table[(i, j)] = bracket(gens[i], gens[j])
    bad = 0
    count = 0
    for i, j, k in itertools.combinations(range(n), 3):
        count += 1
        total = (bracket(gens[i], table[(j, k)])
                 - bracket(gens[j], table[(i, k)])
                 + bracket(gens[k], table[(i, j)]))
        if not total.is_zero():
            bad += 1
    dt = time.monotonic() - t0
    ok = bad == 0 and count == 22100 and dt < 60.0
    ok_line("criterion 2: Jacobi vanishes on all 22100 generator triples",
            ok, f"{count} triples, {bad} failures, {dt:.1f}s")
    assert ok


def test_criterion_03_virasoro_relations_on_fock():
    t0 = time.monotonic()
    states = []
    for d in range(0, 9):
        states.extend(graded_basis(d, 1))
    assert len(states) == 67
    vectors = [FockVector.basis(s) for s in states]
    cache = [{q: virasoro(q, v) for q in range(-8, 9)} for v in vectors]
    bad = 0
    for p in range(-4, 5):
        for q in range(p, 5):
            central = Fraction(p**3 - p, 12) if p + q == 0 else Fraction(0)
            for v, Lv in zip(vectors, cache):
                lhs = (virasoro(p, Lv[q]) - virasoro(q, Lv[p])
                       - Lv[p + q].scale(p - q) - v.scale(central))
                if not lhs.is_zero():
                    bad += 1
    dt = time.monotonic() - t0
    ok = bad == 0 and dt < 60.0
    ok_line("criterion 3: Virasoro relations at c=1 hold on all states of "
            "degree <= 8", ok, f"{len(states)} states, {bad} failures, "
            f"{dt:.1f}s")
    assert ok


def test_criterion_04_gamma_defect_and_brackets():
    x, y, z = pair(1, 1), pair(1, -2), b(-1)
    checks = [
        cocycle_defect("gamma", x, y, z) == 2,
        bracket(y, z) == b(-2),
        bracket(z, x) == b(1).scale(-2),
        bracket(x, y).is_zero(),
    ]
    ok = all(checks)
    ok_line("criterion 4: gamma defect on the pair/mode triple is 2 with the "
            "stated brackets", ok)
    assert ok


def test_criterion_05_trace_equals_closed_forms():
    ok = check_closed_forms(bound=5) == []
    ok_line("criterion 5: trace cocycle matches the closed residue forms on "
            "the |p|,|q|<=5 grid", ok)
    assert ok


def test_criterion_06_pullback_of_u2_cocycle():
    ok = check_pullback_sigma(bound=5) == []
    ok_line("criterion 6: sigma pulls -1/2*alpha + beta back to the "
            "vector-field cocycle on |p|,|q|<=5", ok)
    assert ok


def test_criterion_07_splitting_over_point_stabilizers():
    ok = True
    for gaps in ((), (1,), (1, 2), (1, 3)):
        ok = ok and check_splitting(FPoint(gaps), 8) == []
    ok_line("criterion 7: the extension splits over the stabilizer of every "
            "tested semigroup point", ok, "gaps {}, {1}, {1,2}, {1,3}; W=8")
    assert ok


def test_criterion_08_fit_psi():
    fit = fit_cocycle_coefficients("psi")
    ok = fit == (1, 1, 1)
    shown = ", ".join(str(c) for c in fit)
    ok_line("criterion 8: psi fits as alpha + beta + gamma in the probe "
            "gauge", ok, f"coefficients ({shown})")
    assert ok


def test_criterion_09_bracket_action_compatibility():
    t0 = time.monotonic()
    gens = acceptance_generators()
    states = []
    for d in range(0, 7):
        states.extend(graded_basis(d, 1))
    assert len(states) == 30
    vectors = [FockVector.basis(s) for s in states]
    applied = [[apply_quadratic(A, v) for v in vectors] for A in gens]
    bad = 0
    n = len(gens)
    for i in range(n):
        for j in range(i + 1, n):
            B = bracket(gens[i], gens[j])
            for k, v in enumerate(vectors):
                lhs = apply_quadratic(B, v)
                rhs = (apply_quadratic(gens[i], applied[j][k])
                       - apply_quadratic(gens[j], applied[i][k]))
                if lhs != rhs:
                    bad += 1
    dt = time.monotonic() - t0
    ok = bad == 0
    ok_line("criterion 9: the Fock action intertwines brackets with "
            "commutators on all generator pairs", ok,
            f"1326 pairs x {len(states)} states, {bad} failures, {dt:.1f}s")
    assert ok


def test_criterion_10_number_operator_eigenvalues():
    bad = 0
    count = 0
    for d in range(0, 11):
        for state in graded_basis(d, 1):
            v = FockVector.basis(state)
            lam = state[0]
            for i in range(1, 9):
                count += 1
                mult = sum(1 for part in lam if part == i)
                if apply_quadratic(pair(-i, i), v) != v.scale(i * mult):
                    bad += 1
    ok = bad == 0
    ok_line("criterion 10: :b(-i)b(i): acts on |lam> with eigenvalue "
            "i*m_i(lam) for i<=8, deg<=10", ok,
            f"{count} checks, {bad} failures")
    assert ok


def test_criterion_11_coinvariants_stabilize():
    t0 = time.monotonic()
    report0 = coinvariants_A(1, FPoint([]), 6, 12, 12)
    ok = report0.stabilized and report0.dims == [1, 0, 0, 0, 0, 0, 0]

    report1 = coinvariants_A(1, FPoint([1]), 4, 12, 12)
    ok = ok and report1.stabilized and report1.dims[0] >= 1

    dims_by_m = [coinvariants_A(1, FPoint([1]), 4, m, 12).dims
                 for m in (8, 10, 12)]
    for prev, nxt in zip(dims_by_m, dims_by_m[1:]):
        ok = ok and all(a >= bb for a, bb in zip(prev, nxt))

    dt = time.monotonic() - t0
    ok = ok and dt < 300.0
    ok_line("criterion 11: coinvariant dimensions stabilize (genus 0 trivial, "
            "genus 1 monotone in M)", ok,
            f"g=0 dims {report0.dims}, g=1 dims {report1.dims}, {dt:.1f}s")
    assert ok


def test_criterion_12_central_scalar_table():
    table = central_scalars()
    rows = table["atiyah"]
    ok = ([r["c"] for r in rows] == [0, 1, 2, 26]
          and all(r["A_multiple"] * table["lambda_fiber"] == r["c"]
                  for r in rows)
          and all(r["X_multiple"] * table["theta_fiber"] == r["c"]
                  for r in rows)
          and table["mp_cocycle_on_tau2"] == HALF)
    ok_line("criterion 12: central scalars agree on both sides for "
            "c in {0, 1, 2, 26}", ok)
    assert ok


def test_criterion_13_lift_diagram_commutes():
    ok = check_lift_diagram(bound=5) == []
    ok_line("criterion 13: tau(p) acts as t^m -> -m t^(m+p) and the sigma "
            "square commutes with brackets for |p|<=5", ok)
    assert ok


def _cli_corpus():
    rng = random.Random(20260819)
    texts = set()
    idx = [m for m in range(-4, 5) if m]
    while len(texts) < 50:
        A = QuadraticElement()
        for _ in range(rng.randrange(1, 5)):
            coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
            kind = rng.randrange(4)
            if kind == 0:
                A = A + unit(coeff)
            elif kind == 1:
                A = A + b(rng.choice(idx), coeff)
            elif kind == 2:
                A = A + pair(rng.choice(idx), rng.choice(idx)).scale(coeff)
            else:
                A = A + tau(rng.randrange(-4, 5)).scale(coeff)
        texts.add(format_expression(A))
    return sorted(texts)


def test_criterion_14_cli_round_trip_and_determinism(capsys):
    corpus = _cli_corpus()
    ok = len(corpus) >= 50
    for text in corpus:
        elem = parse_expression(text)
        ok = ok and format_expression(elem) == text
        ok = ok and parse_expression(format_expression(elem)) == elem
    outputs = []
    for argv in (["coinv", "--gaps", "1"], ["central-scalars",
                                            "--format", "json"]):
        pair_out = []
        for _ in range(2):
            code = main(argv)
            pair_out.append(capsys.readouterr().out)
            ok = ok and code == 0
        outputs.append(pair_out)
        ok = ok and pair_out[0] == pair_out[1]
        ok = ok and json.loads(pair_out[0]) == json.loads(pair_out[1])
    with capsys.disabled():
        ok_line("criterion 14: expression round trips and byte-identical "
                "JSON reruns", ok, f"{len(corpus)} expressions")
    assert ok
