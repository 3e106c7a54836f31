"""Identity checks: cocycle defects, splitting, pullbacks, coefficient
fitting, closed residue forms, and the central-scalar table.

Every check is exact and returns its witnesses: one line per failing probe,
naming the probe in the CLI's expression language with the expected and the
actual value, so an empty list means pass.  verify_all wraps them in
{check, parameters, pass, witnesses} records for the CLI.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from numbers import Rational

from .coinv import FPoint, sp_f_generators
from .fock import FockVector, graded_basis, measure_central_charge, virasoro_all
from .laurent import LaurentPoly, as_int, ratio, residue, symplectic_form
from .quadops import (Poly, QuadraticElement, WittElement, _quad_apply_laurent,
                      alpha, b, beta, bracket, format_expression, gamma, pair,
                      psi, sigma, tau, unit, witt_bracket)

HALF = Fraction(1, 2)


def _show(x) -> str:
    """x as the CLI prints it: a tuple as (a, b, ...), a quadratic element as
    its expression."""
    if isinstance(x, tuple):
        return "(" + ", ".join(map(_show, x)) + ")"
    if isinstance(x, QuadraticElement):
        return format_expression(x)
    return str(x)

def _check(what: str, probe, expected, actual) -> list:
    """No witness if actual == expected, else the one line naming the probe."""
    if actual == expected:
        return []
    return [f"{what} {_show(probe)}: expected {_show(expected)}, "
            f"got {_show(actual)}"]

def _at_least_one(name: str, n) -> int:
    """n as an int, or a ValueError naming the parameter if it is below 1."""
    n = as_int(n, name)
    if n < 1:
        raise ValueError(f"{name} must be at least 1")
    return n


# ---------------------------------------------------------------------------
# cocycle handles and defects
# ---------------------------------------------------------------------------

_NAMED = {"psi": psi, "alpha": alpha, "beta": beta, "gamma": gamma}


class CocycleHandle:
    """One of the named forms psi, alpha, beta, gamma on central-free
    quadratic elements; any other form is passed as a plain callable."""

    __slots__ = ("name", "evaluate")

    def __init__(self, name: str):
        if name not in _NAMED:
            raise ValueError(f"unknown cocycle {name!r}")
        self.name = name
        self.evaluate = _NAMED[name]

    def __call__(self, u: QuadraticElement, v: QuadraticElement) -> Rational:
        return self.evaluate(u, v)


def _cyclic_triples(elements, name: str):
    """Each triple (x, y, z) of elements in combinations order, with its
    brackets ([y, z], [z, x], [x, y]) from one table of all ordered pairs."""
    if len(elements) < 3:
        raise ValueError(f"{name} must hold at least three elements, "
                         f"not {len(elements)}")
    table = {(i, j): bracket(x, y) for i, x in enumerate(elements)
             for j, y in enumerate(elements) if i != j}
    for (i, x), (j, y), (k, z) in combinations(enumerate(elements), 3):
        yield (x, y, z), (table[j, k], table[k, i], table[i, j])

def _defect_sum(c, triple, brackets) -> Rational:
    """The defect sum of c(u, [v, w] mod K) over the cycle of the triple."""
    return sum(c(u, w.drop_central()) for u, w in zip(triple, brackets))

def cocycle_defect(c, x: QuadraticElement, y: QuadraticElement,
                   z: QuadraticElement) -> Rational:
    """c(x,[y,z]) + c(y,[z,x]) + c(z,[x,y]) with brackets taken in
    sp(H') x| H': central parts of bracket outputs are discarded."""
    if isinstance(c, str):
        c = CocycleHandle(c)
    if any(u.central for u in (x, y, z)):
        raise ValueError("defect arguments must have zero central part")
    return _defect_sum(c, (x, y, z),
                       (bracket(y, z), bracket(z, x), bracket(x, y)))

def check_cocycle_defects(elements) -> list:
    """alpha and beta have zero defect on every triple of the central-free
    elements; gamma has defect 2 on (:b(1)b(1):, :b(-2)b(1):, b(-1))."""
    triples = list(_cyclic_triples(elements, "elements"))
    bad = []
    for handle in (CocycleHandle("alpha"), CocycleHandle("beta")):
        for triple, brackets in triples:
            bad += _check(f"{handle.name} defect at", triple, 0,
                          _defect_sum(handle, triple, brackets))
    triple = (pair(1, 1), pair(1, -2), b(-1))
    return bad + _check("gamma defect at", triple, 2,
                        cocycle_defect("gamma", *triple))


# ---------------------------------------------------------------------------
# splitting over the point stabilizer
# ---------------------------------------------------------------------------

def check_splitting(F: FPoint, W: int) -> list:
    """alpha vanishes on all stabilizer generator pairs and beta on all
    pairs from F itself, so the central extension splits over sp_F x| F."""
    W = as_int(W, "W")
    fmodes = [b(-s) for s in F.semigroup(W)]
    if not fmodes:
        raise ValueError(f"W: the window [1, {W}] holds no element of S")
    bad = []
    gens = sp_f_generators(F, W)
    for i, X in enumerate(gens):
        for Y in gens[i:]:
            bad += _check("alpha at", (X, Y), 0, alpha(X, Y))
    for f in fmodes:
        for g in fmodes:
            bad += _check("beta at", (f, g), 0,
                          symplectic_form(f.linear, g.linear))
    return bad


# ---------------------------------------------------------------------------
# pullback of the quadratic cocycle to Witt x| H'
# ---------------------------------------------------------------------------

def witt_probe_elements(bound: int):
    """The generators L_p, b_q with |p|, |q| <= bound, as (label, element)."""
    out = [(f"L({p})", WittElement.L(p)) for p in range(-bound, bound + 1)]
    out += [(f"b({q})", WittElement.mode(q))
            for q in range(-bound, bound + 1) if q != 0]
    return out

def check_pullback_sigma(bound: int = 5) -> list:
    """-1/2 alpha(sigma u, sigma v) + beta(sigma u, sigma v) = the trace
    cocycle of Witt x| H' on every probe pair, and both equal the central
    defect [sigma u, sigma v] - sigma([u, v]) of the normal-ordered lift."""
    return _lift_witnesses(bound)[0]

def sigma_hat_defect(u: WittElement, v: WittElement) -> QuadraticElement:
    """[sigma u, sigma v] - sigma([u, v]): the defect of the lift, a
    multiple of K for the normal-ordered sigma."""
    return _lift_defect(u, v, sigma(u), sigma(v))

def _lift_defect(u: WittElement, v: WittElement, su: QuadraticElement,
                 sv: QuadraticElement) -> QuadraticElement:
    """sigma_hat_defect(u, v) from the lifts su = sigma(u), sv = sigma(v)."""
    return bracket(su, sv) - sigma(witt_bracket(u, v))

def _lift_witnesses(bound: int) -> tuple:
    """The witnesses of check_pullback_sigma and of check_lift_diagram.  The
    square's pairs (L(p), L(q)) are probe pairs of the pullback, so each
    lift defect is computed once for both, and each probe element is lifted
    once for all its pairs."""
    bound = _at_least_one("bound", bound)
    pullback, diagram = [], []
    for p in range(-bound, bound + 1):
        X = tau(p).quad
        for m in range(-12, 13):
            if m == 0:
                continue
            direct = LaurentPoly() if m + p == 0 else LaurentPoly.term(-m, m + p)
            diagram += _check(f"T({p}) on", f"t^{m}", direct,
                              _quad_apply_laurent(X, LaurentPoly.term(1, m)))
    lifts = [(name, x, sigma(x)) for name, x in witt_probe_elements(bound)]
    for nu, u, su in lifts:
        for nv, v, sv in lifts:
            value = d_cocycle(u, v)
            defect = _lift_defect(u, v, su, sv)
            pullback += _check("-1/2 alpha + beta of the lifts at", (nu, nv),
                               value, -HALF * alpha(su, sv) + beta(su, sv))
            pullback += _check("lift defect at", (nu, nv), unit(value), defect)
            if u.g.is_zero() and v.g.is_zero():
                diagram += _check("lift defect mod K at", (nu, nv),
                                  QuadraticElement(), defect.drop_central())
    return pullback, diagram


# ---------------------------------------------------------------------------
# coefficient fitting in the fixed probe gauge
# ---------------------------------------------------------------------------

FIT_PROBES = (("alpha", tau(2), tau(-2)), ("beta", b(1), b(-1)),
              ("gamma", tau(2), b(-2)))

def fit_cocycle_coefficients(c) -> tuple:
    """Solve c = A alpha + B beta + C gamma on FIT_PROBES.

    alpha reads only quadratic parts, beta only linear parts and gamma only
    the two mixed ones, so each piece vanishes off its own probe and the fit
    is three quotients; a piece that vanishes on its own probe too leaves
    its coefficient undetermined, a ValueError.  Coefficients are
    gauge-dependent: a coboundary shift of c moves the probe values, so the
    result is reported in this fixed probe gauge."""
    if isinstance(c, str):
        c = CocycleHandle(c)
    fit = []
    for piece, (name, u, v) in zip((alpha, beta, gamma), FIT_PROBES):
        value = piece(u, v)
        if not value:
            raise ValueError(f"{name} at {_show((u, v))}: expected nonzero, "
                             f"got {value}")
        fit.append(ratio(c(u, v), value))
    return tuple(fit)

def check_fit_psi() -> list:
    """psi = alpha + beta + gamma in the fixed probe gauge."""
    try:
        fit = fit_cocycle_coefficients("psi")
    except ValueError as e:     # a piece vanishes on its own probe
        return [str(e)]
    bad = []
    for (name, u, v), k in zip(FIT_PROBES, fit):
        bad += _check(f"{name} coefficient at", (u, v), 1, k)
    return bad


# ---------------------------------------------------------------------------
# closed residue forms on Witt x| H'
# ---------------------------------------------------------------------------

def alpha_closed(u: WittElement, v: WittElement) -> Rational:
    """(1/6) Res f d(h'') for the vector-field parts f, h."""
    h3 = v.f.derivative().derivative().derivative()
    return Fraction(1, 6) * residue(u.f * h3)

def gamma_closed(u: WittElement, v: WittElement) -> Rational:
    """-1/2 Res(f d(k') - h d(g')) for (f d/dt + g, h d/dt + k)."""
    k2 = v.g.derivative().derivative()
    g2 = u.g.derivative().derivative()
    return -HALF * (residue(u.f * k2) - residue(v.f * g2))

def d_cocycle(u: WittElement, v: WittElement) -> Rational:
    """Trace cocycle of f d/dt - g on H in residue form, d = alpha_closed -
    gamma_closed + <g, k>: (L_p, L_-p) -> -(p^3-p)/6, (b_q, b_-q) -> q,
    (L_p, b_-p) -> -p(p+1)/2.  This is exactly the defect of the
    normal-ordered sigma-lift, see check_pullback_sigma."""
    return alpha_closed(u, v) - gamma_closed(u, v) + symplectic_form(u.g, v.g)


class HOp:
    """Banded operator t^m -> sum_s terms[s](m) t^(m+s) on H, t^0 included."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @classmethod
    def mult(cls, f: LaurentPoly) -> "HOp":
        """Multiplication by f."""
        return cls({e: Poly((c,)) for e, c in f.coeffs.items()})

    @classmethod
    def derivation(cls, f: LaurentPoly) -> "HOp":
        """f d/dt acting on all of H, including transitions through t^0."""
        return cls({e - 1: Poly((0, c)) for e, c in f.coeffs.items()})


def psi_trace(A: HOp, B: HOp) -> Rational:
    """Tr(pi+ A pi- B pi+ - pi+ B pi- A pi+) over the t^j, j >= 0 basis.

    Only shift pairs summing to zero contribute, and each contributes a
    finite sum of length |shift|, so no truncation is involved.
    """
    total = 0
    for sA, wA in A.terms.items():
        wB = B.terms.get(-sA)
        if wB is None:
            continue
        if sA > 0:
            for j in range(0, sA):
                total += wB(j) * wA(j - sA)
        elif sA < 0:
            for j in range(0, -sA):
                total -= wA(j) * wB(j + sA)
    return total


def check_closed_forms(bound: int = 5) -> list:
    """The closed residue forms, and alpha on the quadratic lifts T(p),
    agree with the trace psi_trace of honest derivations and
    multiplications (the expected values) on the L_p, b_q grid."""
    bound = _at_least_one("bound", bound)
    bad = []
    for p in range(-bound, bound + 1):
        Lp = WittElement.L(p)
        Dp = HOp.derivation(Lp.f)
        for q in range(-bound, bound + 1):
            Lq = WittElement.L(q)
            trace = psi_trace(Dp, HOp.derivation(Lq.f))
            bad += _check("alpha_closed at", f"(L({p}), L({q}))", trace,
                          alpha_closed(Lp, Lq))
            # the quadratic-lift trace computes the same alpha
            bad += _check("alpha at", f"(T({p}), T({q}))", trace,
                          alpha(tau(p), tau(q)))
            if q == 0:
                continue
            bq = WittElement.mode(q)
            trace = psi_trace(Dp, HOp.mult(bq.g))
            bad += _check("gamma_closed at", f"(L({p}), b({q}))", trace,
                          gamma_closed(Lp, bq))
            bad += _check("gamma_closed at", f"(b({q}), L({p}))", -trace,
                          gamma_closed(bq, Lp))
    return bad


# ---------------------------------------------------------------------------
# the central-scalar table
# ---------------------------------------------------------------------------

LAMBDA_FIBER = 2
THETA_FIBER = -1

def central_scalars() -> dict:
    """Scalar bookkeeping: defining cocycles, fiber scalars for the unit,
    and for each charge c in 0, 1, 2, 26 the multiples c / fiber on the two
    sides, c/2 and -c."""
    return {
        "mp_cocycle": "-1/2*alpha",
        "mp_cocycle_on_tau2": -HALF * psi(tau(2), tau(-2)),
        "u2_cocycle": "-1/2*alpha + beta",
        "lambda_fiber": LAMBDA_FIBER,
        "theta_fiber": THETA_FIBER,
        "atiyah": [{"c": c, "A_multiple": ratio(c, LAMBDA_FIBER),
                    "X_multiple": ratio(c, THETA_FIBER)} for c in (0, 1, 2, 26)],
    }

def check_central_scalars() -> list:
    """The values the table stands on: -1/2 psi(T(2), T(-2)) is the Virasoro
    central term (p^3 - p)/12 at p = 2, and the diagonal Virasoro action on
    the rank-r Fock states of degree <= 2 has central charge r, r = 1, 2."""
    bad = _check("-1/2 psi at", (tau(2), tau(-2)), Fraction(2 ** 3 - 2, 12),
                 -HALF * psi(tau(2), tau(-2)))
    for r in (1, 2):
        states = [FockVector.basis(s)
                  for d in range(3) for s in graded_basis(d, r)]
        try:
            c = measure_central_charge(2, states, virasoro_all)
        except ValueError as e:     # no single central charge: show why
            c = e
        bad += _check("central charge on", f"rank-{r} states of degree <= 2",
                      r, c)
    return bad


# ---------------------------------------------------------------------------
# aggregate verdicts
# ---------------------------------------------------------------------------

def verdict(check: str, parameters: dict, witnesses: list) -> dict:
    return {"check": check, "parameters": parameters, "pass": not witnesses,
            "witnesses": witnesses}

def small_generator_set():
    """1, b modes, pairs and taus with indices <= 2."""
    gens = [unit()]
    gens += [b(m) for m in (-2, -1, 1, 2)]
    idx = [-2, -1, 1, 2]
    for i, a in enumerate(idx):
        for bb in idx[i:]:
            gens.append(pair(a, bb))
    gens += [tau(p) for p in range(-2, 3)]
    return gens

def check_jacobi(gens) -> list:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 on every triple of gens."""
    bad = []
    for (x, y, z), (yz, zx, xy) in _cyclic_triples(gens, "gens"):
        total = bracket(x, yz) + bracket(y, zx) + bracket(z, xy)
        if not total.is_zero():     # cheaper than _check on a passing triple
            bad += _check("Jacobi sum at", (x, y, z), unit(0), total)
    return bad

def check_lift_diagram(bound: int = 5) -> list:
    """tau(p) acts on the window modes t^m, 0 < |m| <= 12, as the
    endomorphism t^m -> -m t^(m+p), and forgetting the central coordinate
    makes the sigma square commute with brackets."""
    return _lift_witnesses(bound)[1]

def verify_all(probe_bound: int = 4) -> list:
    """Run the whole identity battery; returns a list of verdicts."""
    probe_bound = _at_least_one("probe bound", probe_bound)
    gens = small_generator_set()
    central_free = [g for g in gens if not g.central]
    bound = {"bound": probe_bound}
    pullback, diagram = _lift_witnesses(probe_bound)
    return [
        verdict("jacobi", {"generators": len(gens)}, check_jacobi(gens)),
        verdict("cocycle-defects", {"generators": len(central_free)},
                check_cocycle_defects(central_free)),
        verdict("splitting", {"W": 6},
                [f"gaps {list(gaps)}: {w}" for gaps in ((), (1,), (1, 2), (1, 3))
                 for w in check_splitting(FPoint(gaps), 6)]),
        verdict("pullback-sigma", bound, pullback),
        verdict("fit-psi", {"probes": "fixed gauge"}, check_fit_psi()),
        verdict("closed-forms", bound, check_closed_forms(probe_bound)),
        verdict("central-scalars", {}, check_central_scalars()),
        verdict("lift-diagram", bound, diagram),
    ]
