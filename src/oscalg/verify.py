"""Identity checks: cocycle defects, splitting, pullbacks, coefficient
fitting, closed residue forms, and the central-scalar table.

Every check is exact.  Checks return booleans or values; verdict builders
wrap them in {check, parameters, pass, witnesses} records for the CLI.
"""

from __future__ import annotations

from fractions import Fraction

from .coinv import FPoint, sp_f_generators
from .laurent import LaurentPoly, residue, symplectic_form
from .quadops import (Poly, QuadraticElement, WittElement, _quad_apply_laurent,
                      alpha, b, beta, bracket, gamma, pair, psi, sigma, tau,
                      unit, witt_bracket)

F0 = Fraction(0)
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# cocycle handles and defects
# ---------------------------------------------------------------------------

_NAMED = {"psi": psi, "alpha": alpha, "beta": beta, "gamma": gamma}


class CocycleHandle:
    """A bilinear antisymmetric form on central-free quadratic elements,
    either one of the named forms or a user-supplied evaluator."""

    __slots__ = ("name", "evaluate")

    def __init__(self, name: str, evaluate=None):
        if name in _NAMED:
            self.evaluate = _NAMED[name]
        elif name == "custom":
            if evaluate is None:
                raise ValueError("custom cocycle needs an evaluator")
            self.evaluate = evaluate
        else:
            raise ValueError(f"unknown cocycle {name!r}")
        self.name = name

    def __call__(self, u: QuadraticElement, v: QuadraticElement) -> Fraction:
        return self.evaluate(u, v)


def cocycle_defect(c, x: QuadraticElement, y: QuadraticElement,
                   z: QuadraticElement) -> Fraction:
    """c(x,[y,z]) + c(y,[z,x]) + c(z,[x,y]) with brackets taken in
    sp(H') x| H': central parts of bracket outputs are discarded."""
    if isinstance(c, str):
        c = CocycleHandle(c)
    for u in (x, y, z):
        if u.central:
            raise ValueError("defect arguments must have zero central part")
    return (c(x, bracket(y, z).drop_central())
            + c(y, bracket(z, x).drop_central())
            + c(z, bracket(x, y).drop_central()))


# ---------------------------------------------------------------------------
# splitting over the point stabilizer
# ---------------------------------------------------------------------------

def check_splitting(F: FPoint, W: int) -> bool:
    """alpha vanishes on all stabilizer generator pairs and beta on all
    pairs from F itself, so the central extension splits over sp_F x| F."""
    gens = sp_f_generators(F, W)
    for i, X in enumerate(gens):
        for Y in gens[i:]:
            if alpha(X, Y):
                return False
    fmodes = [LaurentPoly.t(-s) for s in F.semigroup(W)]
    for f in fmodes:
        for g in fmodes:
            if symplectic_form(f, g):
                return False
    return True


# ---------------------------------------------------------------------------
# pullback of the quadratic cocycle to Witt x| H'
# ---------------------------------------------------------------------------

def witt_probe_elements(bound: int):
    """The generators L_p, b_q with |p|, |q| <= bound."""
    out = [WittElement.L(p) for p in range(-bound, bound + 1)]
    out += [WittElement.mode(q) for q in range(-bound, bound + 1) if q != 0]
    return out

def check_pullback_sigma(probes=None, bound: int = 5) -> bool:
    """-1/2 alpha(sigma u, sigma v) + beta(sigma u, sigma v) = the trace
    cocycle of Witt x| H' on every probe pair, and both equal the central
    defect of the normal-ordered lift; a non-central defect fails."""
    if probes is None:
        elements = witt_probe_elements(bound)
        probes = [(u, v) for u in elements for v in elements]
    for u, v in probes:
        su, sv = sigma(u), sigma(v)
        lhs = -HALF * alpha(su, sv) + beta(su, sv)
        value = d_cocycle(u, v)
        try:
            defect = sigma_hat_defect(u, v)
        except ValueError:      # the lift defect is not central
            return False
        if lhs != value or defect != value:
            return False
    return True

def sigma_hat_defect(u: WittElement, v: WittElement) -> Fraction:
    """Central defect of the normal-ordered lift:
    [sigma u, sigma v] - sigma([u, v]) as a multiple of K."""
    diff = bracket(sigma(u), sigma(v)) - sigma(witt_bracket(u, v))
    if not diff.drop_central().is_zero():
        raise ValueError("lift defect is not central")
    return diff.central


# ---------------------------------------------------------------------------
# coefficient fitting in the fixed probe gauge
# ---------------------------------------------------------------------------

def default_fit_probes():
    """Probes on which (alpha, beta, gamma) is an invertible diagonal."""
    return [(tau(2), tau(-2)), (b(1), b(-1)), (tau(2), b(-2))]

def fit_cocycle_coefficients(c, probes=None):
    """Solve c = A alpha + B beta + C gamma on the probe pairs.

    Coefficients are gauge-dependent: a coboundary shift of c moves the
    probe values, so the result is reported in this fixed probe gauge."""
    if isinstance(c, str):
        c = CocycleHandle(c)
    if probes is None:
        probes = default_fit_probes()
    if len(probes) != 3:
        raise ValueError("need exactly three probe pairs")
    rows = [[alpha(u, v), beta(u, v), gamma(u, v), c(u, v)] for u, v in probes]
    # exact Gaussian elimination on the 3x4 system
    for col in range(3):
        piv = next((r for r in range(col, 3) if rows[r][col]), None)
        if piv is None:
            raise ValueError("singular probe matrix: rejected probe set")
        rows[col], rows[piv] = rows[piv], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(3):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return (rows[0][3], rows[1][3], rows[2][3])


# ---------------------------------------------------------------------------
# closed residue forms on Witt x| H'
# ---------------------------------------------------------------------------

def alpha_closed(u: WittElement, v: WittElement) -> Fraction:
    """(1/6) Res f d(h'') for the vector-field parts f, h."""
    h3 = v.f.derivative().derivative().derivative()
    return Fraction(1, 6) * residue(u.f * h3)

def gamma_closed(u: WittElement, v: WittElement) -> Fraction:
    """-1/2 Res(f d(k') - h d(g')) for (f d/dt + g, h d/dt + k)."""
    k2 = v.g.derivative().derivative()
    g2 = u.g.derivative().derivative()
    return -HALF * (residue(u.f * k2) - residue(v.f * g2))

def d_cocycle(u: WittElement, v: WittElement) -> Fraction:
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
        return cls({e - 1: Poly((F0, c)) for e, c in f.coeffs.items()})


def psi_trace(A: HOp, B: HOp) -> Fraction:
    """Tr(pi+ A pi- B pi+ - pi+ B pi- A pi+) over the t^j, j >= 0 basis.

    Only shift pairs summing to zero contribute, and each contributes a
    finite sum of length |shift|, so no truncation is involved.
    """
    total = F0
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


def check_closed_forms(bound: int = 5) -> bool:
    """The trace psi_trace of honest derivations and multiplications
    agrees with the closed residue forms on the L_p, b_q grid."""
    for p in range(-bound, bound + 1):
        Lp = WittElement.L(p)
        Dp = HOp.derivation(Lp.f)
        for q in range(-bound, bound + 1):
            Lq = WittElement.L(q)
            if psi_trace(Dp, HOp.derivation(Lq.f)) != alpha_closed(Lp, Lq):
                return False
            # the quadratic-lift trace computes the same alpha
            if alpha(tau(p), tau(q)) != alpha_closed(Lp, Lq):
                return False
            if q == 0:
                continue
            bq = WittElement.mode(q)
            trace = psi_trace(Dp, HOp.mult(bq.g))
            if trace != gamma_closed(Lp, bq) or -trace != gamma_closed(bq, Lp):
                return False
    return True


# ---------------------------------------------------------------------------
# the central-scalar table
# ---------------------------------------------------------------------------

LAMBDA_FIBER = Fraction(2)
THETA_FIBER = Fraction(-1)

def central_scalars(charges=(0, 1, 2, 26)) -> dict:
    """Scalar bookkeeping: defining cocycles, fiber scalars for the unit,
    and the per-charge multiples c/2 and -c, cross-checked so that
    multiple * fiber = c on both sides."""
    mp_value = -HALF * psi(tau(2), tau(-2))
    rows = []
    for c in charges:
        c = Fraction(c)
        a_mult = c / 2
        x_mult = -c
        if a_mult * LAMBDA_FIBER != c or x_mult * THETA_FIBER != c:
            raise AssertionError("fiber consistency violated")
        rows.append({"c": c, "A_multiple": a_mult, "X_multiple": x_mult})
    return {
        "mp_cocycle": "-1/2*alpha",
        "mp_cocycle_on_tau2": mp_value,
        "u2_cocycle": "-1/2*alpha + beta",
        "lambda_fiber": LAMBDA_FIBER,
        "theta_fiber": THETA_FIBER,
        "atiyah": rows,
    }


# ---------------------------------------------------------------------------
# aggregate verdicts
# ---------------------------------------------------------------------------

def verdict(check: str, parameters: dict, passed: bool, witnesses=None) -> dict:
    return {"check": check, "parameters": parameters, "pass": bool(passed),
            "witnesses": list(witnesses or [])}

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
    """Bracket Jacobi sum over all unordered triples; returns witnesses."""
    bad = []
    n = len(gens)
    table = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                table[(i, j)] = bracket(gens[i], gens[j])
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = (bracket(gens[i], table[(j, k)])
                         + bracket(gens[j], table[(k, i)])
                         + bracket(gens[k], table[(i, j)]))
                if not total.is_zero():
                    bad.append(f"triple ({i},{j},{k})")
    return bad

def check_lift_diagram(bound: int = 5, W: int = 12) -> bool:
    """tau(p) acts on the window modes t^m as the endomorphism
    t^m -> -m t^(m+p), and forgetting the central coordinate makes the
    sigma square commute with brackets."""
    for p in range(-bound, bound + 1):
        X = tau(p).quad
        for m in range(-W, W + 1):
            if m == 0:
                continue
            direct = LaurentPoly.zero() if m + p == 0 else LaurentPoly.term(-m, m + p)
            if _quad_apply_laurent(X, LaurentPoly.t(m)) != direct:
                return False
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            u, v = WittElement.L(p), WittElement.L(q)
            lhs = bracket(sigma(u), sigma(v)).drop_central()
            if lhs != sigma(witt_bracket(u, v)):
                return False
    return True

def verify_all(probe_bound: int = 4) -> list:
    """Run the whole identity battery; returns a list of verdicts."""
    if probe_bound < 1:
        raise ValueError("probe bound must be at least 1")
    out = []

    gens = small_generator_set()
    bad = check_jacobi(gens)
    out.append(verdict("jacobi", {"generators": len(gens)}, not bad, bad))

    central_free = [g for g in gens if not g.central]
    bad = []
    for name in ("alpha", "beta"):
        handle = CocycleHandle(name)
        for i in range(len(central_free)):
            for j in range(i + 1, len(central_free)):
                for k in range(j + 1, len(central_free)):
                    d = cocycle_defect(handle, central_free[i],
                                       central_free[j], central_free[k])
                    if d:
                        bad.append(f"{name} ({i},{j},{k}) -> {d}")
    gamma_val = cocycle_defect("gamma", pair(1, 1), pair(1, -2), b(-1))
    if gamma_val != 2:
        bad.append(f"gamma pair/mode triple -> {gamma_val}")
    out.append(verdict("cocycle-defects",
                       {"generators": len(central_free)}, not bad, bad))

    bad = []
    for gaps in ((), (1,), (1, 2), (1, 3)):
        if not check_splitting(FPoint(gaps), 6):
            bad.append(f"gaps {list(gaps)}")
    out.append(verdict("splitting", {"W": 6}, not bad, bad))

    ok = check_pullback_sigma(bound=probe_bound)
    out.append(verdict("pullback-sigma", {"bound": probe_bound}, ok,
                       [] if ok else ["grid"]))

    fit = fit_cocycle_coefficients("psi")
    ok = fit == (1, 1, 1)
    out.append(verdict("fit-psi", {"probes": "fixed gauge"}, ok,
                       [] if ok else [f"got {fit}"]))

    ok = check_closed_forms(probe_bound)
    out.append(verdict("closed-forms", {"bound": probe_bound}, ok,
                       [] if ok else ["grid"]))

    try:
        central_scalars()
        out.append(verdict("central-scalars", {}, True))
    except AssertionError as e:
        out.append(verdict("central-scalars", {}, False, [str(e)]))

    ok = check_lift_diagram(probe_bound)
    out.append(verdict("lift-diagram", {"bound": probe_bound}, ok,
                       [] if ok else ["grid"]))
    return out
