"""Brute-force reference computations used to freeze expected test values.

Everything in this file is deliberately independent of the library under
test.  Operators are dense window matrices over exponents [-K, K] or
explicit mode compositions on partition-keyed dicts, and the only algebra
performed is matrix multiplication, trace summation, and row reduction.

Run ``python tests/oracles.py`` to print the value table that the test
suite freezes.
"""

from fractions import Fraction
from itertools import combinations

F0 = Fraction(0)
F1 = Fraction(1)


# ---------------------------------------------------------------------------
# window-matrix operators: dict (row_exp, col_exp) -> Fraction, exponents in
# [-K, K].  Entry (r, c) means op(t^c) contains entry * t^r.
# ---------------------------------------------------------------------------

def mat_mult(q, K):
    """Multiplication by t^q."""
    m = {}
    for c in range(-K, K + 1):
        if -K <= c + q <= K:
            m[(c + q, c)] = F1
    return m


def mat_mult_poly(coeffs, K):
    """Multiplication by sum of coeffs[e] * t^e."""
    m = {}
    for e, ce in coeffs.items():
        for c in range(-K, K + 1):
            if -K <= c + e <= K:
                m[(c + e, c)] = m.get((c + e, c), F0) + ce
    return m


def mat_derivation(coeffs, K):
    """f * d/dt for f = sum coeffs[e] * t^e, acting on all of H incl. t^0."""
    m = {}
    for e, ce in coeffs.items():
        for c in range(-K, K + 1):
            r = c + e - 1
            if -K <= r <= K and c != 0:
                m[(r, c)] = m.get((r, c), F0) + ce * c
    return m


def mat_witt(p, K):
    """L_p = -t^(p+1) d/dt as an honest derivation of H."""
    return mat_derivation({p + 1: Fraction(-1)}, K)


def mat_pair(a, b, K):
    """:b_a b_b: as endomorphism of H' via (fg)(k) = <f,k> g + <g,k> f."""
    m = {}
    # <t^a, t^k> = a at k = -a
    if -K <= -a <= K and -K <= b <= K:
        m[(b, -a)] = m.get((b, -a), F0) + Fraction(a)
    if -K <= -b <= K and -K <= a <= K:
        m[(a, -b)] = m.get((a, -b), F0) + Fraction(b)
    return m


def mat_tau(p, K):
    """tau(L_p): t^m -> -m t^(m+p), transitions touching t^0 removed."""
    m = {}
    for c in range(-K, K + 1):
        r = c + p
        if c != 0 and r != 0 and -K <= r <= K:
            m[(r, c)] = Fraction(-c)
    return m


def mat_add(*ms):
    out = {}
    for m in ms:
        for k, v in m.items():
            out[k] = out.get(k, F0) + v
    return {k: v for k, v in out.items() if v}


def mat_scale(s, m):
    s = Fraction(s)
    return {k: s * v for k, v in m.items() if s * v}


def mat_commutator(A, B, K):
    out = {}
    byc_A = {}
    for (r, c), v in A.items():
        byc_A.setdefault(c, []).append((r, v))
    byc_B = {}
    for (r, c), v in B.items():
        byc_B.setdefault(c, []).append((r, v))
    for (r, c), v in B.items():
        for (r2, v2) in byc_A.get(r, ()):
            out[(r2, c)] = out.get((r2, c), F0) + v2 * v
    for (r, c), v in A.items():
        for (r2, v2) in byc_B.get(r, ()):
            out[(r2, c)] = out.get((r2, c), F0) - v2 * v
    return {k: v for k, v in out.items() if v}


def psi_mat(A, B, K):
    """Tr(pi+ A pi- B pi+ - pi+ B pi- A pi+), trace over rows 0..K.

    Assumes K comfortably exceeds the operators' bandwidths so nothing
    leaks past the window edge.
    """
    total = F0
    for j in range(0, K + 1):
        for l in range(-K, 0):
            total += A.get((j, l), F0) * B.get((l, j), F0)
            total -= B.get((j, l), F0) * A.get((l, j), F0)
    return total


# ---------------------------------------------------------------------------
# trace sums on one anti-diagonal a + b = d, term by term.  A diagonal is
# given by its coefficient function a -> c(a).
# ---------------------------------------------------------------------------

def diag_psi_sum(d, c1, c2):
    """Trace cocycle of the diagonals with offsets d and -d: minus the sum
    over j in [1, d-1] of j(d-j) c1(d-j) c2(-j), antisymmetric in d."""
    if d < 0:
        return -diag_psi_sum(-d, c2, c1)
    return -sum((j * (d - j) * c1(d - j) * c2(-j) for j in range(1, d)), F0)


def diag_mixed_sum(d, c):
    """Sum of |a| c(a) over a strictly between 0 and d."""
    lo, hi = (1, d) if d > 0 else (d + 1, 0)
    return sum((abs(a) * c(a) for a in range(lo, hi)), F0)


# ---------------------------------------------------------------------------
# residues of Laurent polynomials, given as dicts exponent -> coefficient
# ---------------------------------------------------------------------------

def residue_of_derivative(f, g, k):
    """Res f g^(k): differentiate g k times term by term, multiply the two
    sums out, and read the coefficient of t^-1."""
    for _ in range(k):
        g = {e - 1: e * c for e, c in g.items() if e}
    product = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            product[e1 + e2] = product.get(e1 + e2, F0) + c1 * c2
    return product.get(-1, F0)


# ---------------------------------------------------------------------------
# the commutator of two anti-diagonals by the candidate gather.  A diagonal
# is raw data (d, coefficient list, exception dict): c(a) = 0 at a in
# {0, d}, else exc.get(a, poly(a)) with poly(a) = sum_k coeffs[k] a^k.
# ---------------------------------------------------------------------------

def _poly_trim(p):
    p = [Fraction(x) for x in p]
    while p and not p[-1]:
        p.pop()
    return p


def _poly_eval(p, a):
    acc = F0
    for x in reversed(p):
        acc = acc * a + x
    return acc


def _poly_add(p, q):
    n = max(len(p), len(q))
    return _poly_trim([(p[i] if i < len(p) else F0)
                       + (q[i] if i < len(q) else F0) for i in range(n)])


def _poly_mul(p, q):
    out = [F0] * max(len(p) + len(q) - 1, 0)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_shift(p, h):
    """p(a + h) as a coefficient list in a."""
    out, power = [], [F1]
    for x in p:
        out = _poly_add(out, [x * y for y in power])
        power = _poly_mul(power, [Fraction(h), F1])
    return _poly_trim(out)


def diag_bracket(s1, s2):
    """The diagonal (d1 + d2, generic coefficients, exceptions) of the
    commutator of two raw diagonals, c(a) = c1(a) (d1 - a) c2(a - d1) +
    c1(a - d2) (a - d2) c2(a).  The generic part comes from the two
    polynomials; c can differ from it only where a factor differs from its
    polynomial, so every such index is a candidate, and the exceptions are
    the candidates off {0, d} at which c differs from the generic part."""
    (d1, p1, exc1), (d2, p2, exc2) = s1, s2
    p1, p2, d = _poly_trim(p1), _poly_trim(p2), d1 + d2

    def c1(a):
        return F0 if a in (0, d1) else Fraction(exc1.get(a, _poly_eval(p1, a)))

    def c2(a):
        return F0 if a in (0, d2) else Fraction(exc2.get(a, _poly_eval(p2, a)))

    generic = _poly_add(
        _poly_mul(_poly_mul(p1, [Fraction(d1), -F1]), _poly_shift(p2, -d1)),
        _poly_mul(_poly_mul(_poly_shift(p1, -d2), [Fraction(-d2), F1]), p2))
    e1 = set(exc1) | {0, d1}
    e2 = set(exc2) | {0, d2}
    exc = {}
    for a in e1 | {a + d2 for a in e1} | e2 | {a + d1 for a in e2}:
        if a in (0, d):
            continue
        val = c1(a) * (d1 - a) * c2(a - d1) + c1(a - d2) * (a - d2) * c2(a)
        if val != _poly_eval(generic, a):
            exc[a] = val
    return d, generic, exc


# ---------------------------------------------------------------------------
# Fock states: dict[tuple-of-parts-desc, Fraction], rank one.
# ---------------------------------------------------------------------------

def st(parts, coeff=1):
    return {tuple(sorted(parts, reverse=True)): Fraction(coeff)}


def st_add(*states):
    out = {}
    for s in states:
        for k, v in s.items():
            out[k] = out.get(k, F0) + v
    return {k: v for k, v in out.items() if v}


def st_scale(c, s):
    c = Fraction(c)
    return {k: c * v for k, v in s.items() if c * v}


def o_mode(n, state):
    """b_n on a rank-one state dict."""
    out = {}
    for parts, coeff in state.items():
        if n < 0:
            new = tuple(sorted(parts + (-n,), reverse=True))
            out[new] = out.get(new, F0) + coeff
        else:
            mult = parts.count(n)
            if mult:
                lst = list(parts)
                lst.remove(n)
                new = tuple(lst)
                out[new] = out.get(new, F0) + coeff * n * mult
    return {k: v for k, v in out.items() if v}


def o_pair(a, b, state):
    """:b_a b_b: on a state: annihilator (positive index) applied first."""
    first, second = (b, a) if b > 0 else (a, b)
    # ensure any positive index acts first
    if first < 0 and second > 0:
        first, second = second, first
    return o_mode(second, o_mode(first, state))


def tau_pairs(p, degcap):
    """Unordered pairs {a, b}, a+b = p, a,b != 0, with weights, that can act
    nontrivially on states of degree <= degcap."""
    pairs = []
    # both negative
    if p <= -2:
        for a in range(p + 1, p // 2 + 1):
            b = p - a
            w = Fraction(1, 2) if a == b else F1
            pairs.append((w, a, b))
    # both positive
    if p >= 2:
        for a in range(1, p // 2 + 1):
            b = p - a
            w = Fraction(1, 2) if a == b else F1
            pairs.append((w, a, b))
    # mixed: annihilator b > max(0, p), bounded by degcap
    for b in range(max(0, p) + 1, degcap + 1):
        a = p - b
        if a != 0:
            pairs.append((F1, a, b))
    return pairs


def o_virasoro(p, state, degcap):
    return st_add(*(st_scale(w, o_pair(a, b, state))
                    for w, a, b in tau_pairs(p, degcap)))


def partitions(n, maxp=None):
    if maxp is None:
        maxp = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxp), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# exact row reduction
# ---------------------------------------------------------------------------

def rank_of_rows(rows):
    pivots = {}  # col -> reduced row
    rank = 0
    for row in rows:
        row = list(row)
        for col, prow in pivots.items():
            if row[col]:
                f = row[col]
                for i in range(len(row)):
                    row[i] -= f * prow[i]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = row[lead]
        row = [x / inv for x in row]
        pivots[lead] = row
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# coinvariant oracle (rank one)
# ---------------------------------------------------------------------------

def coinv_dims(gaps, N, M, W, include_linear):
    S = [s for s in range(1, W + 1) if s not in gaps]
    basis = {n: list(partitions(n)) for n in range(0, N + 1)}
    index = {n: {lam: i for i, lam in enumerate(basis[n])} for n in basis}
    rows = {n: [] for n in basis}

    def emit(image):
        if not image:
            return
        degs = {sum(parts) for parts in image}
        assert len(degs) == 1
        n = degs.pop()
        if n > N:
            return
        vec = [F0] * len(basis[n])
        for parts, coeff in image.items():
            vec[index[n][parts]] = coeff
        rows[n].append(vec)

    for deg in range(0, M + 1):
        for lam in partitions(deg):
            v = {lam: F1}
            for s in S:
                for m in [m for m in range(-W, W + 1) if m != 0]:
                    emit(o_pair(-s, m, v))
                if include_linear:
                    emit(o_mode(-s, v))
    return [len(basis[n]) - rank_of_rows(rows[n]) for n in range(0, N + 1)]


# ---------------------------------------------------------------------------
# value table
# ---------------------------------------------------------------------------

def main():
    K = 40
    print("== psi on tau diagonals ==")
    for p in range(1, 9):
        v = psi_mat(mat_tau(p, K), mat_tau(-p, K), K)
        print(f"psi(tau L_{p}, tau L_{-p}) = {v}   -(p^3-p)/6 = {Fraction(-(p**3 - p), 6)}")

    print("\n== psi on honest Witt derivations ==")
    for p in range(1, 6):
        v = psi_mat(mat_witt(p, K), mat_witt(-p, K), K)
        print(f"psi(D_{p}, D_{-p}) = {v}")

    print("\n== gamma-type traces ==")
    for p in range(1, 6):
        t_tau = psi_mat(mat_tau(p, K), mat_mult(-p, K), K)
        t_der = psi_mat(mat_witt(p, K), mat_mult(-p, K), K)
        closed = -Fraction(1, 2) * Fraction(-(-p) * (-p - 1))  # -1/2 Res(f k'') at q=-p
        # f = -t^(p+1), k = t^q, q = -p: f*k'' = -q(q-1) t^(p+q-1); Res = -q(q-1)
        q = -p
        closed = -Fraction(1, 2) * Fraction(-q * (q - 1))
        print(f"p={p}: psi(tau, mult)={t_tau}  psi(deriv, mult)={t_der}  closed form={closed}")

    print("\n== Prop 4.1 probe values ==")
    print("gamma(b1b1, b-2) = psi(pair(1,1), mult t^-2) =",
          psi_mat(mat_pair(1, 1, K), mat_mult(-2, K), K))
    print("gamma(b1b-2, b1) = psi(pair(1,-2), mult t^1) =",
          psi_mat(mat_pair(1, -2, K), mat_mult(1, K), K))
    print("psi(pair(1,1), pair(-1,-1)) =",
          psi_mat(mat_pair(1, 1, K), mat_pair(-1, -1, K), K))

    print("\n== fit probe matrix ==")
    print("alpha(tauL2, tauL-2) =", psi_mat(mat_tau(2, K), mat_tau(-2, K), K))
    print("gamma probe psi(tauL2-endo, mult t^-2) =",
          psi_mat(mat_tau(2, K), mat_mult(-2, K), K))
    print("gamma singular probe psi(tauL1-endo, mult t^-1) =",
          psi_mat(mat_tau(1, K), mat_mult(-1, K), K))

    print("\n== D-side cocycle psi∘rho_-  (deriv, -mult) ==")
    for p in range(1, 6):
        lhs = psi_mat(mat_witt(p, K), mat_scale(-1, mat_mult(-p, K)), K)
        print(f"c(L_{p}, b_{-p}) = {lhs}   -p(p+1)/2 = {Fraction(-p * (p + 1), 2)}")
    for q in range(1, 6):
        lhs = psi_mat(mat_scale(-1, mat_mult(q, K)), mat_scale(-1, mat_mult(-q, K)), K)
        print(f"c(b_{q}, b_{-q}) = {lhs}")

    print("\n== closed forms, full grid check |p|,|q| <= 5 ==")
    ok_a = ok_g = True
    for p in range(-5, 6):
        for q in range(-5, 6):
            tr = psi_mat(mat_witt(p, K), mat_witt(q, K), K)
            # (1/6) Res f d(h''), f = -t^(p+1), h = -t^(q+1)
            # h''' = -(q+1)q(q-1) t^(q-2); f*h''' = (q+1)q(q-1) t^(p+q-1)
            closed = Fraction((q + 1) * q * (q - 1), 6) if p + q == 0 else F0
            if tr != closed:
                ok_a = False
            if q != 0:
                trg = psi_mat(mat_witt(p, K), mat_mult(q, K), K)
                closedg = -Fraction(1, 2) * Fraction(-q * (q - 1)) if p + q == 0 else F0
                if trg != closedg:
                    ok_g = False
    print("alpha closed form grid:", "OK" if ok_a else "MISMATCH")
    print("gamma closed form grid:", "OK" if ok_g else "MISMATCH")

    print("\n== Fock: Virasoro on small states ==")
    degcap = 12
    vac = st([])
    lm2 = o_virasoro(-2, vac, degcap)
    print("L_-2 |0> =", lm2)
    com = st_add(o_virasoro(2, o_virasoro(-2, vac, degcap), degcap),
                 st_scale(-1, o_virasoro(-2, o_virasoro(2, vac, degcap), degcap)))
    print("[L_2, L_-2] |0> =", com)

    print("\n== Fock: bracket oracle [tau2, tau-2] = 4 tau0 + 1/2 ==")
    for parts in [(), (1,), (2, 1), (3, 2, 1)]:
        v = st(parts)
        lhs = st_add(o_virasoro(2, o_virasoro(-2, v, degcap), degcap),
                     st_scale(-1, o_virasoro(-2, o_virasoro(2, v, degcap), degcap)))
        rhs = st_add(st_scale(4, o_virasoro(0, v, degcap)), st_scale(Fraction(1, 2), v))
        print(f"  state {parts}: match = {lhs == rhs}")

    print("\n== Fock: exp(:b1b1:) on b_-1 b_-1 |0> ==")
    v = st([1, 1])
    acc = dict(v)
    term = dict(v)
    k = 0
    while term:
        k += 1
        term = st_scale(Fraction(1, k), o_pair(1, 1, term))
        acc = st_add(acc, term)
    print("exp(:b1b1:) |1,1> =", acc)

    print("\n== Fock: central charge, rank 1 and rank 3 ==")
    # rank 1, p = 2, states of degree <= 4
    p = 2
    vals = set()
    for d in range(0, 5):
        for parts in partitions(d):
            v = st(parts)
            com = st_add(o_virasoro(p, o_virasoro(-p, v, degcap), degcap),
                         st_scale(-1, o_virasoro(-p, o_virasoro(p, v, degcap), degcap)))
            w = st_add(com, st_scale(-2 * p, o_virasoro(0, v, degcap)))
            # w must be mu * v
            mu = w.get(tuple(sorted(parts, reverse=True)), F0)
            assert st_add(w, st_scale(-mu, v)) == {}
            vals.add(12 * mu / (p ** 3 - p))
    print("rank 1 measured c:", vals)
    # rank 3: states are triples; summed-channel L acts channel-wise.
    # By additivity the commutator defect on the vacuum triple is 3x rank one.
    mu1 = Fraction(1, 2)  # [L2,L-2]|0> coefficient from above
    print("rank 3 vacuum defect = 3 *", mu1, "=> c =", 12 * 3 * mu1 / 6)

    print("\n== quadratic bracket spot checks via matrices (window) ==")
    A = mat_pair(1, 1, K)
    B = mat_pair(-1, -1, K)
    C = mat_commutator(A, B, K)
    target = mat_scale(4, mat_pair(1, -1, K))
    print("[pair(1,1), pair(-1,-1)] == 4*pair(1,-1) as endo:", C == target)
    A = mat_pair(2, -1, K)
    B = mat_pair(1, -2, K)
    C = mat_commutator(A, B, K)
    target = mat_add(mat_scale(-1, mat_pair(2, -2, K)), mat_scale(2, mat_pair(1, -1, K)))
    print("[pair(2,-1), pair(1,-2)] == -pair(2,-2) + 2 pair(1,-1):", C == target)
    # central parts
    print("psi(pair(2,-1), pair(1,-2)) =", psi_mat(mat_pair(2, -1, K), mat_pair(1, -2, K), K))

    print("\n== coinvariant dimensions (rank one) ==")
    for gaps, N, M, W in [(frozenset(), 4, 8, 8), (frozenset(), 4, 10, 10),
                          (frozenset({1}), 4, 8, 8), (frozenset({1}), 4, 10, 10),
                          (frozenset({1, 3}), 4, 8, 8), (frozenset({1, 3}), 4, 10, 10)]:
        dA = coinv_dims(gaps, N, M, W, include_linear=False)
        dX = coinv_dims(gaps, N, M, W, include_linear=True)
        print(f"gaps={sorted(gaps)} N={N} M={M} W={W}: A-side {dA}  X-side {dX}")


if __name__ == "__main__":
    main()
