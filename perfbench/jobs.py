"""Job pools, seeded rounds and the correctness check for every job.

A workload is a round of jobs drawn from a fixed pool.  The seed decides
the order of the jobs and the draws from the pool; the library only ever
sees the generated argv (or generator list).  Every round of a workload
holds the same number of jobs of each cost class, so rounds drawn from
different seeds cost about the same and the metrics of a run do not
depend on which seed was used.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"

# All numerical semigroups of genus <= 3 (as gap sets), plus {1,2,3,5,7}.
GAP_SETS = ((), (1,), (1, 2), (1, 3), (1, 2, 3), (1, 2, 4), (1, 2, 5),
            (1, 3, 5), (1, 2, 3, 5, 7))
# (rank, N): the costly cells of the coinv pool, one of them per gap set
# and round.
HEAVY_CELLS = ((1, 12), (2, 8))
SIDES = ("A", "X")

PROBE_BOUNDS = (4, 6, 8)
# Sixteen subsets of one size put the median job of a round in the middle
# of a block of like jobs, where its time hardly moves with the draws.
JACOBI_SUBSET_SIZES = (4, 6, 8, 10, 12, 14) + (20,) * 16
ACCEPTANCE_SIZE = 52

# Ten log-spaced offsets from 10^2 to 2*10^5.
OFFSET_GRID = tuple(round(100 * 2000 ** (k / 9)) for k in range(10))
# psi at the fifth offset is the 15th fastest of the 30 grid jobs.  Eight
# more of it put the median job of a round in the middle of a block of nine
# like jobs; without them the median fell between two unlike jobs and
# spread 7-13% over seeds.
MEDIAN_OFFSET = OFFSET_GRID[4]
MEDIAN_BLOCK = 8


@dataclass(frozen=True)
class Job:
    """One call a user would make.

    kind is "cli" (argv for oscalg.cli.main) or "jacobi" (indices into the
    52 acceptance generators for oscalg.verify.check_jacobi).  klass names
    the scaling class the traced run reports a median time for."""

    kind: str
    label: str
    klass: str
    argv: tuple = ()
    gens: tuple = ()


def _gaps_text(gaps) -> str:
    return ",".join(str(g) for g in gaps)


def coinv_job(gaps, rank: int, N: int, side: str) -> Job:
    W = N + 4
    argv = ("coinv", "--gaps", _gaps_text(gaps), "--rank", str(rank),
            "--N", str(N), "--M", str(W), "--W", str(W), "--side", side)
    klass = f"N{N}" if rank == 1 else f"rank{rank}-N{N}"
    return Job("cli", " ".join(argv), klass, argv=argv)


def coinv_round(rng: random.Random):
    """Per gap set: N=8 on a seeded side, N=10 on both sides, and one heavy
    job.  Heavy jobs are dealt in turn from N=12 and rank 2 at N=8, five
    and four a round, the side of each seeded.  The median job of a round
    then falls in the middle of the N=10 block."""
    jobs = [coinv_job(g, 1, 8, rng.choice(SIDES)) for g in GAP_SETS]
    jobs += [coinv_job(g, 1, 10, side) for side in SIDES for g in GAP_SETS]
    sides = [rng.sample(SIDES, 2) for _ in HEAVY_CELLS]
    cells = [(rank, N, side[k]) for k in range(2)
             for (rank, N), side in zip(HEAVY_CELLS, sides)]
    gaps = list(GAP_SETS)
    rng.shuffle(gaps)
    for i, g in enumerate(gaps):
        rank, N, side = cells[i % len(cells)]
        jobs.append(coinv_job(g, rank, N, side))
    return jobs


def _generator_kinds():
    """Indices of acceptance_generators() by kind: unit, modes, pairs, T."""
    idx = iter(range(ACCEPTANCE_SIZE))
    unit = [next(idx)]
    modes = [next(idx) for _ in range(8)]
    pairs = [next(idx) for _ in range(36)]
    taus = [next(idx) for _ in range(7)]
    return unit, modes, pairs, taus


def jacobi_subset(rng: random.Random, size: int) -> tuple:
    """A subset with each kind of generator in proportion to the full set,
    so subsets of one size cost about the same whatever the seed."""
    kinds = _generator_kinds()
    quotas = [len(k) * size // ACCEPTANCE_SIZE for k in kinds]
    # hand the rounding remainder to the kinds with the largest fractions
    order = sorted(range(len(kinds)),
                   key=lambda i: -(len(kinds[i]) * size % ACCEPTANCE_SIZE))
    for i in order[:size - sum(quotas)]:
        quotas[i] += 1
    chosen = []
    for kind, quota in zip(kinds, quotas):
        chosen += rng.sample(kind, quota)
    return tuple(sorted(chosen))


def jacobi_job(gens: tuple) -> Job:
    n = len(gens)
    label = f"check_jacobi {n} generators"
    return Job("jacobi", label, f"jacobi-{n}", gens=gens)


def identity_round(rng: random.Random):
    jobs = [Job("cli", f"verify-all --probe-bound {b}", f"verify-{b}",
                argv=("verify-all", "--probe-bound", str(b)))
            for b in PROBE_BOUNDS]
    jobs.append(jacobi_job(tuple(range(ACCEPTANCE_SIZE))))
    jobs += [jacobi_job(jacobi_subset(rng, n)) for n in JACOBI_SUBSET_SIZES]
    return jobs


def offset_decade(p: int) -> str:
    return f"p1e{int(math.log10(p))}"


def offset_jobs(p: int):
    """psi, bracket and fock-apply at offset p."""
    return [Job("cli", " ".join(argv), offset_decade(p), argv=argv)
            for argv in (("cocycle", "psi", f"T({p})", f"T({-p})"),
                         ("bracket", f"T({p})", f"T({-p})"),
                         ("fock-apply", f"T({-p})", "[1]"))]


def large_offset_round(rng: random.Random):
    jobs = [job for p in OFFSET_GRID for job in offset_jobs(p)]
    return jobs + offset_jobs(MEDIAN_OFFSET)[:1] * MEDIAN_BLOCK


_ROUNDS = {"coinv-schedule": coinv_round,
           "identity-battery": identity_round,
           "large-offset": large_offset_round}
WORKLOADS = tuple(_ROUNDS)


def make_round(workload: str, seed: int, index: int):
    """Round `index` of a workload: the pool draws, in a seeded order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    jobs = _ROUNDS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def use_checkout_library():
    """Put the checkout's src/ first on sys.path, so the benchmark measures
    the library in this checkout and never an installed copy."""
    src = ROOT / "src"
    if not (src / "oscalg" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {src / 'oscalg'}")
    if not (ROOT / "tests" / "test_acceptance.py").is_file():
        raise SystemExit(f"error: no {ROOT / 'tests' / 'test_acceptance.py'}")
    sys.path.insert(0, str(src))
    import oscalg
    if Path(oscalg.__file__).resolve().parent != (src / "oscalg").resolve():
        raise SystemExit(f"error: imported oscalg from {oscalg.__file__}")


def acceptance_generators():
    """The 52 generators of tests/test_acceptance.py, read-only."""
    path = ROOT / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("_acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    gens = module.acceptance_generators()
    if len(gens) != ACCEPTANCE_SIZE:
        raise ValueError(f"expected {ACCEPTANCE_SIZE} acceptance generators")
    return gens


# ---------------------------------------------------------------------------
# expected values
# ---------------------------------------------------------------------------

def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def oracle_key(side: str, gaps, M: int, W: int) -> str:
    return f"{side}|{_gaps_text(gaps)}|{M}|{W}"


def coinv_steps(N: int, M: int, W: int):
    """The CLI's truncation schedule, three sizes ending at (M, W), written
    out here rather than taken from oscalg.coinv.default_schedule."""
    steps = []
    for k in (4, 2, 0):
        m = max(N, M - k)
        w = max(m, W - k)
        if steps and not (m >= steps[-1][0] and w >= steps[-1][1]
                          and (m, w) != steps[-1]):
            continue
        steps.append((m, w))
    return steps


def partition_counts(n: int):
    """p(0), ..., p(n)."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            p[k] += p[k - part]
    return p


def rank_dims(rank1, N: int, M: int, W: int, rank: int):
    """Graded dims at rank 1 or 2 from the rank-1 oracle table.

    At rank 2 the generators act on the first channel only, so the
    quotient is (rank-1 quotient) x (second Fock space).  A source of total
    degree <= M whose second channel has degree j leaves the first channel
    a source cap of M - j, hence dims2[n] = sum_j p(j) dims1[n-j] at cap
    M - j."""
    if rank == 1:
        return rank1(M, W)[:N + 1]
    if rank != 2:
        raise ValueError("the table covers ranks 1 and 2")
    p = partition_counts(N)
    return [sum(p[j] * rank1(M - j, W)[n - j] for j in range(n + 1))
            for n in range(N + 1)]


def expected_coinv(table: dict, gaps, side: str, rank: int, N: int,
                   M: int, W: int) -> tuple:
    """(exit code, stdout) the CLI must give, emulating the stabilization
    schedule over oracle dims."""
    oracle = table["coinv_rank1"]

    def rank1(m, w):
        return oracle[oracle_key(side, gaps, m, w)]

    last = None
    for m, w in coinv_steps(N, M, W):
        dims = rank_dims(rank1, N, m, w, rank)
        stabilized = last is not None and dims == last
        last = dims
        if stabilized:
            break
    semigroup = [s for s in range(1, w + 1) if s not in gaps]
    generators = len(semigroup) * 2 * w
    if side == "X":
        generators += len(semigroup)
    report = {"gaps": sorted(gaps), "rank": rank, "N": N, "M": m, "W": w,
              "dims": dims, "stabilized": stabilized,
              "generators": generators}
    return (0 if stabilized else 3), json.dumps(report) + "\n"


def _format_terms(terms) -> str:
    """Canonical sum printer: first term bare, then '+ ' / '- ' terms."""
    chunks = []
    for coeff, atom in terms:
        mag = abs(coeff)
        body = atom if mag == 1 else f"{mag}*{atom}"
        if not chunks:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(chunks)


def expected_fock_apply(p: int) -> str:
    """T(-p) [1] = [p+1] + sum_{i=1}^{p//2} c_i [p-i,i,1], c_i = 1 except
    c_{p/2} = 1/2."""
    terms = [(1, f"[{p + 1}]")]
    for i in range(1, p // 2 + 1):
        c = Fraction(1, 2) if 2 * i == p else 1
        terms.append((c, f"[{p - i},{i},1]"))
    return _format_terms(terms)


def _offset(atom: str) -> int:
    """p from the atom 'T(p)'."""
    return int(atom[len("T("):-1])


def expected_cli(job: Job, table: dict) -> tuple:
    """(exit code, stdout) for a cli job."""
    cmd = job.argv[0]
    if cmd == "coinv":
        opts = dict(zip(job.argv[1::2], job.argv[2::2]))
        gaps = tuple(int(g) for g in opts["--gaps"].split(",") if g)
        return expected_coinv(table, gaps, opts["--side"], int(opts["--rank"]),
                              int(opts["--N"]), int(opts["--M"]),
                              int(opts["--W"]))
    if cmd == "verify-all":
        return 0, table["verify_all"][job.argv[2]]
    if cmd == "cocycle":
        p = _offset(job.argv[2])
        text = str(Fraction(-(p ** 3 - p), 6))
    elif cmd == "bracket":
        p = _offset(job.argv[1])
        text = _format_terms([(2 * p, "T(0)"), (Fraction(p ** 3 - p, 12), "K")])
    elif cmd == "fock-apply":
        text = expected_fock_apply(-_offset(job.argv[1]))
    else:
        raise ValueError(f"no expected value for {cmd!r}")
    return 0, text + "\n"


def check_cli(job: Job, table: dict, code: int, out: str):
    """None if the job's exit code and stdout are right, else a reason."""
    want_code, want_out = expected_cli(job, table)
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if out != want_out:
        return "stdout differs from the expected bytes"
    if job.argv[0] == "verify-all":
        lines = out.splitlines()
        if not lines or not all(line.startswith("PASS ") for line in lines):
            return "a verdict did not pass or carried a witness"
    return None


def check_jacobi_result(result):
    return None if result == [] else f"witnesses {result[:3]!r}"
