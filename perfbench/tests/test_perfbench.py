"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q
"""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import build_expected  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, leftover_wrappers  # noqa: E402

SEEDS = (1, 2, 3, 17)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_rounds_are_deterministic(workload):
    for seed in SEEDS:
        assert jobs.make_round(workload, seed, 0) == jobs.make_round(workload, seed, 0)
    orders = {tuple(jobs.make_round(workload, seed, 0)) for seed in SEEDS}
    assert len(orders) == len(SEEDS)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_round_has_the_same_cost_classes(workload):
    mixes = {frozenset(Counter(j.klass for j in jobs.make_round(workload, s, i)).items())
             for s in SEEDS for i in range(3)}
    assert len(mixes) == 1


def test_jacobi_subsets_are_proportional():
    kinds = jobs._generator_kinds()
    for size in jobs.JACOBI_SUBSET_SIZES:
        subset = jobs.jacobi_subset(random.Random(size), size)
        assert len(set(subset)) == size
        counts = [len(set(subset) & set(k)) for k in kinds]
        for count, kind in zip(counts, kinds):
            assert abs(count - len(kind) * size / jobs.ACCEPTANCE_SIZE) < 1


def test_expected_table_agrees_with_oracles():
    table = jobs.load_expected()["coinv_rank1"]
    entries = build_expected.oracle_entries()
    assert set(table) == {jobs.oracle_key(*e) for e in entries}
    oracles = build_expected.load_oracles()
    cheap = [e for e in entries if e[2] <= 10]
    costly = random.Random(0).sample([e for e in entries if e[2] > 10], 6)
    for entry in cheap + costly:
        assert table[jobs.oracle_key(*entry)] == build_expected.oracle_dims(
            oracles, *entry), entry


@pytest.fixture(scope="module")
def bench():
    return run.Bench("large-offset", 1)


def test_rank2_derivation_matches_the_library(bench):
    job = jobs.coinv_job((1, 2, 3, 5, 7), 2, 8, "A")
    out, code, error = bench.call(job)
    assert error is None
    assert jobs.check_cli(job, bench.table, code, out) is None


def test_checks_reject_wrong_answers(bench):
    job = jobs.Job("cli", "psi", "p1e2", argv=("cocycle", "psi", "T(100)", "T(-100)"))
    out, code, error = bench.call(job)
    assert jobs.check_cli(job, bench.table, code, out) is None
    assert jobs.check_cli(job, bench.table, code, out.replace("-", "")) is not None
    assert jobs.check_cli(job, bench.table, 1, out) is not None
    assert jobs.check_jacobi_result(["triple (0,1,2)"]) is not None
    verify = jobs.Job("cli", "v", "v", argv=("verify-all", "--probe-bound", "4"))
    text = bench.table["verify_all"]["4"]
    assert jobs.check_cli(verify, bench.table, 0, text) is None
    assert jobs.check_cli(verify, bench.table, 0,
                          text.replace("PASS", "FAIL", 1)) is not None


def _small_jobs():
    """Cheap jobs covering every wrapped layer."""
    return [jobs.coinv_job((1,), 1, 4, "A"), jobs.coinv_job((1, 3), 2, 3, "X"),
            jobs.Job("cli", "v", "v", argv=("verify-all", "--probe-bound", "2")),
            jobs.jacobi_job(tuple(range(0, 52, 5))),
            jobs.Job("cli", "c", "c", argv=("cocycle", "psi", "T(50)", "T(-50)")),
            jobs.Job("cli", "c", "c", argv=("cocycle", "beta", "b(2)", "b(-2)")),
            jobs.Job("cli", "b", "b", argv=("bracket", "T(40)", "T(-40)")),
            jobs.Job("cli", "f", "f", argv=("fock-apply", "T(-30)", "[1]")),
            jobs.Job("cli", "f", "f", argv=("fock-apply", "T(-3)", "[2,1]",
                                            "--format", "json"))]


def test_tracing_changes_no_output_and_is_removed(bench):
    small = _small_jobs()
    plain = [bench.call(job) for job in small]
    tracer = Tracer()
    tracer.install()
    try:
        assert leftover_wrappers()
        traced = [tracer.run_job(i, bench.call, job) for i, job in enumerate(small)]
    finally:
        tracer.uninstall()
    assert leftover_wrappers() == []
    assert traced == plain
    assert all(error is None for _, _, error in plain)
    metrics = tracer.layer_metrics()
    for name in ("fock.graded_basis.calls", "fock.apply_quadratic.calls",
                 "coinv.schedule_steps", "quadops.bracket.calls",
                 "quadops.poly.calls", "quadops.psi.calls", "laurent.calls",
                 "verify.triples"):
        assert metrics[name][0] > 0, name
    for name in ("coinv.self_s", "verify.self_s", "cli.main.self_s",
                 "cli.parse_expression.busy_s", "cli.format.busy_s"):
        assert metrics[name][0] > 0, name


def test_self_time_subtracts_children():
    tracer = Tracer()

    def child():
        return sum(range(20000))

    wrapped = tracer.wrap("inner", child)

    def parent():
        return wrapped() + wrapped()

    outer = tracer.wrap("outer", parent)
    tracer.run_job(0, outer)
    kids = tracer._children()
    root, outer_rec, inner_rec = tracer.records
    assert (outer_rec.parent, inner_rec.parent) == (root.id, outer_rec.id)
    assert inner_rec.calls == 2 and outer_rec.calls == 1
    assert tracer.self_time(outer_rec, kids) == pytest.approx(
        outer_rec.total - inner_rec.total)
    assert 0 <= tracer.self_time(outer_rec, kids) < outer_rec.total
