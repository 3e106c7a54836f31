"""Rebuild perfbench/expected.json.

    python3 perfbench/build_expected.py

The coinv table holds rank-1 graded dims from the independent brute-force
oracle tests/oracles.coinv_dims, for every (side, gaps, M, W) the pool's
schedules need; rank 2 is derived from it in jobs.rank_dims.  The
verify-all entries are the CLI's text output at the commit the table was
built on, kept so later changes must reproduce the same bytes.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys

import jobs

ORACLE_N = 12


def load_oracles():
    path = jobs.ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_entries():
    """(side, gaps, M, W) for every rank-1 quotient the pool's schedules
    read, rank 2 included (its second channel lowers the source cap)."""
    caps = set()
    for rank, sizes in ((1, (8, 10, 12)), (2, (8,))):
        for N in sizes:
            for m, w in jobs.coinv_steps(N, N + 4, N + 4):
                for j in range(N + 1 if rank > 1 else 1):
                    caps.add((m - j, w))
    return [(side, gaps, m, w) for side in jobs.SIDES
            for gaps in jobs.GAP_SETS for m, w in sorted(caps)]


def oracle_dims(oracles, side, gaps, M, W):
    return oracles.coinv_dims(frozenset(gaps), ORACLE_N, M, W,
                              include_linear=(side == "X"))


def verify_all_outputs():
    from oscalg.cli import main
    out = {}
    for b in jobs.PROBE_BOUNDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["verify-all", "--probe-bound", str(b)])
        if code != 0:
            raise SystemExit(f"verify-all --probe-bound {b} exited {code}")
        out[str(b)] = buf.getvalue()
    return out


def build():
    oracles = load_oracles()
    table = {}
    entries = oracle_entries()
    for i, (side, gaps, M, W) in enumerate(entries, 1):
        table[jobs.oracle_key(side, gaps, M, W)] = oracle_dims(
            oracles, side, gaps, M, W)
        print(f"\r{i}/{len(entries)}", end="", file=sys.stderr, flush=True)
    print(file=sys.stderr)
    return {"coinv_rank1": table, "verify_all": verify_all_outputs()}


def dumps(data: dict) -> str:
    """JSON with one table entry per line."""
    sections = []
    for section, entries in sorted(data.items()):
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                          for k, v in sorted(entries.items()))
        sections.append(f" {json.dumps(section)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    jobs.use_checkout_library()
    data = build()
    with open(jobs.EXPECTED_PATH, "w") as fh:
        fh.write(dumps(data))
    print(f"wrote {jobs.EXPECTED_PATH}")
