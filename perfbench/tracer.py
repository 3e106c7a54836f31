"""Outside-in tracing: wrappers swapped onto the names one layer of oscalg
calls in another, recording spans in memory.

Nothing under src/ changes.  install() replaces each cross-layer name
(a module attribute, a class method or a dict entry) with a wrapper;
uninstall() puts every original back, and leftover_wrappers() proves it.

Each span has a name, start, end, parent span and job.  Repeated calls of
one name under one parent span are folded into one record that keeps the
call count, the summed duration and the first start and last end; a heavy
job makes millions of Poly and apply_quadratic calls, and one record per
call would not fit in memory.  Sibling calls never overlap in one thread,
so a record's self time, its duration minus the durations of its child
records, is exact.
"""

from __future__ import annotations

import importlib
import statistics
from math import comb
from time import perf_counter

import jobs

# Span names are "<layer>.<what>"; the layers are the package's modules.
LAYERS = ("laurent", "quadops", "fock", "coinv", "verify", "cli")


class Record:
    __slots__ = ("id", "name", "job", "parent", "calls", "total", "start", "end")

    def __init__(self, rid, name, job, parent):
        self.id = rid
        self.name = name
        self.job = job
        self.parent = parent
        self.calls = 0
        self.total = 0.0
        self.start = None
        self.end = None

    def to_dict(self, t0: float) -> dict:
        return {"id": self.id, "name": self.name, "job": self.job,
                "parent": self.parent, "calls": self.calls,
                "total_s": self.total, "start_s": self.start - t0,
                "end_s": self.end - t0}


def _opposite(a, b) -> int:
    """Sum of |d| over shifts d != 0 with d in a and -d in b: the length of
    quadops.psi_trace's loops over two operators with these shifts."""
    return sum(abs(d) for d in a if d and -d in b)


def _shifts(u) -> set:
    """Shifts of psi's operator for u: quadratic offsets, linear exponents."""
    return set(u.quad) | set(u.linear.coeffs)


def _witt_shifts(x) -> set:
    """Shifts of d_cocycle's operator for f d/dt + g."""
    return {e - 1 for e in x.f.coeffs} | set(x.g.coeffs)


# Trace terms of each traced cocycle entry point, from its arguments.
TRACE_TERMS = {
    "psi": lambda u, v: _opposite(_shifts(u), _shifts(v)),
    "alpha": lambda u, v: _opposite(u.quad, v.quad),
    "beta": lambda u, v: 0,
    "gamma": lambda u, v: (_opposite(u.quad, v.linear.coeffs)
                           + _opposite(v.quad, u.linear.coeffs)),
    "psi_trace": lambda a, b: _opposite(a.terms, b.terms),
    "d_cocycle": lambda u, v: _opposite(_witt_shifts(u), _witt_shifts(v)),
}


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.records = []
        self._index = {}
        self._stack = []
        self.counters = dict.fromkeys(
            ("fock.graded_basis.distinct_args", "fock.basis_states",
             "fock.image_terms", "coinv.schedule_steps", "coinv.generators",
             "coinv.rows_tried", "coinv.rows_kept", "quadops.trace_terms",
             "verify.triples"), 0)
        self.psi_samples = []        # (trace terms, seconds) per psi call
        self._graded_args = set()    # (job, d, r)
        self._slots = []             # (mapping?, owner, key, original)

    # -- spans ---------------------------------------------------------------

    def _record(self, parent, name, job):
        key = (parent, name)
        rid = self._index.get(key)
        if rid is None:
            rid = len(self.records)
            self.records.append(Record(rid, name, job, parent))
            self._index[key] = rid
        return self.records[rid]

    def run_job(self, job_id: int, fn, *args):
        """Call fn(*args) under a root span for one job."""
        rec = self._record(None, f"job:{job_id}", job_id)
        return self._call(rec, fn, args, {})

    def _call(self, rec, fn, args, kwargs):
        self._stack.append(rec)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            rec.calls += 1
            rec.total += end - start
            if rec.start is None:
                rec.start = start
            rec.end = end

    def wrap(self, name: str, fn, after=None):
        """A traced stand-in for fn; after(args, result, seconds) updates
        counters once the call returns."""
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1]
            rec = tracer._record(parent.id, name, parent.job)
            before = rec.total
            result = tracer._call(rec, fn, args, kwargs)
            if after is not None:
                after(args, result, rec.total - before)
            return result

        wrapper.perfbench_span = name
        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ------------------------------------------------------------

    def _after_graded_basis(self, args, result, _):
        self.counters["fock.basis_states"] += len(result)
        key = (self._stack[-1].job,) + tuple(args)
        if key not in self._graded_args:
            self._graded_args.add(key)
            self.counters["fock.graded_basis.distinct_args"] += 1

    def _after_apply(self, args, result, _):
        self.counters["fock.image_terms"] += len(result.terms)

    def _after_coinv_apply(self, args, result, seconds):
        self._after_apply(args, result, seconds)
        if not result.is_zero():
            self.counters["coinv.rows_tried"] += 1

    def _after_coinvariants(self, args, report, _):
        self.counters["coinv.schedule_steps"] += 1
        self.counters["coinv.generators"] += report.generators
        p = jobs.partition_counts(report.N)
        sizes = p
        for _ in range(report.rank - 1):
            sizes = [sum(sizes[j] * p[e - j] for j in range(e + 1))
                     for e in range(report.N + 1)]
        self.counters["coinv.rows_kept"] += sum(sizes) - sum(report.dims)

    def _after_psi(self, key: str):
        def after(args, _, seconds):
            terms = TRACE_TERMS[key](*args)
            self.counters["quadops.trace_terms"] += terms
            self.psi_samples.append((terms, seconds))
        return after

    def _after_jacobi(self, args, _, __):
        self.counters["verify.triples"] += comb(len(args[0]), 3)

    # -- installing wrappers -------------------------------------------------

    def _swap(self, owner, key: str, name: str, after=None, mapping=False):
        original = owner[key] if mapping else getattr(owner, key)
        wrapped = self.wrap(name, original, after)
        if mapping:
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        self._slots.append((mapping, owner, key, original))

    def install(self):
        m = {name: importlib.import_module(f"oscalg.{name}") for name in LAYERS}
        cli, coinv, verify, quadops = m["cli"], m["coinv"], m["verify"], m["quadops"]
        laurent = m["laurent"]
        self._swap(cli, "main", "cli.main")
        self._swap(cli, "parse_expression", "cli.parse_expression")
        for key in ("format_expression", "format_vector", "_dump"):
            self._swap(cli, key, "cli.format")
        self._swap(coinv.CoinvReport, "to_json", "cli.format")
        for key in ("coinvariants_A", "coinvariants_X"):
            self._swap(cli, key, "coinv.coinvariants", self._after_coinvariants)
        self._swap(coinv, "graded_basis", "fock.graded_basis",
                   self._after_graded_basis)
        self._swap(coinv, "apply_quadratic", "fock.apply_quadratic",
                   self._after_coinv_apply)
        self._swap(cli, "apply_quadratic", "fock.apply_quadratic",
                   self._after_apply)
        self._swap(verify, "check_jacobi", "verify.check_jacobi",
                   self._after_jacobi)
        self._swap(cli, "verify_all", "verify.verify_all")
        self._swap(verify.CocycleHandle, "__call__", "verify.cocycle")
        for owner in (verify, cli):
            self._swap(owner, "bracket", "quadops.bracket")
        for key in TRACE_TERMS:
            self._swap(verify, key, "quadops.psi", self._after_psi(key))
        for key in ("psi", "alpha", "beta", "gamma"):
            self._swap(verify._NAMED, key, "quadops.psi", self._after_psi(key),
                       mapping=True)
        for key in ("__add__", "__sub__", "__mul__", "__neg__", "scale", "affine"):
            self._swap(quadops.Poly, key, "quadops.poly")
        for key in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__",
                    "scale", "derivative", "without_constant"):
            self._swap(laurent.LaurentPoly, key, "laurent")
        self._swap(quadops, "symplectic_form", "laurent")
        for key in ("symplectic_form", "residue"):
            self._swap(verify, key, "laurent")

    def uninstall(self):
        while self._slots:
            mapping, owner, key, original = self._slots.pop()
            if mapping:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- metrics -------------------------------------------------------------

    def _children(self):
        kids = {}
        for rec in self.records:
            kids.setdefault(rec.parent, []).append(rec)
        return kids

    def self_time(self, rec, kids) -> float:
        return rec.total - sum(c.total for c in kids.get(rec.id, ()))

    def _outermost(self, rec) -> bool:
        """No ancestor of rec has the same name (so its time is not counted
        twice when a layer calls itself)."""
        parent = rec.parent
        while parent is not None:
            up = self.records[parent]
            if up.name == rec.name:
                return False
            parent = up.parent
        return True

    def calls(self, name: str) -> int:
        return sum(r.calls for r in self.records if r.name == name)

    def busy(self, name: str) -> float:
        return sum(r.total for r in self.records
                   if r.name == name and self._outermost(r))

    def self_s(self, prefix: str) -> float:
        """Summed self time of the records whose name starts with prefix."""
        kids = self._children()
        return sum(self.self_time(r, kids) for r in self.records
                   if r.name.startswith(prefix))

    def psi_slope(self) -> float:
        """Least-squares seconds per trace term over psi calls."""
        pts = [(x, y) for x, y in self.psi_samples if x]
        if len({x for x, _ in pts}) < 2:
            return 0.0
        return statistics.linear_regression(*zip(*pts)).slope

    def layer_metrics(self) -> dict:
        c = self.counters
        jacobi_ids = {r.id for r in self.records if r.name == "verify.check_jacobi"}
        jacobi_brackets = sum(r.calls for r in self.records
                              if r.name == "quadops.bracket"
                              and r.parent in jacobi_ids)
        tried = c["coinv.rows_tried"]
        return {
            "fock.graded_basis.calls": (self.calls("fock.graded_basis"), "count"),
            "fock.graded_basis.distinct_args":
                (c["fock.graded_basis.distinct_args"], "count"),
            "fock.graded_basis.busy_s": (self.busy("fock.graded_basis"), "s"),
            "fock.basis_states": (c["fock.basis_states"], "count"),
            "fock.apply_quadratic.calls":
                (self.calls("fock.apply_quadratic"), "count"),
            "fock.apply_quadratic.busy_s":
                (self.busy("fock.apply_quadratic"), "s"),
            "fock.image_terms": (c["fock.image_terms"], "count"),
            "coinv.self_s": (self.self_s("coinv.coinvariants"), "s"),
            "coinv.schedule_steps": (c["coinv.schedule_steps"], "count"),
            "coinv.generators": (c["coinv.generators"], "count"),
            "coinv.rows_tried": (tried, "count"),
            "coinv.rows_kept": (c["coinv.rows_kept"], "count"),
            "coinv.row_yield": (c["coinv.rows_kept"] / tried if tried else 0.0,
                                "ratio"),
            "quadops.bracket.calls": (self.calls("quadops.bracket"), "count"),
            "quadops.bracket.busy_s": (self.busy("quadops.bracket"), "s"),
            "quadops.poly.calls": (self.calls("quadops.poly"), "count"),
            "quadops.poly.busy_s": (self.busy("quadops.poly"), "s"),
            "quadops.psi.calls": (self.calls("quadops.psi"), "count"),
            "quadops.psi.busy_s": (self.busy("quadops.psi"), "s"),
            "quadops.trace_terms": (c["quadops.trace_terms"], "count"),
            "quadops.s_per_trace_term": (self.psi_slope(), "s"),
            "laurent.calls": (self.calls("laurent"), "count"),
            "laurent.busy_s": (self.busy("laurent"), "s"),
            "verify.check_jacobi.busy_s": (self.busy("verify.check_jacobi"), "s"),
            "verify.triples": (c["verify.triples"], "count"),
            "verify.brackets_per_triple":
                (jacobi_brackets / c["verify.triples"] if c["verify.triples"]
                 else 0.0, "ratio"),
            "verify.self_s": (self.self_s("verify."), "s"),
            "cli.main.self_s": (self.self_s("cli.main"), "s"),
            "cli.parse_expression.busy_s":
                (self.busy("cli.parse_expression"), "s"),
            "cli.format.busy_s": (self.busy("cli.format"), "s"),
        }

    def dump(self, labels) -> dict:
        return {"jobs": labels,
                "spans": [r.to_dict(self.t0) for r in self.records],
                "counters": self.counters}


def leftover_wrappers():
    """Every traced stand-in still reachable from the oscalg modules."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"oscalg.{layer}")
        spaces = [(f"oscalg.{layer}", vars(module))]
        spaces += [(f"oscalg.{layer}.{k}", vars(v)) for k, v in vars(module).items()
                   if isinstance(v, type) and v.__module__ == module.__name__]
        spaces.append((f"oscalg.{layer}._NAMED", getattr(module, "_NAMED", {})))
        for where, space in spaces:
            found += [f"{where}.{k}" for k, v in space.items()
                      if hasattr(v, "perfbench_span")]
    return found
