"""Outside-in tracer for the per-layer metrics.

The tracer changes nothing in pararp's source.  ``install`` replaces each
probed function by a timing wrapper, in its defining module and in every other
pararp module namespace that imported it by name (``to_matrix``, ``reflect``,
``canonical_product`` and ``matrix_exp`` are called from ``rp``, ``cli`` and
``hamiltonian`` through such names).  Methods are wrapped on their class.

Two kinds of probe:

* a *span* records name, layer, start, end, parent span and job id;
* a *leaf* is a hot function that calls no other probe (``circ`` runs hundreds
  of thousands of times per symbolic job).  Its calls are summed per parent
  span instead of stored one by one, and its time counts as a child of that
  span.

A wrapper records only while a job span is open, so set-up, warm-up and output
checks run untraced.  Spans stay in memory until ``write`` at the end of a run.
A span's self time is its duration minus its child spans and leaf time, so the
self times of all layers plus the runner's own (the job span's self time) add
up to the traced job time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

LAYERS = ("cli", "hamiltonian", "algebra", "exponents", "representation", "rp")


@dataclass(frozen=True)
class Probe:
    layer: str
    module: str
    name: str  # "function" or "Class.method"
    leaf: bool = False
    # size(args, kwargs) -> number, summed per probe (terms, pairs, dim^3...).
    size: Callable | None = None


def _terms(args, kwargs):
    return len(args[0].terms)


def _term_pairs(args, kwargs):
    return len(args[0].terms) * len(args[1].terms)


def _monomial_miss(args, kwargs):
    """dim^2 when the call builds a new cached matrix, else 0."""
    rep, vec = args[0], args[1]
    cache = getattr(rep, "_monomial_cache", None)
    if cache is not None and vec.entries in cache:
        return 0
    return rep.dim * rep.dim


def _dim3(args, kwargs):
    return args[0].shape[0] ** 3


def _basis_size(args, kwargs):
    rep = args[1]
    return rep.order ** rep.sites


def _gram_entries(args, kwargs):
    return len(args[2]) ** 2


def _structured_count(n: int, L: int) -> int:
    """1 + number of minus-half monomials of degree exactly n (check_rp's
    structured probes)."""
    ways = [1] + [0] * n
    for _ in range(L // 2):
        ways = [sum(ways[d - e] for e in range(min(n - 1, d) + 1))
                for d in range(n + 1)]
    return 1 + ways[n]


def _check_rp_probes(args, kwargs):
    from pararp import rp

    bound = inspect.signature(rp.check_rp).bind(*args, **kwargs)
    bound.apply_defaults()
    spec = bound.arguments["spec"]
    return bound.arguments["samples"] + _structured_count(spec.order, spec.sites)


P = "pararp."
PROBES = (
    Probe("cli", P + "cli", "main"),
    Probe("cli", P + "cli", "build_parser"),
    Probe("cli", P + "cli", "emit_report"),
    Probe("hamiltonian", P + "hamiltonian", "load_spec"),
    Probe("hamiltonian", P + "hamiltonian", "spec_from_dict"),
    Probe("hamiltonian", P + "hamiltonian", "baxter"),
    Probe("hamiltonian", P + "hamiltonian", "assemble"),
    Probe("hamiltonian", P + "hamiltonian", "build_h0"),
    Probe("hamiltonian", P + "hamiltonian", "check_symmetries"),
    Probe("hamiltonian", P + "hamiltonian", "HamiltonianSpec.total"),
    Probe("algebra", P + "algebra", "canonical_product", size=_term_pairs),
    Probe("algebra", P + "algebra", "reflect", size=_terms),
    Probe("algebra", P + "algebra", "adjoint"),
    Probe("algebra", P + "algebra", "gauge_apply"),
    Probe("algebra", P + "algebra", "classify"),
    Probe("algebra", P + "algebra", "to_text"),
    Probe("algebra", P + "algebra", "from_text"),
    Probe("algebra", P + "algebra", "Polynomial.__add__", leaf=True),
    Probe("algebra", P + "algebra", "Polynomial.__rmul__", leaf=True),
    Probe("algebra", P + "algebra", "Polynomial.almost_equal", leaf=True),
    Probe("exponents", P + "exponents", "add", leaf=True),
    Probe("exponents", P + "exponents", "circ", leaf=True),
    Probe("exponents", P + "exponents", "wedge", leaf=True),
    Probe("exponents", P + "exponents", "complement", leaf=True),
    Probe("exponents", P + "exponents", "degree", leaf=True),
    Probe("exponents", P + "exponents", "reflect_vector", leaf=True),
    Probe("exponents", P + "exponents", "unit_vector", leaf=True),
    Probe("exponents", P + "exponents", "zero_vector", leaf=True),
    Probe("representation", P + "representation", "build_generators"),
    Probe("representation", P + "representation", "to_matrix", size=_terms),
    Probe("representation", P + "representation", "decompose", size=_basis_size),
    Probe("representation", P + "representation", "verify_yamazaki"),
    Probe("representation", P + "representation",
          "Representation.monomial_matrix", leaf=True, size=_monomial_miss),
    Probe("rp", P + "rp", "matrix_exp", leaf=True, size=_dim3),
    Probe("rp", P + "rp", "check_rp", size=_check_rp_probes),
    Probe("rp", P + "rp", "gram_psd", size=_gram_entries),
    Probe("rp", P + "rp", "rp_bounds_check"),
    Probe("rp", P + "rp", "trotter_approximant"),
    Probe("rp", P + "rp", "trotter_convergence"),
    Probe("rp", P + "rp", "random_minus_observable"),
    Probe("rp", P + "rp", "structured_observables"),
)


def _key(probe: Probe) -> str:
    """Span name: layer plus function name, e.g. ``algebra.reflect``."""
    return f"{probe.layer}.{probe.name.rpartition('.')[2]}"


class Span:
    __slots__ = ("sid", "parent", "job", "name", "layer", "start", "end",
                 "size", "error", "child", "leaves")

    def __init__(self, sid, parent, job, name, layer, size=0):
        self.sid, self.parent, self.job = sid, parent, job
        self.name, self.layer, self.size = name, layer, size
        self.start = self.end = 0.0
        self.error = 0
        self.child = 0.0
        # leaf name -> [calls, seconds, size sum, calls with size > 0, errors]
        self.leaves: dict[str, list] = {}

    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self, probes=PROBES, clock=time.perf_counter):
        self.probes = probes
        self._clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._in_leaf = False
        self._undo: list[tuple[object, str, object]] = []
        self.layer_of = {_key(p): p.layer for p in probes}

    # -- jobs ---------------------------------------------------------------

    def begin_job(self, job_id: int) -> None:
        span = Span(len(self.spans), -1, job_id, "job", "runner")
        self.spans.append(span)
        self._stack.append(span)
        span.start = self._clock()

    def end_job(self) -> None:
        span = self._stack.pop()
        span.end = self._clock()
        # Every wrapper pops its own span, even when its function raises, so
        # the job span must have been the only one left.
        if self._stack:
            raise RuntimeError("unbalanced trace stack")

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, key: str, layer: str, fn, size):
        spans, stack, perf = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or self._in_leaf:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = Span(len(spans), parent.sid, parent.job, key, layer,
                        size(args, kwargs) if size else 0)
            spans.append(span)
            stack.append(span)
            span.start = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = 1
                raise
            finally:
                span.end = perf()
                stack.pop()
                parent.child += span.end - span.start

        return wrapper

    def _leaf_wrapper(self, key: str, fn, size):
        stack, perf = self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or self._in_leaf:
                return fn(*args, **kwargs)
            n = size(args, kwargs) if size else 0
            error = 0
            self._in_leaf = True
            start = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = 1
                raise
            finally:
                elapsed = perf() - start
                self._in_leaf = False
                parent = stack[-1]
                parent.child += elapsed
                agg = parent.leaves.get(key)
                if agg is None:
                    agg = parent.leaves[key] = [0, 0.0, 0, 0, 0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += n
                agg[3] += n > 0
                agg[4] += error

        return wrapper

    def install(self) -> None:
        """Wrap every probe present in the imported pararp package.  A probe
        whose function no longer exists is skipped, so the tracer survives
        refactors that remove a function; its metrics then read 0."""
        packages = [m for name, m in list(sys.modules.items())
                    if m is not None and (name == "pararp" or name.startswith("pararp."))]
        for probe in self.probes:
            module = importlib.import_module(probe.module)
            key = _key(probe)
            owner_name, _, attr = probe.name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            if probe.leaf:
                wrapped = self._leaf_wrapper(key, original, probe.size)
            else:
                wrapped = self._span_wrapper(key, probe.layer, original, probe.size)
            if owner_name:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in packages:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "job": s.job,
                    "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "self": s.self_time(), "size": s.size, "error": s.error,
                    "leaves": s.leaves,
                }) + "\n")


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0  # inclusive
    self_seconds: float = 0.0
    size: float = 0
    sized_calls: int = 0
    errors: int = 0


def totals(spans: list[Span], layer_of: dict[str, str]):
    """Per-probe totals and per-layer self seconds / errors."""
    by_name: dict[str, Totals] = {}
    layer_self = {layer: 0.0 for layer in LAYERS + ("runner",)}
    layer_errors = {layer: 0 for layer in LAYERS}
    for s in spans:
        t = by_name.setdefault(s.name, Totals())
        t.calls += 1
        t.seconds += s.end - s.start
        t.self_seconds += s.self_time()
        t.size += s.size
        t.sized_calls += s.size > 0
        t.errors += s.error
        layer_self[s.layer] += s.self_time()
        if s.layer in layer_errors:
            layer_errors[s.layer] += s.error
        for name, (calls, secs, size, sized, errors) in s.leaves.items():
            t = by_name.setdefault(name, Totals())
            t.calls += calls
            t.seconds += secs
            t.self_seconds += secs
            t.size += size
            t.sized_calls += sized
            t.errors += errors
            layer = layer_of[name]
            layer_self[layer] += secs
            layer_errors[layer] += errors
    return by_name, layer_self, layer_errors


def layer_metrics(spans: list[Span], layer_of: dict[str, str], jobs: int) -> dict:
    """The per-layer metric table, each value a mean per completed job
    (ratios excepted).  Units follow BENCHMARK.json."""
    by_name, layer_self, layer_errors = totals(spans, layer_of)
    per_job = 1.0 / max(jobs, 1)

    def t(name):
        return by_name.get(name, Totals())

    def ms(*names, own=False):
        return sum(t(n).self_seconds if own else t(n).seconds
                   for n in names) * 1e3 * per_job

    def count(name, field="calls"):
        return getattr(t(name), field) * per_job

    mono = t("representation.monomial_matrix")
    product = t("algebra.canonical_product")
    m = {
        "cli.build_parser_ms": ms("cli.build_parser"),
        "cli.main_self_ms": ms("cli.main", own=True),
        "hamiltonian.load_spec_self_ms": ms(
            "hamiltonian.load_spec", "hamiltonian.spec_from_dict",
            "hamiltonian.baxter", own=True),
        "hamiltonian.assemble_calls": count("hamiltonian.assemble"),
        "hamiltonian.assemble_ms": ms("hamiltonian.assemble"),
        "hamiltonian.check_symmetries_ms": ms("hamiltonian.check_symmetries"),
        "algebra.product_calls": count("algebra.canonical_product"),
        "algebra.product_term_pairs": count("algebra.canonical_product", "size"),
        "algebra.product_ms": ms("algebra.canonical_product"),
        "algebra.product_us_per_pair": (
            product.seconds * 1e6 / product.size if product.size else 0.0),
        "algebra.reflect_calls": count("algebra.reflect"),
        "algebra.reflect_terms": count("algebra.reflect", "size"),
        "algebra.reflect_ms": ms("algebra.reflect"),
        "algebra.gauge_apply_ms": ms("algebra.gauge_apply"),
        "algebra.text_ms": ms("algebra.to_text", "algebra.from_text"),
        "exponents.circ_calls": count("exponents.circ"),
        "exponents.circ_ms": ms("exponents.circ"),
        "exponents.add_calls": count("exponents.add"),
        "representation.build_ms": ms("representation.build_generators"),
        "representation.to_matrix_calls": count("representation.to_matrix"),
        "representation.to_matrix_terms": count("representation.to_matrix", "size"),
        "representation.to_matrix_self_ms": ms("representation.to_matrix", own=True),
        "representation.monomial_requests": mono.calls * per_job,
        "representation.monomial_builds": mono.sized_calls * per_job,
        "representation.monomial_hit_ratio": (
            1.0 - mono.sized_calls / mono.calls if mono.calls else 0.0),
        "representation.monomial_ms": ms("representation.monomial_matrix"),
        # Computed, not measured: bytes of complex128 matrices the cache holds.
        "representation.cache_mb": mono.size * 16 / 2**20 * per_job,
        "representation.decompose_monomials": count("representation.decompose", "size"),
        "representation.decompose_self_ms": ms("representation.decompose", own=True),
        "representation.verify_ms": ms("representation.verify_yamazaki"),
        "rp.matrix_exp_calls": count("rp.matrix_exp"),
        "rp.matrix_exp_ms": ms("rp.matrix_exp"),
        "rp.matrix_exp_dim3": count("rp.matrix_exp", "size"),
        "rp.check_rp_probes": count("rp.check_rp", "size"),
        "rp.check_rp_self_ms": ms("rp.check_rp", own=True),
        "rp.gram_entries": count("rp.gram_psd", "size"),
        "rp.gram_self_ms": ms("rp.gram_psd", own=True),
        "rp.bounds_self_ms": ms("rp.rp_bounds_check", own=True),
        "rp.trotter_self_ms": ms("rp.trotter_approximant", "rp.trotter_convergence",
                                 own=True),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layer_self[layer] * 1e3 * per_job
        m[f"{layer}.errors"] = float(layer_errors[layer])
    m["runner.self_ms"] = layer_self["runner"] * 1e3 * per_job
    m["trace.job_ms"] = ms("job")
    m["trace.spans"] = len(spans) * per_job
    return m
