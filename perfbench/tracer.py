"""Layer-boundary tracing installed from outside the package.

Only the traced run installs it.  Calls that cross a layer boundary get a
span (name, start, end, parent span, operation id); hot exact primitives
get a call counter and accumulated time but no span, so the trace held
in memory stays bounded.  Modules that import a function by name hold
their own reference to it, so each importing namespace is wrapped.  A
name that the package no longer defines is recorded as absent and never
fails the run.  Cache statistics come from `cache_info()` only.
"""

import functools
import importlib
from collections import defaultdict
from time import perf_counter


def _ell(*args, **kwargs):
    # rho(c, dims, m, ...): the span name carries the number of screening variables
    m = args[2] if len(args) > 2 else kwargs.get("m")
    return f"l{sum(getattr(m, 'counts', m))}"


# (span name, attribute, modules whose namespace holds a reference, tag)
_SPANS = (
    ("correspondence.F_hwv", "F_hwv", ("correspondence", "pde", "cli"), None),
    ("correspondence.tilde_rho", "tilde_rho", ("correspondence", "coulomb"), None),
    ("coulomb.rho", "rho", ("coulomb",), _ell),
    ("correspondence.reduction_coeffs", "reduction_coeffs", ("correspondence", "cli"), None),
    ("uqsl2.hwv_space_basis", "hwv_space_basis", ("uqsl2", "cli"), None),
    ("pde.check.sle", "sle_pde_check", ("pde",), None),
    ("pde.check.bsa", "apply_bsa", ("pde",), None),
    ("pde.check.mobius", "mobius_check", ("pde",), None),
    ("pde.check.translation", "translation_check", ("pde",), None),
    ("pde.check.euler", "euler_check", ("pde",), None),
)
_COUNTERS = (
    ("uqsl2.act", "act", ("uqsl2", "correspondence", "cli")),
    ("qseries.eval_q", "eval_q", ("qseries", "coulomb", "correspondence")),
)
# (counter prefix, module, cached function)
_CACHES = (
    ("correspondence.rho_cache", "correspondence", "_rho_tilde"),
    ("coulomb.rule", "coulomb", "_unit_rule_build"),
)


class Tracer:
    """Spans and counters of one interpreter; `totals` sums them by name."""

    def __init__(self):
        self.spans = []
        self.totals = defaultdict(float)
        self.absent = []
        self.op = None
        self.enabled = True
        self._open = []
        self._covered = []

    def span(self, name, fn, tag=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            full = name
            if tag is not None:
                try:
                    full = f"{name}.{tag(*args, **kwargs)}"
                except (TypeError, IndexError):
                    pass
            parent = self._open[-1] if self._open else None
            record = [full, perf_counter(), None, parent, self.op]
            self._open.append(len(self.spans))
            self._covered.append(0.0)
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()
                children = self._covered.pop()
                duration = record[2] - record[1]
                totals = self.totals
                totals[full + ".calls"] += 1
                totals[full + ".s"] += duration
                totals[full + ".self_s"] += duration - children
                if self.op is not None:
                    totals["trace.op_self_s"] += duration - children
                if parent is not None:
                    self._covered[-1] += duration
                    totals[f"{self.spans[parent][0]}>{name}"] += 1

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.totals[name + ".calls"] += 1
                self.totals[name + ".s"] += perf_counter() - start

        return wrapper

    def cache_counts(self):
        """Current hits and misses of the package's caches, by prefix."""
        out = {}
        for prefix, module, attr in _CACHES:
            fn = getattr(importlib.import_module("qscreen." + module), attr, None)
            info = getattr(fn, "cache_info", None)
            if info is None:
                continue
            stats = info()
            out[prefix] = (stats.hits, stats.misses)
        return out

    def add_cache_delta(self, before, after):
        for prefix, (hits, misses) in after.items():
            h0, m0 = before.get(prefix, (0, 0))
            self.totals[prefix + ".hits"] += hits - h0
            self.totals[prefix + ".misses"] += misses - m0


def install(tracer):
    """Wrap the layer boundaries of the imported package in place."""
    mods = {
        name: importlib.import_module("qscreen." + name)
        for name in ("cli", "correspondence", "coulomb", "pde", "qseries", "uqsl2")
    }

    def patch(name, attr, holders, make):
        wrapped = {}
        found = False
        for holder in holders:
            original = getattr(mods[holder], attr, None)
            if original is None:
                continue
            found = True
            if id(original) not in wrapped:
                wrapped[id(original)] = make(original)
            setattr(mods[holder], attr, wrapped[id(original)])
        if not found:
            tracer.absent.append(name)

    for name, attr, holders, tag in _SPANS:
        patch(name, attr, holders, lambda fn, n=name, t=tag: tracer.span(n, fn, t))
    for name, attr, holders in _COUNTERS:
        patch(name, attr, holders, lambda fn, n=name: tracer.counter(n, fn))
    qscalar = getattr(mods["qseries"], "QScalar", None)
    if qscalar is None:
        tracer.absent.append("qseries.qscalar")
    else:
        qscalar.__init__ = tracer.counter("qseries.qscalar", qscalar.__init__)
    present = tracer.cache_counts()
    tracer.absent.extend(p for p, _, _ in _CACHES if p not in present)
