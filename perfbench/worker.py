"""One round of a workload in a fresh interpreter.

Reads a job (JSON) on stdin and writes one JSON line on stdout: the wall
clock at the end of set-up, the raw output and seconds of every timed
operation, the calibration samples, and, when traced, the layer totals
and spans.  The program's caches start cold because the interpreter is
new.  Results are compared with the oracles by the parent; here only the
exact checks of `exact-basis` run, after the operation's clock has
stopped.
"""

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
from qscreen import cli, correspondence, pde, uqsl2  # noqa: E402
import tracer as tracing  # noqa: E402


def _eval_setup(job, tracer):
    main = cli.main if tracer is None else tracer.span("cli.eval", cli.main)

    def run(item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = main(item["argv"])
        if status != 0:
            raise RuntimeError(f"qscreen eval exited with status {status}")
        return json.loads(buf.getvalue())

    return run, None


def _pde_setup(job, tracer):
    vectors = {
        name: uqsl2.hwv_space_basis(uqsl2.TensorSpace(tuple(dims)), 1)[0]
        for name, dims in job["spaces"].items()
    }

    def run(item):
        v = vectors[item["space"]]
        kappa, x = item["kappa"], tuple(item["x"])

        def ev(y):
            return correspondence.F_hwv(v, y, kappa)

        kind = item["kind"]
        if kind == "sle":
            residual, scale = pde.sle_pde_check(ev, x, kappa, item["j"])
        elif kind == "bsa":
            op = pde.build_bsa(item["j"], v.space.dims, kappa)
            residual, scale = pde.apply_bsa(op, ev, x)
        elif kind == "mobius":
            return pde.mobius_check(v, tuple(item["mu"]), x, kappa)["deviation"]
        elif kind == "translation":
            residual, scale = pde.translation_check(ev, x)
        else:
            residual, scale = pde.euler_check(ev, x, item["degree"])
        return abs(residual) / scale

    return run, None


# a generic point of the unit circle, far from the roots of unity
_Q = complex(np.exp(0.731j))


def _weight(idx, m):
    """A pseudo-random point of the unit circle fixed by (support index, assignment)."""
    digest = hashlib.sha256(repr((tuple(idx), tuple(m))).encode()).digest()
    return cmath.exp(2j * math.pi * int.from_bytes(digest[:8], "big") / 2.0 ** 64)


def table_fingerprint(support, tables):
    """The reduction tables of a space in one complex number: the sum of
    every coefficient at q = _Q times the weight of its (index, assignment),
    with the number of entries and the sum of the coefficients' moduli."""
    total, scale, count = 0j, 0.0, 0
    for idx, table in zip(support, tables):
        for m, coeff in table.entries.items():
            value = coeff.eval(_Q)
            total += value * _weight(idx, m)
            scale += abs(value)
            count += 1
    return {"entries": count, "sum": [total.real, total.imag], "scale": scale}


def _rank(basis):
    support = sorted({idx for v in basis for idx in v.coeffs})
    mat = np.array([[v.coeffs[i].eval(_Q) if i in v.coeffs else 0.0 for i in support]
                    for v in basis], dtype=complex)
    return int(np.linalg.matrix_rank(mat))


def _exact_setup(job, tracer):
    def run(item):
        dims, d = tuple(item["dims"]), item["d"]
        basis = uqsl2.hwv_space_basis(uqsl2.TensorSpace(dims), d)
        support = sorted({idx for v in basis for idx in v.coeffs})
        tables = [correspondence.reduction_coeffs(dims, idx) for idx in support]
        return {"basis": basis, "support": support, "tables": tables}

    def check(out):
        # exact checks through the package's own generator action; the
        # parent compares the basis size with the Clebsch-Gordan count and
        # the tables' fingerprint with the recorded one
        basis = out.pop("basis")
        out["e_kills"] = all(uqsl2.act("E", v).is_zero() for v in basis)
        out["size"] = len(basis)
        out["rank"] = _rank(basis) if basis else 0
        out["tables"] = table_fingerprint(out["support"], out["tables"])
        out["support"] = [list(idx) for idx in out["support"]]
        return out

    return run, check


# 1.6 MB arrays, which live in the shared L3 cache, and 128 KB ones, which
# fit the core's own L2 cache
_CAL_LARGE = (np.linspace(0.1, 1.0, 200_000), np.empty(200_000), np.empty(200_000))
_CAL_SMALL = (np.linspace(0.1, 1.0, 16384), np.empty(16384), np.empty(16384))


def _powers(x, a, b):
    np.power(x, 0.37, out=a)
    np.power(x, 1.21, out=b)
    np.multiply(a, b, out=a)
    return a.sum()


def _kernel():
    """Seconds of a fixed piece of work that allocates no array: numpy
    power kernels on the large arrays once and on the small ones six
    times, then Python integer and dict arithmetic, so that it slows down
    with the host the way both the quadrature and the exact arithmetic do."""
    start = time.perf_counter()
    _powers(*_CAL_LARGE)
    for _ in range(6):
        _powers(*_CAL_SMALL)
    acc, table = 0, {}
    for i in range(6000):
        acc += math.gcd(i * 7919, 104729)
        table[i & 255] = table.get(i & 255, 0) + acc
    return time.perf_counter() - start


def calibrate():
    """The host's current speed: the median of three kernel runs after an
    untimed one, which brings the kernel's data back into the cache
    whatever the program left there."""
    _kernel()
    return sorted(_kernel() for _ in range(3))[1]


class Sampler:
    """Calibrates once a second from a timer signal while an operation
    runs, so a long operation is scaled by the speed the host had during
    it.  `spent` is the time the samples took, which the operation's time
    excludes."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1.0, 1.0)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return False


_SETUPS = {"eval-cli": _eval_setup, "pde-quartet": _pde_setup, "exact-basis": _exact_setup}


def main():
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    run, check = _SETUPS[job["workload"]](job, tracer)
    result = {"setup_end": time.time(), "ops": []}
    # the host's speed drifts; calibrations after set-up, during and after
    # every operation let the parent express times at a fixed reference speed
    result["cal"] = [calibrate()]
    if tracer is not None:
        caches_before = tracer.cache_counts()
    for n, item in enumerate(job["items"]):
        if tracer is not None:
            tracer.op = n
        with Sampler() as sampler:
            start = time.perf_counter()
            try:
                out, error = run(item), None
            except Exception as exc:  # an operation that raises counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start - sampler.spent
        if tracer is not None:
            tracer.op = None
            tracer.enabled = False
        if out is not None and check is not None:
            out = check(out)
        if tracer is not None:
            tracer.enabled = True
        result["ops"].append({"out": out, "error": error, "s": seconds,
                              "cal": sampler.samples, "sampling_s": sampler.spent})
        result["cal"].append(calibrate())
    if tracer is not None:
        tracer.add_cache_delta(caches_before, tracer.cache_counts())
        result["totals"] = dict(tracer.totals)
        result["absent"] = tracer.absent
        result["spans"] = tracer.spans
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
