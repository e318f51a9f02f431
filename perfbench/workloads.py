"""Seeded inputs and oracle checks of the three workloads.

A workload is a sequence of rounds.  A round is a list of jobs, and each
job runs in its own fresh interpreter (worker.py), so the package's
caches start cold the way they do for a command line user.  `rounds`
yields the rounds' inputs, drawn from the seeded generator; `check` turns
one timed operation's raw output into outcomes, one per checked result.

An outcome records whether the result met the tolerance it was asked
for (`ok`), whether it is wrong beyond any reading of that tolerance or
the operation raised (`wrong`), its accuracy in decimal digits, and for
eval rows whether the reported `err_est` covers the true error.  A
non-finite result (the program returning nan without raising) misses its
tolerance and has no digits (`finite` is false); it is not counted as
`wrong`, so a silent defect of the program shows in the metrics without
voiding the run.
"""

import cmath
import functools
import itertools
import json
import math
import os

import oracles

DIGITS_CAP = 16.0
# requested of every eval row; a row meets it or misses it
EVAL_REL_TOL = 1e-9
# a numeric result further off than this is wrong, not merely imprecise
SANITY_REL = 5e-2
PDE_SANITY = 1e-2


def digits(rel):
    return min(DIGITS_CAP, max(0.0, -math.log10(max(rel, 10.0 ** -DIGITS_CAP))))


def _outcome(ok, wrong, acc, covers=None, ell=None):
    return {"ok": ok and not wrong, "wrong": wrong, "digits": acc, "covers": covers,
            "ell": ell, "finite": True}


def _nonfinite(ell=None):
    return {"ok": False, "wrong": False, "digits": None, "covers": False, "ell": ell,
            "finite": False}


def _failed(count=1, ell=None):
    return [_outcome(False, True, 0.0, False, ell) for _ in range(count)]


# -- eval-cli --------------------------------------------------------------


def _edge_kappa(rng, dmax):
    # just above the convergence edge 4(dmax-1), fresh for every invocation
    return 4.0 * (dmax - 1) + rng.uniform(0.6, 0.9)


def _rows(rng, count):
    rows = []
    for _ in range(count):
        a = rng.uniform(-2.0, 2.0)
        rows.append((a, a + rng.uniform(0.5, 2.5)))
    return rows


def _eval_argv(head, kappa, rows):
    xs = ";".join(f"{a!r},{b!r}" for a, b in rows)
    return ["eval"] + head + ["--kappa", repr(kappa), f"--x={xs}",
                              "--rel-tol", repr(EVAL_REL_TOL), "--format", "json"]


class EvalCli:
    """`qscreen eval` invocations through cli.main, one per interpreter.

    Every row is checked against a closed form: Selberg x power law for
    hwv_pair rows (ell = m), the Gamma ratio at m = 1, b(1,2,2,8) = pi,
    and the loop-integral oracle for two-point phi at ell <= 2.
    """

    name = "eval-cli"

    def rounds(self, rng):
        while True:
            yield self._round(rng)

    def _round(self, rng):
        jobs = []

        def pair(d1, d2, m, oracle, count, kappa=None):
            kappa = _edge_kappa(rng, max(d1, d2)) if kappa is None else kappa
            rows = _rows(rng, count)
            if oracle == "pi":
                rows = [(a, a + 1.0) for a, _ in rows]
            argv = _eval_argv(["--vector", f"hwv_pair:{d1},{d2},{m}"], kappa, rows)
            spec = {"oracle": oracle, "pair": (d1, d2, m), "kappa": kappa, "rows": rows,
                    "ell": m, "tol": EVAL_REL_TOL}
            jobs.append(({"items": [{"argv": argv}]}, [spec]))

        def loops(dims, l):
            kappa = _edge_kappa(rng, max(dims))
            rows = _rows(rng, 2)
            argv = _eval_argv(["--dims", ",".join(map(str, dims)),
                               "--l", ",".join(map(str, l))], kappa, rows)
            # the loop oracle resolves 5e-8, so that is the finest checkable tolerance
            spec = {"oracle": "contour", "dims": dims, "l": l, "kappa": kappa,
                    "rows": rows, "ell": sum(l),
                    "tol": max(EVAL_REL_TOL, oracles.CONTOUR_RTOL)}
            jobs.append(({"items": [{"argv": argv}]}, [spec]))

        pair(2, 2, 1, "pi", 1, kappa=8.0)
        pair(2, 3, 1, "gamma", 3)
        pair(3, 3, 2, "selberg", 3)
        pair(4, 4, 3, "selberg", 1)
        pair(5, 5, 4, "selberg", 1)
        loops((2, 3), (1, 1))
        loops((2, 3), (0, 2))
        return jobs

    def check(self, spec, op):
        rows = spec["rows"]
        if op["error"] is not None or len(op["out"] or ()) != len(rows):
            return _failed(len(rows), spec["ell"])
        kappa = spec["kappa"]
        outcomes = []
        for (x1, x2), row in zip(rows, op["out"]):
            value = complex(row["re"], row["im"])
            if not cmath.isfinite(value):
                outcomes.append(_nonfinite(spec["ell"]))
                continue
            if spec["oracle"] == "contour":
                ref = oracles.contour_phi(row["x0"], (x1, x2), spec["dims"], spec["l"], kappa)
            elif spec["oracle"] == "pi":
                ref = oracles.pi_value(x1, x2)
            elif spec["oracle"] == "gamma":
                ref = oracles.gamma_ratio_value(*spec["pair"][:2], kappa, x1, x2)
            else:
                ref = oracles.hwv_pair_value(*spec["pair"], kappa, x1, x2)
            error = abs(value - ref)
            rel = error / abs(ref)
            covers = bool(row["err_est"] >= error)
            outcomes.append(_outcome(rel <= spec["tol"], not rel <= SANITY_REL,
                                     digits(rel), covers, spec["ell"]))
        return outcomes


# -- pde-quartet -----------------------------------------------------------

_MAPS = (("translation", (1.0, 3.0, 0.0, 1.0), 1e-8),
         ("scaling", (1.7, 0.0, 0.0, 1.0), 1e-8),
         ("special_conformal", (1.0, 0.0, 0.05, 1.0), 1e-6))
# the tolerances `qscreen verify` and the acceptance tests apply
_PDE_TOL = {"sle": 1e-4, "bsa": 1e-4, "translation": 1e-8, "euler": 1e-8}


def _jittered(rng, gaps):
    x = [rng.uniform(-1.0, 1.0)]
    for g in gaps:
        x.append(x[-1] + g * (1.0 + rng.uniform(-0.05, 0.05)))
    return x


class PdeQuartet:
    """Differential-equation and covariance checks of F on the trivial
    vectors of (2,2,2,2) and (2,2,3), both at ell = 2, one (kappa, x)
    draw per interpreter, with the tolerances of `qscreen verify`."""

    name = "pde-quartet"
    spaces = {"quartet": (2, 2, 2, 2), "triple": (2, 2, 3)}

    def rounds(self, rng):
        while True:
            yield self._round(rng)

    def _round(self, rng):
        kappa = rng.uniform(9.6, 10.4)
        items, specs = [], []

        def add(space, x, kind, tol, **extra):
            items.append(dict(space=space, kappa=kappa, x=x, kind=kind, **extra))
            specs.append({"space": space, "kind": kind, "tol": tol})

        # apply_bsa at j=1 on (2,2,3): the order-3 operator at the d=3 point sits
        # on a finite-difference noise floor near 1e-5 that varies tenfold
        # between neighbouring inputs, too unsteady for acc_digits_min
        for space, gaps, bsa_j in (("quartet", (1.0, 1.0, 2.0), 2), ("triple", (1.0, 1.0), 1)):
            x = _jittered(rng, gaps)
            dims = self.spaces[space]
            if space == "quartet":
                add(space, x, "sle", _PDE_TOL["sle"], j=1)
            add(space, x, "bsa", _PDE_TOL["bsa"], j=bsa_j)
            for _, mu, tol in _MAPS:
                add(space, x, "mobius", tol, mu=mu)
            add(space, x, "translation", _PDE_TOL["translation"])
            degree = -sum(oracles.h_weight(d, kappa) for d in dims)
            add(space, x, "euler", _PDE_TOL["euler"], degree=degree)
        return [({"spaces": self.spaces, "items": items}, specs)]

    def check(self, spec, op):
        if op["error"] is not None:
            return _failed()
        rel = op["out"]
        if not math.isfinite(rel):
            return [_nonfinite()]
        return [_outcome(rel <= spec["tol"], not rel <= PDE_SANITY, digits(rel))]


# -- exact-basis -----------------------------------------------------------

TABLES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tables.json")
# the fingerprint is a float sum of a few thousand terms
TABLE_RTOL = 1e-10


def table_key(dims, d):
    return ",".join(map(str, dims)) + f"/{d}"


def _orders(multiset):
    return sorted(set(itertools.permutations(multiset)))


@functools.cache
def _recorded_tables():
    with open(TABLES_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class ExactBasis:
    """Highest weight bases and the reduction tables of their support, in
    exact q-arithmetic with no quadrature.  Each basis must have the
    Clebsch-Gordan multiplicity as its size, full rank, E.v = 0 and the
    right K eigenvalue on every index; the tables must match the
    fingerprint recorded in tables.json (record_tables.py)."""

    name = "exact-basis"
    fixed = (((3,) * 5, 1), ((2,) * 6, 1), ((3,) * 4, 3))
    # multisets whose factor order the seed picks; the orders' costs differ
    # by up to 1.8x
    seeded = (((2, 2, 2, 3, 3), 2), ((2, 2, 2, 2, 3), 1), ((2, 2, 3, 3), 1))

    def spaces(self):
        """Every space a seed can draw."""
        return list(self.fixed) + [(order, d) for multiset, d in self.seeded
                                   for order in _orders(multiset)]

    def rounds(self, rng):
        # the seed picks the factor orders and the processing order once per
        # run: the rounds of a run repeat the same spaces, each time in a
        # fresh interpreter, so every repetition is cold
        spaces = list(self.fixed) + [(rng.choice(_orders(multiset)), d)
                                     for multiset, d in self.seeded]
        rng.shuffle(spaces)
        items = [{"dims": list(dims), "d": d} for dims, d in spaces]
        while True:
            yield [({"items": items}, [{"dims": dims, "d": d} for dims, d in spaces])]

    def _tables_ok(self, dims, d, got):
        want = _recorded_tables().get(table_key(dims, d))
        return (want is not None and got["entries"] == want["entries"]
                and abs(complex(*got["sum"]) - complex(*want["sum"]))
                <= TABLE_RTOL * want["scale"])

    def check(self, spec, op):
        if op["error"] is not None:
            return _failed()
        out, dims, d = op["out"], spec["dims"], spec["d"]
        good = (out["size"] == oracles.cg_multiplicity(dims, d)
                and out["rank"] == out["size"]
                and out["e_kills"]
                and all(oracles.weight_ok(dims, d, idx) for idx in out["support"])
                and self._tables_ok(dims, d, out["tables"]))
        return [_outcome(good, not good, DIGITS_CAP if good else 0.0)]


WORKLOADS = {w.name: w for w in (EvalCli(), PdeQuartet(), ExactBasis())}
