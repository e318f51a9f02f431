"""Batch front end: evaluate functions, run verification suites, dump bases.

Configuration comes from an optional key=value file plus command line
flags; flags win.  Each command accepts exactly the keys it reads
(_COMMAND_KEYS): any other key, as a flag or as a file line, exits with
status 2.  A small reader takes the one grammar the commands have, with
no argparse to import or build: the command, then in any order
--config and the command's keys as --key value or --key=value (the
last one given wins; a value may start with a single "-"), verify's one
suite, and -h or --help.  It writes the help and the usage errors
itself, in argparse's layout at 80 columns; help exits 0 and a usage
error 2.  Evaluation rows carry the quadrature's own absolute
error estimate; a row whose integrals cannot meet rel_tol, or that
vanishes within its estimate, stops the run with exit status 3.
Each verification suite lists its checks as rows (name, computation,
tolerance[, "above"]), and one function runs, times and scales them all.
Verification reports are JSON with per-check tolerances, measured values
and seconds, and the operator checks also report their evaluator calls;
the exit status is zero exactly when every check passed.
"""

import csv
import io
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from types import SimpleNamespace

from .coulomb import ChamberPoint, contour_phi_oracle, eval_stats, h_weight
from .correspondence import (
    F_anchor,
    F_hwv,
    _closed_form_entries,
    _general_entries,
    asymptotics_check,
    default_anchor,
    infinity_limit,
    phi,
    reduction_coeffs,
)
from .pde import (
    apply_bsa,
    build_bsa,
    euler_check,
    mobius_check,
    sle_pde_check,
    sle_proportionality_check,
    special_conformal_check,
    special_conformal_identity_check,
    translation_check,
    vertex_prefactor,
)
from .qseries import QScalar, qbinom, qfact, qint, qmultinom
from .uqsl2 import (
    Q_COMM,
    TensorSpace,
    TensorVector,
    act,
    cyclic_constant,
    hwv_pair,
    hwv_space_basis,
    project,
)

@dataclass(frozen=True)
class RunConfig:
    """Parsed settings of every command; each command reads only its own
    keys (_COMMAND_KEYS) and leaves the others at their defaults.

    tol multiplies every upper ("below") tolerance of the verification
    suites; it is positive and finite, so an exact check's 0 stays 0.
    x0 is the anchor of eval's l rows, None meaning the automatic one;
    vector rows refuse one, as a highest weight vector's F has none.
    """

    kappa: float = 8.0
    dims: tuple = ()
    vector: str = ""
    l: tuple = ()
    x: tuple = ()
    x0: float = None
    d: int = 1
    rel_tol: float = 1e-9
    tol: float = 1.0
    seed: int = 2026
    out: str = ""
    format: str = "csv"


def _parse_ints(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def _parse_point(text):
    return tuple(float(p) for p in text.split(","))


def _parse_rows(text):
    return tuple(_parse_point(part) for part in text.split(";") if part.strip())


def _parse_anchor(text):
    if text.strip().lower() == "auto":
        return None
    return float(text)


def _parse_positive_finite(text):
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError("must be positive and finite")
    return value


def _parse_format(text):
    t = text.strip().lower()
    if t not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, not {text!r}")
    return t


_PARSERS = {
    "kappa": _parse_positive_finite,
    "dims": _parse_ints,
    "vector": str,
    "l": _parse_ints,
    "x": _parse_rows,
    "x0": _parse_anchor,
    "d": int,
    "rel_tol": _parse_positive_finite,
    "tol": _parse_positive_finite,
    "seed": int,
    "out": str,
    "format": _parse_format,
}

# the keys each command reads, in the order its --help lists them
_COMMAND_KEYS = {
    "eval": ("kappa", "dims", "vector", "l", "x", "x0", "rel_tol", "out", "format"),
    "verify": ("rel_tol", "tol", "seed", "out"),
    "dump-basis": ("dims", "d", "out", "format"),
}


def load_config(path, keys):
    """Parse a key=value file; '#' starts a comment, and a key outside
    keys fails with its path:line."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
            try:
                values[key] = _PARSERS[key](value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for '{key}': {exc}")
    return values


def vector_from_spec(spec, dims=()):
    """Build a tensor vector from a text description.

    Forms: 'hwv_pair:d1,d2,m'; 'hwv:d,k' for the k-th highest weight
    basis vector of the d summand; 'trivial:k'; 'basis:l_1,..,l_n'; and
    'coeffs:l_1,..,l_n=c;..' with integer coefficients.  All but the
    first need dims.
    """
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"vector spec {spec!r} needs the form kind:arguments")
    if kind == "hwv_pair":
        args = _parse_ints(rest)
        if len(args) != 3:
            raise ValueError(f"hwv_pair wants d1,d2,m, got {rest!r}")
        if dims and tuple(dims) != args[:2]:
            raise ValueError(f"dims {dims} disagree with the pair {args[:2]}")
        return hwv_pair(*args)
    if not dims:
        raise ValueError(f"vector spec {spec!r} needs dims")
    space = TensorSpace(dims)
    if kind == "basis":
        return TensorVector.basis(space, _parse_ints(rest))
    if kind in ("hwv", "trivial"):
        if kind == "trivial":
            d, k = 1, int(rest)
        else:
            args = _parse_ints(rest)
            if len(args) != 2:
                raise ValueError(f"hwv wants d,k, got {rest!r}")
            d, k = args
        basis = hwv_space_basis(space, d)
        if not 0 <= k < len(basis):
            raise ValueError(
                f"summand d={d} of {space.dims} has {len(basis)} basis vectors"
            )
        return basis[k]
    if kind == "coeffs":
        coeffs = {}
        for entry in rest.split(";"):
            lhs, sep2, rhs = entry.partition("=")
            if not sep2:
                raise ValueError(f"coeffs entry {entry!r} needs index=integer")
            coeffs[_parse_ints(lhs)] = QScalar.from_int(int(rhs))
        return TensorVector(space, coeffs)
    raise ValueError(f"unknown vector spec kind {kind!r}")


# -- eval ------------------------------------------------------------------


def cmd_eval(config):
    """Evaluate the configured function at every chamber row.

    Returns the rows and writes them in the configured format.  err_est
    is the quadrature's own absolute error estimate of the row: the sum of
    |weight| * estimate over its integrals.  nodes, grids and passes count
    what the quadrature summed for the row, as its eval_stats() block
    does.  A row whose modulus does not exceed a nonzero err_est vanishes
    within it, and raises ArithmeticError before any row is written.
    """
    if not config.x:
        raise ValueError("no evaluation points given (key x)")
    if bool(config.vector) == bool(config.l):
        raise ValueError("give either a vector spec or screening counts l, not both")
    if config.l:
        if not config.dims:
            raise ValueError("screening evaluation needs dims")
        dims = tuple(config.dims)
        label = "l=" + ",".join(str(k) for k in config.l)
    else:
        if config.x0 is not None:
            raise ValueError(
                "--x0 applies to --l rows only: the F of a highest weight"
                " vector does not depend on the anchor"
            )
        v = vector_from_spec(config.vector, config.dims)
        dims = v.space.dims
        label = "v=" + config.vector
    rows = []
    for pts in config.x:
        with eval_stats() as stats:
            if config.l:
                anchor = config.x0 if config.x0 is not None else default_anchor(pts)
                c = ChamberPoint(anchor, pts)
                value = complex(phi(c, dims, config.l, config.kappa, config.rel_tol))
            else:
                value = complex(F_hwv(v, pts, config.kappa, config.rel_tol))
                anchor = None
        # pde._estimated_F's test; an exact zero, with no estimate, still prints
        if stats.err_est > 0 and not abs(value) > stats.err_est:
            raise ArithmeticError(
                f"the row at {tuple(pts)} vanishes within its error estimate:"
                f" |value| = {abs(value):.2e} does not exceed the estimate {stats.err_est:.2e}"
            )
        rows.append(
            {
                "kappa": config.kappa,
                "dims": dims,
                "config": label,
                "x0": anchor,
                "x": tuple(pts),
                "re": value.real,
                "im": value.imag,
                "err_est": stats.err_est,
                "nodes": stats.nodes,
                "grids": stats.grid_evals,
                "passes": stats.passes,
            }
        )
    _emit(format_rows(rows, config.format), config.out)
    return rows


def format_rows(rows, fmt):
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    n = len(rows[0]["x"]) if rows else 0
    writer.writerow(
        ["kappa", "dims", "config", "x0"]
        + [f"x_{i + 1}" for i in range(n)]
        + ["re", "im", "err_est", "nodes", "grids", "passes"]
    )
    for r in rows:
        writer.writerow(
            [
                repr(r["kappa"]),
                ",".join(str(d) for d in r["dims"]),
                r["config"],
                "auto" if r["x0"] is None else repr(r["x0"]),
            ]
            + [repr(xi) for xi in r["x"]]
            + [repr(r["re"]), repr(r["im"]), repr(r["err_est"])]
            + [str(r[key]) for key in ("nodes", "grids", "passes")]
        )
    return buf.getvalue()


# -- verify ----------------------------------------------------------------


def _check(config, name, measure, tolerance, direction="below"):
    """The report of one check: measure() is its computation, run inside
    one eval_stats() block that times it and counts the evaluator calls of
    its operator checks (reported as evals when there are any).  A "below"
    tolerance is an upper bound, multiplied by config.tol; an "above" one
    is a lower bound and stays as given."""
    if direction == "below":
        tolerance *= config.tol
    start = time.perf_counter()
    with eval_stats() as stats:
        measured = float(measure())
    seconds = time.perf_counter() - start
    passed = measured <= tolerance if direction == "below" else measured >= tolerance
    report = {
        "name": name,
        "tolerance": tolerance,
        "measured": measured,
        "passed": passed,
        "direction": direction,
        "seconds": seconds,
    }
    if stats.evals:
        report["evals"] = stats.evals
    return report


def _relative(check):
    residual, scale = check
    return abs(residual) / scale


def _qg_checks(config):
    def binomial_factorials():
        return sum(qbinom(n, k) * qfact(k) * qfact(n - k) != qfact(n)
                   for n in range(7) for k in range(n + 1))

    def integer_recurrence():
        return sum(qint(2) * qint(n) != qint(n + 1) + qint(n - 1) for n in range(1, 7))

    def multinomial_factorials():
        defects = 0
        for parts in ((1, 2), (2, 2, 1), (0, 3, 2)):
            prod = qmultinom(sum(parts), parts)
            for p in parts:
                prod = prod * qfact(p)
            if prod != qfact(sum(parts)):
                defects += 1
        return defects

    def module_relations():
        space = TensorSpace((2, 3))
        defects = 0
        for idx in itertools.product(*(range(d) for d in space.dims)):
            v = TensorVector.basis(space, idx)
            if act("K", act("E", v)) != act("E", act("K", v)).scale(QScalar.q_power(2)):
                defects += 1
            if act("K", act("F", v)) != act("F", act("K", v)).scale(QScalar.q_power(-2)):
                defects += 1
            w = sum(d - 1 - 2 * li for d, li in zip(space.dims, idx))
            comm = act("E", act("F", v)) - act("F", act("E", v))
            scalar = (QScalar.q_power(w) - QScalar.q_power(-w)) / Q_COMM
            if comm != v.scale(scalar):
                defects += 1
        return defects

    return [
        ("qg.binomial_factorials", binomial_factorials, 0.0),
        ("qg.integer_recurrence", integer_recurrence, 0.0),
        ("qg.multinomial_factorials", multinomial_factorials, 0.0),
        ("qg.module_relations", module_relations, 0.0),
    ]


def _reduction_checks(config):
    kappa = 10.0

    def contour_oracle():
        cases = (
            (ChamberPoint(-0.6, (0.5,)), (2,), (1,)),
            (ChamberPoint(-0.7, (0.0, 1.1)), (2, 2), (1, 1)),
            (ChamberPoint(-0.7, (0.0, 1.1)), (2, 3), (0, 2)),
        )
        worst = 0.0
        for c, dims, l in cases:
            got = phi(c, dims, l, kappa, config.rel_tol)
            want = contour_phi_oracle(c, dims, l, kappa)
            worst = max(worst, abs(got - want) / abs(want))
        return worst

    def vanishing():
        defects = 0
        for dims, l in (((2, 2), (2, 0)), ((2, 3), (1, 3))):
            if phi(ChamberPoint(-0.7, (0.0, 1.1)), dims, l, kappa, config.rel_tol) != 0:
                defects += 1
            if reduction_coeffs(dims, l).entries:
                defects += 1
        return defects

    def closed_form_gate():
        # the recursion's one- and two-group tables against the closed
        # forms coded apart from it, for d 1..5 and l 0..4: the number
        # of tables that differ
        cases = [((d,), (l,)) for d in range(1, 6) for l in range(5)]
        cases += [((d1, d2), (l1, l2)) for d1, d2, l1, l2
                  in itertools.product(range(1, 6), range(1, 6), range(5), range(5))]
        return sum(_general_entries(dims, l) != _closed_form_entries(dims, l)
                   for dims, l in cases)

    return [
        ("reduction.contour_oracle", contour_oracle, 1e-6),
        ("reduction.vanishing", vanishing, 0.0),
        ("reduction.closed_form_gate", closed_form_gate, 0.0),
    ]


def _pde_checks(config):
    kappa = 10.0
    v = hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)[0]
    ev = lambda y: F_hwv(v, y, kappa, config.rel_tol)
    x = (0.0, 1.0, 2.0, 4.0)

    def growth():
        return max(_relative(sle_pde_check(ev, x, kappa, j)) for j in (1, 2))

    def vertex_null():
        op = build_bsa(2, (2, 3, 2), kappa)
        return _relative(apply_bsa(op, vertex_prefactor((2, 3, 2), kappa), (0.0, 1.0, 2.5)))

    def d3_operators():
        # the order-3 operators at d = 3 points, on third-order jets of F.
        # F_hwv fills a trivial F at three points from its value alone, so
        # the (2,2,3) case reads F_anchor's jets at a fixed anchor, every
        # point through the quadrature
        anchored = lambda w, z: F_anchor(w, ChamberPoint(-1.0, z), kappa, config.rel_tol)
        hwv = lambda w, z: F_hwv(w, z, kappa, config.rel_tol)
        worst = 0.0
        cases = ((1, (3, 2, 2, 3), x, hwv), (3, (2, 2, 3, 3), x, hwv),
                 (3, (2, 2, 3), (0.0, 1.0, 2.5), anchored))
        for j, dims, y, f in cases:
            w = hwv_space_basis(TensorSpace(dims), 1)[0]
            op = build_bsa(j, dims, kappa)
            worst = max(worst, _relative(apply_bsa(op, lambda z, w=w, f=f: f(w, z), y)))
        return worst

    def d4_operator():
        # the order-4 operator at a d = 4 point, at kappa = 14 and a fixed
        # rel_tol of 1e-6: at 1e-9 it sums about four times the nodes
        dims = (4, 2, 2, 4)
        w = hwv_space_basis(TensorSpace(dims), 1)[0]
        f = lambda z: F_hwv(w, z, 14.0, 1e-6)
        return _relative(apply_bsa(build_bsa(1, dims, 14.0), f, x))

    return [
        ("pde.bsa_at_d3_points", d3_operators, 1e-8),
        ("pde.bsa_at_d4_point", d4_operator, 1e-8),
        ("pde.growth_process_equation", growth, 1e-8),
        ("pde.operator_proportionality",
         lambda: sle_proportionality_check(x, kappa, 2, seed=config.seed), 1e-11),
        ("pde.vertex_prefactor_null", vertex_null, 1e-12),
    ]


def _cov_checks(config):
    kappa = 10.0
    rel_tol = config.rel_tol
    v = hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)[0]
    x = (-1.5, -0.5, 0.5, 1.5)

    def mobius(mu):
        return lambda: mobius_check(v, mu, x, kappa, rel_tol)["deviation"]

    grid = (0.0, 1.0, 2.0, 4.0)
    # F_hwv fills its jets from the Ward identities, so on it every
    # generator holds by construction; F_anchor at a fixed anchor carries
    # every direction through rho's jet series.  rho's nodes sit in
    # gap-scaled unit coordinates, so its jets obey translation and Euler
    # whatever the quadrature's steps: those generators guard the jet
    # series (log_series, exp_series, product) and rho's reading of
    # differences, not the quadrature's error.  The special conformal one
    # holds only for the sum of the terms, so it also reads their weights
    ev = lambda y: F_anchor(v, ChamberPoint(-1.0, y), kappa, rel_tol)
    weights = (h_weight(2, kappa),) * len(grid)

    def rational_identity():
        return max(
            special_conformal_identity_check((2, 2), seed=config.seed),
            special_conformal_identity_check((3, 3), seed=config.seed),
        )

    return [
        # rho reads differences of the points only and puts its nodes in
        # gap-scaled unit coordinates, so no shift reaches the quadrature:
        # this guards that it reads differences only.  A shift of e,
        # unlike a small integer, at least rounds the differences
        ("cov.translation", mobius((1.0, math.e, 0.0, 1.0)), 1e-8),
        ("cov.scaling", mobius((1.7, 0.0, 0.0, 1.0)), 1e-8),
        ("cov.special_conformal", mobius((1.0, 0.0, 0.05, 1.0)), 1e-8),
        ("cov.translation_generator", lambda: _relative(translation_check(ev, grid)), 1e-8),
        ("cov.euler_generator",
         lambda: _relative(euler_check(ev, grid, -4.0 * h_weight(2, kappa))), 1e-8),
        ("cov.special_conformal_generator",
         lambda: _relative(special_conformal_check(ev, grid, weights)), 1e-8),
        ("cov.rational_identity", rational_identity, 1e-9),
        ("cov.rational_identity_sensitivity",
         lambda: special_conformal_identity_check((2, 2), seed=config.seed, perturbation=1e-3),
         1e-4, "above"),
    ]


def _asy_checks(config):
    kappa = 10.0

    # both pair checks read one report: the first is timed with it
    @lru_cache(maxsize=None)
    def pair():
        return asymptotics_check(hwv_pair(2, 2, 1), 1, 2, 1, (0.0, 1.0), kappa, config.rel_tol)

    def block_collapse():
        tau = hwv_space_basis(TensorSpace((2, 2, 2)), 2)[0]
        report = asymptotics_check(tau, 1, 3, 2, (0.0, 0.4, 1.0), kappa, config.rel_tol)
        return abs(report["ratios"][1] / report["reference"] - 1.0)

    # the checks above collapse every point of their vector, so F is an
    # exact power of the separation and they read only homogeneity; the
    # two below keep points outside the pair, so their reference holds a
    # fusion constant times the collapsed F of other points
    def constant(v, d):
        report = asymptotics_check(v, 1, 2, d, (0.0, 1.0), kappa, config.rel_tol)
        return abs(report["ratios"][-1] / report["reference"] - 1.0)

    def four_point_pair():
        # hwv_pair(2, 2, 1) on (x_1, x_2) times hwv_pair(2, 2, 1) on (x_3, x_4)
        half = hwv_pair(2, 2, 1).coeffs.items()
        v = TensorVector(TensorSpace((2, 2, 2, 2)),
                         {a + b: ca * cb for a, ca in half for b, cb in half})
        return constant(v, 1)

    def d3_channel():
        # the d = 3 images under the pair (x_1, x_2) of the trivial vectors
        images = (project(w, 1, 3)[0] for w in hwv_space_basis(TensorSpace((3, 3, 2, 2)), 1))
        return max(constant(pi, 3) for pi in images if not pi.is_zero())

    return [
        ("asy.pair_exponent", lambda: abs(pair()["exponent"] - pair()["exponent_ref"]), 1e-8),
        ("asy.pair_constant", lambda: abs(pair()["ratios"][-1] / pair()["reference"] - 1.0), 1e-8),
        ("asy.block_collapse", block_collapse, 1e-8),
        ("asy.four_point_pair", four_point_pair, 1e-8),
        ("asy.d3_channel", d3_channel, 1e-8),
    ]


def _infinity_checks(config):
    def worst(dims, kappa):
        # both sides of the first trivial vector
        v = hwv_space_basis(TensorSpace(dims), 1)[0]
        return max(infinity_limit(v, side, kappa, config.rel_tol)["relative_error"]
                   for side in ("plus", "minus"))

    return [
        ("infinity.two_point", lambda: worst((2, 2), 8.0), 1e-8),
        ("infinity.three_point", lambda: worst((2, 2, 3), 10.0), 1e-8),
        ("infinity.four_point", lambda: worst((3, 2, 2, 3), 10.0), 1e-8),
    ]


def _cyclic_checks(config):
    def rotation_scalar():
        return sum(cyclic_constant(TensorSpace(dims)) != QScalar.q_power(expo)
                   for dims, expo in (((2, 2), -2), ((3, 3), -4), ((2, 2, 2, 2), -4)))

    return [("cyclic.rotation_scalar", rotation_scalar, 0.0)]


_SUITE_BUILDERS = {
    "qg": _qg_checks,
    "reduction": _reduction_checks,
    "pde": _pde_checks,
    "cov": _cov_checks,
    "asy": _asy_checks,
    "infinity": _infinity_checks,
    "cyclic": _cyclic_checks,
}
SUITES = (*_SUITE_BUILDERS, "all")


def cmd_verify(config, suite):
    """Run the named suite; returns the process exit status."""
    names = _SUITE_BUILDERS if suite == "all" else (suite,)
    checks = [_check(config, *row) for name in names for row in _SUITE_BUILDERS[name](config)]
    checks.sort(key=lambda c: c["name"])
    report = {
        "suite": suite,
        "seed": config.seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    _emit(json.dumps(report, indent=2) + "\n", config.out)
    return 0 if report["passed"] else 1


# -- dump-basis ------------------------------------------------------------


def cmd_dump_basis(config):
    """Print the highest weight basis of the d summand over dims."""
    if not config.dims:
        raise ValueError("dump-basis needs dims")
    basis = hwv_space_basis(TensorSpace(config.dims), config.d)
    lines = [str(v) for v in basis]
    if config.format == "json":
        text = (
            json.dumps(
                {
                    "dims": list(config.dims),
                    "d": config.d,
                    "count": len(lines),
                    "basis": lines,
                },
                indent=2,
                ensure_ascii=False,
            )
            + "\n"
        )
    else:
        # one row per nonzero coefficient: the vector's position in the
        # basis (hwv:d,k) and the basis index l_1,..,l_n (basis:...)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["vector", "index", "coefficient"])
        for k, v in enumerate(basis):
            for idx in sorted(v.coeffs):
                writer.writerow([k, ",".join(map(str, idx)), repr(v.coeffs[idx])])
        text = buf.getvalue()
    _emit(text, config.out)
    return lines


# -- plumbing --------------------------------------------------------------


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _config_from_args(args, keys):
    values = {}
    if args.config:
        values.update(load_config(args.config, keys))
    for key in keys:
        raw = getattr(args, key)
        if raw is None:
            continue
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ValueError(f"flag --{key.replace('_', '-')}: {exc}")
    return replace(RunConfig(), **values)


_COMMANDS = (("eval", "evaluate a function on chamber points"),
             ("verify", "run a verification suite"),
             ("dump-basis", "print a highest weight basis"))
_CHOICES = "{" + ",".join(name for name, _ in _COMMANDS) + "}"
_SUITE_CHOICES = "{" + ",".join(SUITES) + "}"
_TOP_HELP = "".join([
    f"usage: qscreen [-h] {_CHOICES} ...\n\n",
    "evaluate covariant boundary functions and run checks\n\n",
    f"positional arguments:\n  {_CHOICES}\n",
    *(f"    {name:<20}{text}\n" for name, text in _COMMANDS),
    "\noptions:\n  -h, --help            show this help message and exit\n",
])
# help and usage are laid out for 80 columns, as argparse lays them out
_WIDTH = 78


def _flag(key):
    return "--" + key.replace("_", "-")


def _usage(command):
    """The usage line(s) of one command: the flags wrap under its name,
    and verify's suite takes a line of its own once they wrap."""
    prog = f"usage: qscreen {command}"
    flags = ["[-h]", "[--config CONFIG]"]
    flags += [f"[{_flag(key)} {key.upper()}]" for key in _COMMAND_KEYS[command]]
    suite = [_SUITE_CHOICES] if command == "verify" else []
    line = " ".join([prog, *flags, *suite])
    if len(line) <= _WIDTH:
        return line
    indent = " " * (len(prog) + 1)
    lines = [prog]
    for word in flags:
        if len(lines[-1]) + 1 + len(word) > _WIDTH:
            lines.append(indent + word)
        else:
            lines[-1] += " " + word
    return "\n".join(lines + [indent + word for word in suite])


def _command_help(command):
    rows = [("-h, --help", "show this help message and exit"),
            ("--config CONFIG", "key=value file, '#' starts a comment")]
    rows += [(f"{_flag(key)} {key.upper()}", "") for key in _COMMAND_KEYS[command]]
    heads = [head for head, _ in rows]
    text = _usage(command) + "\n\n"
    if command == "verify":
        heads.append(_SUITE_CHOICES)
        text += f"positional arguments:\n  {_SUITE_CHOICES}\n\n"
    # the help text starts two columns after the longest head, at most at 24
    col = min(max(map(len, heads)) + 4, 24)
    text += "options:\n"
    return text + "".join(f"  {head:<{col - 2}}{help_}\n" if help_ else f"  {head}\n"
                          for head, help_ in rows)


def _fail(command, message):
    """Write the usage of a command, of qscreen itself when None, and the
    message to stderr, and exit 2."""
    if command is None:
        usage, prog = _TOP_HELP.partition("\n")[0], "qscreen"
    else:
        usage, prog = _usage(command), f"qscreen {command}"
    sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _read_flags(command, words):
    """The words after a command, read in order: -h or --help prints the
    command's help and exits 0; --key value and --key=value set --config
    or a key of the command, the last one given winning; verify's first
    word that does not start with "-" names its suite.  Every other word
    is unrecognized.  A flag with no value, a suite outside SUITES, no
    suite or an unrecognized word prints the usage and an error and
    exits 2.  Returns the values by name, None where a flag is not given,
    and the suite."""
    names = {"--config": "config", **{_flag(key): key for key in _COMMAND_KEYS[command]}}
    values = dict.fromkeys(names.values())
    suite, extras = None, []
    i = 0
    while i < len(words):
        word = words[i]
        i += 1
        if word in ("-h", "--help"):
            sys.stdout.write(_command_help(command))
            raise SystemExit(0)
        name, eq, value = word.partition("=")
        if name in names:
            if not eq:
                # the next word, unless there is none or it is a flag
                if i == len(words) or words[i].startswith("--") or words[i] == "-h":
                    _fail(command, f"argument {name}: expected one argument")
                value = words[i]
                i += 1
            values[names[name]] = value
        elif command == "verify" and suite is None and not word.startswith("-"):
            if word not in SUITES:
                choices = ", ".join(repr(s) for s in SUITES)
                _fail(command, f"argument suite: invalid choice: {word!r} (choose from {choices})")
            suite = word
        else:
            extras.append(word)
    if command == "verify" and suite is None:
        _fail(command, "the following arguments are required: suite")
    if extras:
        _fail(command, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values, suite=suite)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        sys.stdout.write(_TOP_HELP)
        raise SystemExit(0)
    if command is None:
        _fail(None, "the following arguments are required: command")
    if command not in _COMMAND_KEYS:
        choices = ", ".join(repr(name) for name, _ in _COMMANDS)
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    args = _read_flags(command, argv[1:])
    try:
        config = _config_from_args(args, _COMMAND_KEYS[command])
        if command == "eval":
            cmd_eval(config)
            return 0
        if command == "verify":
            return cmd_verify(config, args.suite)
        cmd_dump_basis(config)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
