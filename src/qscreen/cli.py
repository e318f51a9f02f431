"""Batch front end: evaluate functions, run verification suites, dump bases.

Configuration comes from an optional key=value file plus command line
flags; flags win.  Evaluation rows carry the quadrature's own absolute
error estimate; a row whose integrals cannot meet rel_tol stops the run
with exit status 3.  Verification reports are JSON with per-check
tolerances and measured values; the exit status is zero exactly when
every check passed.
"""

import argparse
import csv
import io
import itertools
import json
import sys
from dataclasses import dataclass, replace

from .coulomb import (
    ChamberPoint,
    QuadratureSpec,
    contour_phi_oracle,
    eval_stats,
    h_weight,
)
from .correspondence import (
    F_hwv,
    asymptotics_check,
    default_anchor,
    general_asymptotics_check,
    infinity_limit,
    phi,
    reduction_coeffs,
)
from .pde import (
    FdScheme,
    apply_bsa,
    build_bsa,
    euler_check,
    mobius_check,
    sle_pde_check,
    sle_proportionality_check,
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
)

SUITES = ("qg", "reduction", "pde", "cov", "asy", "infinity", "cyclic", "all")


@dataclass(frozen=True)
class RunConfig:
    """Parsed settings shared by all commands.

    tol, when set, multiplies every upper tolerance in the verification
    suites; x0 None means the automatic anchor.
    """

    command: str = ""
    kappa: float = 8.0
    dims: tuple = ()
    vector: str = ""
    l: tuple = ()
    x: tuple = ()
    x0: float = None
    d: int = 1
    rel_tol: float = 1e-9
    tol: float = None
    seed: int = 2026
    out: str = ""
    format: str = "csv"

    def quadrature(self):
        return QuadratureSpec(rel_tol=self.rel_tol)


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


def _parse_format(text):
    t = text.strip().lower()
    if t not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, not {text!r}")
    return t


_PARSERS = {
    "kappa": float,
    "dims": _parse_ints,
    "vector": str,
    "l": _parse_ints,
    "x": _parse_rows,
    "x0": _parse_anchor,
    "d": int,
    "rel_tol": float,
    "tol": float,
    "seed": int,
    "out": str,
    "format": _parse_format,
}


def load_config(path):
    """Parse a key=value file; '#' starts a comment, unknown keys fail."""
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
            if key not in _PARSERS:
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
    |weight * prefactor| * estimate over its integrals.
    """
    if not config.x:
        raise ValueError("no evaluation points given (key x)")
    if bool(config.vector) == bool(config.l):
        raise ValueError("give either a vector spec or screening counts l, not both")
    quad = config.quadrature()
    if config.l:
        if not config.dims:
            raise ValueError("screening evaluation needs dims")
        dims = tuple(config.dims)
        label = "l=" + ",".join(str(k) for k in config.l)
    else:
        v = vector_from_spec(config.vector, config.dims)
        dims = v.space.dims
        label = "v=" + config.vector
    rows = []
    for pts in config.x:
        with eval_stats() as stats:
            if config.l:
                anchor = config.x0 if config.x0 is not None else default_anchor(pts)
                c = ChamberPoint(anchor, pts)
                value = complex(phi(c, dims, config.l, config.kappa, quad))
            else:
                value = complex(F_hwv(v, pts, config.kappa, quad, x0=config.x0))
                anchor = config.x0
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
        + ["re", "im", "err_est"]
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
        )
    return buf.getvalue()


# -- verify ----------------------------------------------------------------


def _check(name, measured, tolerance, direction="below"):
    measured = float(measured)
    if direction == "below":
        passed = measured <= tolerance
    else:
        passed = measured >= tolerance
    return {
        "name": name,
        "tolerance": tolerance,
        "measured": measured,
        "passed": passed,
        "direction": direction,
    }


def _scaled(config, tolerance):
    return tolerance if config.tol is None else tolerance * config.tol


def _qg_checks(config):
    checks = []
    defects = 0
    for n in range(7):
        for k in range(n + 1):
            if qbinom(n, k) * qfact(k) * qfact(n - k) != qfact(n):
                defects += 1
    checks.append(_check("qg.binomial_factorials", defects, 0.0))
    defects = 0
    for n in range(1, 7):
        if qint(2) * qint(n) != qint(n + 1) + qint(n - 1):
            defects += 1
    checks.append(_check("qg.integer_recurrence", defects, 0.0))
    defects = 0
    for parts in ((1, 2), (2, 2, 1), (0, 3, 2)):
        prod = qmultinom(sum(parts), parts)
        for p in parts:
            prod = prod * qfact(p)
        if prod != qfact(sum(parts)):
            defects += 1
    checks.append(_check("qg.multinomial_factorials", defects, 0.0))
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
    checks.append(_check("qg.module_relations", defects, 0.0))
    return checks


def _reduction_checks(config):
    kappa = 10.0
    quad = config.quadrature()
    cases = (
        (ChamberPoint(-0.6, (0.5,)), (2,), (1,)),
        (ChamberPoint(-0.7, (0.0, 1.1)), (2, 2), (1, 1)),
        (ChamberPoint(-0.7, (0.0, 1.1)), (2, 3), (0, 2)),
    )
    worst = 0.0
    for c, dims, l in cases:
        got = phi(c, dims, l, kappa, quad)
        want = contour_phi_oracle(c, dims, l, kappa)
        worst = max(worst, abs(got - want) / abs(want))
    checks = [_check("reduction.contour_oracle", worst, _scaled(config, 1e-6))]
    defects = 0
    for dims, l in (((2, 2), (2, 0)), ((2, 3), (1, 3))):
        if phi(ChamberPoint(-0.7, (0.0, 1.1)), dims, l, kappa, quad) != 0:
            defects += 1
        if reduction_coeffs(dims, l).entries:
            defects += 1
    checks.append(_check("reduction.vanishing", defects, 0.0))
    # building any small table runs the exact closed-form comparison
    reduction_coeffs((2, 3), (1, 2))
    reduction_coeffs((3,), (2,))
    checks.append(_check("reduction.closed_form_gate", 0, 0.0))
    return checks


def _pde_checks(config):
    kappa = 10.0
    quad = config.quadrature()
    v = hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)[0]
    ev = lambda y: F_hwv(v, y, kappa, quad)
    x = (0.0, 1.0, 2.0, 4.0)
    worst = 0.0
    for j in (1, 2):
        residual, scale = sle_pde_check(ev, x, kappa, j)
        worst = max(worst, abs(residual) / scale)
    checks = [_check("pde.growth_process_equation", worst, _scaled(config, 1e-4))]
    deviation = sle_proportionality_check(x, kappa, 2, seed=config.seed)
    checks.append(
        _check("pde.operator_proportionality", deviation, _scaled(config, 1e-8))
    )
    op = build_bsa(2, (2, 3, 2), kappa)
    residual, scale = apply_bsa(
        op, vertex_prefactor((2, 3, 2), kappa), (0.0, 1.0, 2.5), FdScheme(h=1e-2)
    )
    checks.append(
        _check("pde.vertex_prefactor_null", abs(residual) / scale, _scaled(config, 1e-6))
    )
    return checks


def _cov_checks(config):
    kappa = 10.0
    quad = config.quadrature()
    v = hwv_space_basis(TensorSpace((2, 2, 2, 2)), 1)[0]
    x = (-1.5, -0.5, 0.5, 1.5)
    checks = [
        _check(
            "cov.translation",
            mobius_check(v, (1.0, 3.0, 0.0, 1.0), x, kappa, quad)["deviation"],
            _scaled(config, 1e-8),
        ),
        _check(
            "cov.scaling",
            mobius_check(v, (1.7, 0.0, 0.0, 1.0), x, kappa, quad)["deviation"],
            _scaled(config, 1e-8),
        ),
        _check(
            "cov.special_conformal",
            mobius_check(v, (1.0, 0.0, 0.05, 1.0), x, kappa, quad)["deviation"],
            _scaled(config, 1e-6),
        ),
    ]
    ev = lambda y: F_hwv(v, y, kappa, quad)
    grid = (0.0, 1.0, 2.0, 4.0)
    residual, scale = translation_check(ev, grid)
    checks.append(
        _check("cov.translation_generator", abs(residual) / scale, _scaled(config, 1e-8))
    )
    residual, scale = euler_check(ev, grid, -4.0 * h_weight(2, kappa))
    checks.append(
        _check("cov.euler_generator", abs(residual) / scale, _scaled(config, 1e-8))
    )
    worst = max(
        special_conformal_identity_check((2, 2), seed=config.seed),
        special_conformal_identity_check((3, 3), seed=config.seed),
    )
    checks.append(_check("cov.rational_identity", worst, _scaled(config, 1e-9)))
    control = special_conformal_identity_check(
        (2, 2), seed=config.seed, perturbation=1e-3
    )
    checks.append(
        _check("cov.rational_identity_sensitivity", control, 1e-4, direction="above")
    )
    return checks


def _asy_checks(config):
    kappa = 10.0
    quad = config.quadrature()
    report = asymptotics_check(hwv_pair(2, 2, 1), 1, 1, kappa, quad)
    checks = [
        _check(
            "asy.pair_exponent",
            abs(report["exponent"] - report["exponent_ref"]),
            _scaled(config, 1e-3),
        ),
        _check(
            "asy.pair_constant",
            abs(report["ratios"][-1] / report["reference"] - 1.0),
            _scaled(config, 1e-2),
        ),
    ]
    tau = hwv_space_basis(TensorSpace((2, 2, 2)), 2)[0]
    report = general_asymptotics_check(tau, 1, 3, 2, (0.0, 0.4, 1.0), kappa, quad)
    checks.append(
        _check(
            "asy.block_collapse",
            abs(report["ratios"][1] / report["reference"] - 1.0),
            _scaled(config, 2e-2),
        )
    )
    return checks


def _infinity_checks(config):
    quad = config.quadrature()
    worst = 0.0
    for side in ("plus", "minus"):
        report = infinity_limit(hwv_pair(2, 2, 1), side, 8.0, quad)
        worst = max(worst, report["relative_errors"][-1])
    checks = [_check("infinity.two_point", worst, _scaled(config, 2e-2))]
    w = hwv_space_basis(TensorSpace((2, 2, 3)), 1)[0]
    report = infinity_limit(w, "plus", 10.0, quad)
    checks.append(
        _check(
            "infinity.three_point",
            report["relative_errors"][-1],
            _scaled(config, 2e-2),
        )
    )
    return checks


def _cyclic_checks(config):
    defects = 0
    for dims, expo in (((2, 2), -2), ((3, 3), -4), ((2, 2, 2, 2), -4)):
        if cyclic_constant(TensorSpace(dims)) != QScalar.q_power(expo):
            defects += 1
    return [_check("cyclic.rotation_scalar", defects, 0.0)]


_SUITE_BUILDERS = {
    "qg": _qg_checks,
    "reduction": _reduction_checks,
    "pde": _pde_checks,
    "cov": _cov_checks,
    "asy": _asy_checks,
    "infinity": _infinity_checks,
    "cyclic": _cyclic_checks,
}


def cmd_verify(config, suite):
    """Run the named suite; returns the process exit status."""
    names = SUITES[:-1] if suite == "all" else (suite,)
    checks = []
    for name in names:
        checks.extend(_SUITE_BUILDERS[name](config))
    checks.sort(key=lambda c: c["name"])
    report = {
        "suite": suite,
        "kappa": config.kappa,
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
        text = "".join(line + "\n" for line in lines)
    _emit(text, config.out)
    return lines


# -- plumbing --------------------------------------------------------------


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _add_flags(parser):
    parser.add_argument("--config", help="key=value file, '#' starts a comment")
    for key in _PARSERS:
        parser.add_argument("--" + key.replace("_", "-"))


def _config_from_args(args):
    values = {}
    if args.config:
        values.update(load_config(args.config))
    for key in _PARSERS:
        raw = getattr(args, key)
        if raw is None:
            continue
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ValueError(f"flag --{key.replace('_', '-')}: {exc}")
    return replace(RunConfig(command=args.command), **values)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qscreen",
        description="evaluate covariant boundary functions and run checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_eval = sub.add_parser("eval", help="evaluate a function on chamber points")
    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_dump = sub.add_parser("dump-basis", help="print a highest weight basis")
    for p in (p_eval, p_verify, p_dump):
        _add_flags(p)
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "eval":
            cmd_eval(config)
            return 0
        if args.command == "verify":
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
