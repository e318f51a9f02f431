"""Oracle-checked benchmark of qscreen.

    python3 perfbench/run.py --workload eval-cli --seed 1 --seconds 15 --trace 0

Run from the root of a checkout that holds `src/qscreen`.  One client in
a closed loop: rounds of the workload run one after another, each job of
a round in a fresh interpreter, until --seconds of wall time have passed
(whole rounds only).  Every result is checked against an independent
oracle.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics untraced, the
per-layer metrics with --trace 1.  A traced run replays the same rounds
with the layer wrappers installed, after running them untraced, so the
tracing overhead is measured on identical inputs.  See README.md.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
# worker.calibrate() on the 2-core machine the benchmark was defined on;
# timings are reported at this reference speed, because the host's speed
# drifts by up to a quarter over minutes
CAL_REFERENCE_S = 0.007
JOB_TIMEOUT_S = 170
# one client with one thread; numpy's thread pools stay at one thread
WORKER_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")
LAYER_KINDS = ("sle", "bsa", "mobius", "translation", "euler")


def run_job(wl, payload, trace):
    """Run one job in a fresh interpreter; returns (result, spawn wall time)."""
    job = dict(payload, workload=wl.name, trace=bool(trace))
    spawned = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), stdout=subprocess.PIPE, text=True, cwd=ROOT, env=WORKER_ENV,
        timeout=JOB_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def measure(wl, rng, seconds):
    """Whole rounds until `seconds` of wall time have passed; returns the
    rounds, each a list of (payload, specs, result), and the set-up times."""
    rounds, setups = [], []
    source = wl.rounds(rng)
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        jobs = []
        for payload, specs in next(source):
            result, spawned = run_job(wl, payload, False)
            setups.append(scaled_setup_seconds(result["setup_end"] - spawned, result))
            jobs.append((payload, specs, result))
        rounds.append(jobs)
    # set-up is sampled several times per run and reported as a median
    while len(setups) < SETUP_SAMPLES:
        result, spawned = run_job(wl, dict(rounds[0][0][0], items=[]), False)
        setups.append(scaled_setup_seconds(result["setup_end"] - spawned, result))
    return rounds, setups


def scaled_op_seconds(result):
    """Each operation's seconds at the reference speed: scaled by the ratio
    of the reference calibration to the mean of the calibrations just
    before, during and just after it."""
    cal = result["cal"]
    out = []
    for n, op in enumerate(result["ops"]):
        speed = [cal[n]] + op["cal"] + [cal[n + 1]]
        out.append(op["s"] * CAL_REFERENCE_S * len(speed) / sum(speed))
    return out


def scaled_seconds(jobs):
    return sum(sum(scaled_op_seconds(result)) for _, _, result in jobs)


def scaled_setup_seconds(setup, result):
    return setup * CAL_REFERENCE_S / result["cal"][0]


def _label(spec):
    return json.dumps({k: v for k, v in spec.items() if k not in ("rows", "tol")})


def outcomes_of(wl, jobs, show=False):
    """Check every operation; with show, print each result that missed."""
    out = []
    for _, specs, result in jobs:
        for spec, op in zip(specs, result["ops"]):
            checked = wl.check(spec, op)
            out.extend(checked)
            for o in checked:
                if show and not o["ok"]:
                    kind = "wrong" if o["wrong"] else "missed tolerance"
                    acc = "nan" if o["digits"] is None else f"{o['digits']:.2f}"
                    print(f"{kind}: {_label(spec)} digits {acc}"
                          + (f" ({op['error']})" if op["error"] else ""))
    return out


def timed_seconds(jobs):
    return sum(op["s"] for _, _, result in jobs for op in result["ops"])


def end_to_end(wl, outcomes, jobs, setups):
    ok = sum(o["ok"] for o in outcomes)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scaled = scaled_seconds(jobs)
    cal = [c for _, _, result in jobs
           for c in result["cal"] + [s for op in result["ops"] for s in op["cal"]]]
    print(f"timed {timed_seconds(jobs):.3f} s as measured, {scaled:.3f} s at the"
          f" reference speed; calibration median {statistics.median(cal):.5f} s")
    return {
        "ok_per_s": (ok / scaled, "1/s"),
        "ok_frac": (ok / len(outcomes), "frac"),
        "acc_digits_min": (min(finite_digits(outcomes), default=0.0), "digits"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def finite_digits(outcomes, ell=None):
    return [o["digits"] for o in outcomes
            if o["finite"] and (ell is None or o["ell"] == ell)]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(wl, outcomes, plain, traced, rounds):
    """Layer totals of the traced jobs, per round."""
    t = {}
    for _, _, result in traced:
        for key, value in result["totals"].items():
            t[key] = t.get(key, 0.0) + value
    g = lambda key: t.get(key, 0.0)  # noqa: E731
    per = lambda key: g(key) / rounds  # noqa: E731
    vector_rows = sum(1 for _, specs, _ in traced for s in specs
                      if "pair" in s for _ in s["rows"])
    rows = [o for o in outcomes if o["ell"] is not None]
    m = {
        "cli.eval.fhwv_per_row": (_ratio(g("cli.eval>correspondence.F_hwv"), vector_rows), "count"),
        "cli.eval.self_s": (per("cli.eval.self_s"), "s"),
        "cli.eval.err_est_covers_frac": (_ratio(sum(o["covers"] for o in rows), len(rows)),
                                         "frac"),
        "cli.eval.nonfinite_frac": (_ratio(sum(not o["finite"] for o in rows), len(rows)),
                                    "frac"),
        "correspondence.F_hwv.calls": (per("correspondence.F_hwv.calls"), "count"),
        "correspondence.F_hwv.self_s": (per("correspondence.F_hwv.self_s"), "s"),
        "correspondence.tilde_rho.calls": (per("correspondence.tilde_rho.calls"), "count"),
        "correspondence.rho_cache.hit_frac": (
            _ratio(g("correspondence.rho_cache.hits"),
                   g("correspondence.rho_cache.hits") + g("correspondence.rho_cache.misses")),
            "frac"),
        "correspondence.reduction_coeffs.calls": (
            per("correspondence.reduction_coeffs.calls"), "count"),
        "correspondence.reduction_coeffs.s": (per("correspondence.reduction_coeffs.s"), "s"),
    }
    for ell in (1, 2, 3, 4):
        m[f"coulomb.rho.calls.l{ell}"] = (per(f"coulomb.rho.l{ell}.calls"), "count")
        m[f"coulomb.rho.s.l{ell}"] = (per(f"coulomb.rho.l{ell}.s"), "s")
        m[f"coulomb.rho.digits.l{ell}"] = (min(finite_digits(outcomes, ell), default=0.0),
                                          "digits")
    m["coulomb.rule.builds"] = (per("coulomb.rule.misses"), "count")
    m["coulomb.rule.hit_frac"] = (
        _ratio(g("coulomb.rule.hits"), g("coulomb.rule.hits") + g("coulomb.rule.misses")),
        "frac")
    for kind in LAYER_KINDS:
        calls = g(f"pde.check.{kind}.calls")
        m[f"pde.evals_per_check.{kind}"] = (
            _ratio(g(f"pde.check.{kind}>correspondence.F_hwv"), calls), "count")
        m[f"pde.s_per_check.{kind}"] = (_ratio(g(f"pde.check.{kind}.s"), calls), "s")
    m["pde.check.self_s"] = (
        sum(per(f"pde.check.{kind}.self_s") for kind in LAYER_KINDS), "s")
    m["uqsl2.hwv_space_basis.s"] = (per("uqsl2.hwv_space_basis.s"), "s")
    m["uqsl2.act.calls"] = (per("uqsl2.act.calls"), "count")
    m["qseries.qscalar.ops"] = (per("qseries.qscalar.calls"), "count")
    m["qseries.qscalar.s"] = (per("qseries.qscalar.s"), "s")
    m["qseries.eval_q.calls"] = (per("qseries.eval_q.calls"), "count")
    m["trace.overhead_frac"] = (scaled_seconds(traced) / scaled_seconds(plain) - 1.0, "frac")
    # the spans also cover the calibration samples taken inside operations
    gross = timed_seconds(traced) + sum(op["sampling_s"] for _, _, result in traced
                                        for op in result["ops"])
    m["trace.accounted_frac"] = (_ratio(g("trace.op_self_s"), gross), "frac")
    return m


def report_trace(wl, traced, directory):
    """Write the spans of a traced run and print the figures that compare
    with the hand-measured baseline."""
    os.makedirs(directory, exist_ok=True)
    spans = [{"job": n, "spans": result["spans"]} for n, (_, _, result) in enumerate(traced)]
    with open(os.path.join(directory, "spans.json"), "w", encoding="utf-8") as handle:
        json.dump(spans, handle)
    absent = sorted({name for _, _, result in traced for name in result["absent"]})
    if absent:
        print("absent from the package, reported as 0: " + ", ".join(absent))
    for payload, specs, result in traced:
        by_op = {}
        for name, start, end, _parent, op in result["spans"]:
            if op is not None:
                by_op.setdefault(op, []).append((name, end - start))
        for n, (spec, op) in enumerate(zip(specs, result["ops"])):
            label = _label(spec)
            parts = {}
            for name, sec in by_op.get(n, ()):
                count, total = parts.get(name, (0, 0.0))
                parts[name] = (count + 1, total + sec)
            detail = ", ".join(f"{name} {c}x {s:.3f}s" for name, (c, s) in sorted(parts.items()))
            print(f"{wl.name} op {label}: {op['s']:.3f}s; {detail}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qscreen", "__init__.py")):
        print(f"error: no qscreen package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    broken = oracles.self_test()
    if broken:
        print("error: oracle self-test failed: " + ", ".join(broken), file=sys.stderr)
        return 3

    wl = workloads.WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    rounds, setups = measure(wl, rng, args.seconds)
    plain = [job for jobs in rounds for job in jobs]
    outcomes = outcomes_of(wl, plain, show=not args.trace)
    correct = not any(o["wrong"] for o in outcomes)
    if args.trace:
        traced = [(payload, specs, run_job(wl, payload, True)[0])
                  for payload, specs, _ in plain]
        outcomes = outcomes_of(wl, traced, show=True)
        metrics = per_layer(wl, outcomes, plain, traced, len(rounds))
        report_trace(wl, traced, os.path.join(ROOT, ".perfbench-out",
                                              f"{args.workload}-seed{args.seed}"))
    else:
        metrics = end_to_end(wl, outcomes, plain, setups)
    failed = sum(o["wrong"] for o in outcomes)
    missed = sum(not o["ok"] for o in outcomes)
    print(f"{wl.name}: {len(rounds)} rounds, {len(outcomes)} results,"
          f" {missed} missed their tolerance, {failed} wrong or raised")
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
