#!/usr/bin/env python3
"""Benchmark of the omegalie toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload (workloads.py, BENCHMARK.json)
is built from the seed, set up repeatedly (``setup_s`` is the median of
the package's import, timed in a fresh interpreter, plus the building of
the workload's inputs), warmed up, and run as a closed loop with one
client: the next item starts when the previous one has finished, in whole
passes over the workload's items until ``--seconds`` of item time has been
measured.  Every
output is checked against a reference; an item whose output is wrong or
that raises counts as failed.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  With ``--trace 1`` the run alternates untraced passes with passes
traced by wrapping every function of the package (tracer.py), prints each
module's share of self time, writes the spans to perfbench/out/, and ends
with the per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-ups made before each untraced pass; one more follows the last pass
SETUPS_PER_PASS = 2
WARMUP_S = 1.0
IMPORT_PROBES = 5
MAX_REPORTED_FAILURES = 5
MODULES = (
    "linalg", "algebras", "representations", "bialgebra", "yang_baxter",
    "operators", "solver", "reports", "bundles", "cli",
)


class Runner:
    """Runs items in a seeded order, times each call, checks each output."""

    def __init__(self, items, seed):
        self.items = list(items)
        random.Random(seed).shuffle(self.items)
        self.attempted = 0
        self.failed = 0
        self.tallies = Counter()
        self.sequence = 0  # index of the next item run, across passes

    def run_item(self, item, tracer=None):
        self.attempted += 1
        if tracer is not None:
            tracer.current_item = self.sequence
        self.sequence += 1
        t0 = perf_counter()
        try:
            out = item.call()
        except Exception:
            dt = perf_counter() - t0
            self._fail(item, traceback.format_exc())
            return dt
        finally:
            if tracer is not None:
                tracer.current_item = -1
        dt = perf_counter() - t0
        try:
            ok = item.check(out, self.tallies)
        except Exception:
            ok = False
            self._fail(item, traceback.format_exc())
        else:
            if not ok:
                self._fail(item, "output does not match its reference\n")
        return dt

    def _fail(self, item, detail):
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {item.label} (dim {item.dim}): {detail}", file=sys.stderr, end="")

    def warm_up(self):
        start = perf_counter()
        for item in self.items:
            self.run_item(item)
            if perf_counter() - start >= WARMUP_S:
                break
        self.tallies.clear()

    def one_pass(self, tracer=None):
        """Every item once; returns (item, seconds) per item."""
        return [(item, self.run_item(item, tracer)) for item in self.items]


def busy(durations):
    return sum(dt for _, dt in durations)


def ms(durations):
    return [dt * 1e3 for _, dt in durations]


def end_to_end(durations, setup_times, children):
    times = ms(durations)
    # ru_maxrss is in KiB on Linux; for children it is the largest child's peak
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return {
        "items_per_s": (len(times) / busy(durations), "1/s"),
        "item_ms_p50": (statistics.median(times), "ms"),
        "item_ms_p90": (statistics.quantiles(times, n=10)[-1], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MiB"),
    }


def import_s(modules, env):
    """Seconds a fresh interpreter spends importing ``modules``, not
    counting its own start."""
    code = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    )
    return float(proc.stdout)


def probe_ms(code, env):
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, capture_output=True)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def per_layer(workload, runner, tracer, untraced, traced, passes, env):
    """Per-layer metrics.  Times (ms) and counts are per pass over the
    workload's items unless the name says otherwise; ``…ms_p50`` figures
    are medians over the untraced calls of one kind."""
    summary = tracer.summary()
    none = (0, 0.0, 0.0)

    def calls(name):
        return summary.get(name, none)[0] / passes

    def self_ms(*names):
        return sum(summary.get(n, none)[2] for n in names) / passes * 1e3

    def p50(label, dim=None):
        times = [dt * 1e3 for item, dt in untraced if item.label == label and dim in (None, item.dim)]
        return statistics.median(times) if times else 0.0

    module_self = Counter()
    for name, (_, _, own) in summary.items():
        module_self[name.split(".", 1)[0]] += own
    traced_s = busy(traced)

    m = {f"{mod}.self_ms": (module_self[mod] / passes * 1e3, "ms") for mod in MODULES}
    m.update({f"{mod}.self_share": (100.0 * module_self[mod] / traced_s, "%") for mod in MODULES})
    m["other.self_share"] = (100.0 * (traced_s - tracer.root_time()) / traced_s, "%")

    if workload.name == "cli":
        interpreter = probe_ms("pass", env)
        m["cli.interpreter_ms"] = (interpreter, "ms")
        m["cli.import_ms"] = (probe_ms("import omegalie.cli", env) - interpreter, "ms")
        m["cli.numpy_import_ms"] = (probe_ms("import numpy", env) - interpreter, "ms")
        traced_items = {seq for seq in tracer.item}

        def bundle_p50(predicate):
            per_item = tracer.outermost_time(predicate)
            return statistics.median(per_item.get(seq, 0.0) * 1e3 for seq in traced_items)
    else:
        m["cli.interpreter_ms"] = m["cli.import_ms"] = m["cli.numpy_import_ms"] = (0.0, "ms")

        def bundle_p50(predicate):
            return 0.0

    m["cli.run_ms_p50"] = (p50("cli.run"), "ms")
    m["bundles.parse_ms_p50"] = (bundle_p50(lambda n: n.startswith(("bundles.parse_", "bundles.load_path"))), "ms")
    m["bundles.emit_ms_p50"] = (bundle_p50(lambda n: n.startswith("bundles.") and n.endswith(("_doc", ".dumps"))), "ms")

    m["algebras.check_omega_lie.self_ms"] = (self_ms("algebras.check_omega_lie"), "ms")
    for n in (4, 6, 8):
        m[f"algebras.check_omega_lie.n{n}.ms_p50"] = (p50("check_omega_lie", n), "ms")
    for fn in ("check_generalized", "check_lsa", "admissible_subspace"):
        m[f"algebras.{fn}.self_ms"] = (self_ms(f"algebras.{fn}"), "ms")

    for fn in ("yb_residual", "solution_conditions"):
        m[f"yang_baxter.{fn}.self_ms"] = (self_ms(f"yang_baxter.{fn}"), "ms")
        m[f"yang_baxter.{fn}.n8.ms_p50"] = (p50(fn, 8), "ms")
    for fn in ("ad_x_t3", "dual_structure_from_r"):
        m[f"yang_baxter.{fn}.self_ms"] = (self_ms(f"yang_baxter.{fn}"), "ms")

    for fn in ("adjoint_pair", "generalized_dual_pair", "check_gen_rep"):
        m[f"representations.{fn}.self_ms"] = (self_ms(f"representations.{fn}"), "ms")
    m["representations.check_gen_rep.calls"] = (calls("representations.check_gen_rep"), "count")

    pairs = sum(1 for item in runner.items if item.label == "dual_pair")
    m["bialgebra.dual_pair.calls_per_pair"] = (calls("bialgebra.dual_pair") / pairs if pairs else 0.0, "count")
    for fn in ("dual_pair", "check_mult_bialgebra", "check_matched_pair", "check_manin_triple",
               "check_invariant_form", "double_bracket"):
        m[f"bialgebra.{fn}.self_ms"] = (self_ms(f"bialgebra.{fn}"), "ms")

    m["linalg.rref.calls"] = (calls("linalg.rref"), "count")
    m["linalg.rref.self_ms"] = (self_ms("linalg.rref"), "ms")
    m["linalg.nullspace.self_ms"] = (self_ms("linalg.nullspace"), "ms")
    m["linalg.Matrix.matmul.calls"] = (calls("linalg.Matrix.__matmul__"), "count")
    m["linalg.Matrix.matmul.self_ms"] = (self_ms("linalg.Matrix.__matmul__"), "ms")
    m["linalg.Matrix.apply.calls"] = (calls("linalg.Matrix.apply"), "count")

    m["reports.violations"] = (calls("reports.Clause.add"), "count")
    m["reports.Clause.add.self_ms"] = (self_ms("reports.Clause.add"), "ms")
    m["reports.to_document.self_ms"] = (
        self_ms("reports.Report.to_document", "reports.Clause.to_document", "reports.Violation.to_document"), "ms",
    )

    restarts = calls("solver.minimize") * getattr(workload, "RESTARTS", 0)
    minimize_ms = summary.get("solver.minimize", none)[1] / passes * 1e3
    m["solver.build_problem.self_ms"] = (self_ms("solver.build_problem"), "ms")
    m["solver.minimize.ms_per_restart"] = (minimize_ms / restarts if restarts else 0.0, "ms")
    m["solver.residual_evals"] = (calls("solver.residual_tensor"), "count")
    m["solver.jacobian_evals"] = (calls("solver.residual_jacobian"), "count")
    m["solver.rationalize_verify.self_ms"] = (self_ms("solver.rationalize_verify"), "ms")
    # tallies cover the untraced and the traced passes alike
    certified, requests = runner.tallies["certified"], runner.tallies["requests"]
    m["solver.certified"] = (certified / (2 * passes), "count")
    m["solver.certified_share"] = (100.0 * certified / requests if requests else 0.0, "%")

    m["trace.overhead"] = (100.0 * (traced_s / busy(untraced) - 1.0), "%")
    m["trace.spans"] = (tracer.span_count / passes, "count")
    m["trace.items_per_pass"] = (float(len(runner.items)), "count")
    return m, module_self


def print_shares(name, module_self, tracer, traced_s, passes, overhead):
    print(f"self time by module, workload {name}, {passes} traced passes "
          f"(tracing overhead {overhead:+.1f}% against the untraced passes):")
    for mod in sorted(MODULES, key=lambda mod: -module_self[mod]):
        print(f"  {mod:<18} {100.0 * module_self[mod] / traced_s:6.2f}%  {module_self[mod] * 1e3 / passes:10.1f} ms/pass")
    other = traced_s - tracer.root_time()
    print(f"  {'(outside package)':<18} {100.0 * other / traced_s:6.2f}%  {other * 1e3 / passes:10.1f} ms/pass")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "omegalie" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} does not hold src/omegalie and tests/oracles.py", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

    import omegalie
    from tracer import Tracer
    from workloads import WORKLOADS, package_env

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    env = package_env()

    setup_times = []

    def set_up():
        """The package's import in a fresh interpreter, then the inputs built in this one."""
        imported = import_s(workload.IMPORTS, env)
        t0 = perf_counter()
        inputs = workload.setup()
        setup_times.append(imported + perf_counter() - t0)
        return inputs

    inputs = set_up()
    runner = Runner(workload.traced_items(inputs) if args.trace else workload.items(inputs), args.seed)
    runner.warm_up()

    if not args.trace:
        # Set-ups are spread over the run, between passes, so that setup_s
        # is taken over the same stretch of machine speed as the item times.
        durations = []
        while not durations or busy(durations) < args.seconds:
            for _ in range(SETUPS_PER_PASS):
                set_up()
            durations += runner.one_pass()
        set_up()
        metrics = end_to_end(durations, setup_times, children=workload.name == "cli")
    else:
        # alternate so that drift in machine speed hits both sides alike
        tracer = Tracer(omegalie, MODULES)
        untraced, traced, passes = [], [], 0
        while passes == 0 or busy(untraced) + busy(traced) < args.seconds:
            untraced += runner.one_pass()
            tracer.install()
            try:
                traced += runner.one_pass(tracer)
            finally:
                tracer.uninstall()
            passes += 1
        metrics, module_self = per_layer(workload, runner, tracer, untraced, traced, passes, env)
        print_shares(workload.name, module_self, tracer, busy(traced), passes, metrics["trace.overhead"][0])
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{workload.name}-seed{args.seed}.json")

    if sorted(declared) != sorted(metrics):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(declared) ^ set(metrics))}", file=sys.stderr)
        return 2
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
