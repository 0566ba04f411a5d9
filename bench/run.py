"""bdris benchmark: closed-loop ``bdris run`` children, timed end to end and per layer.

Usage (from the repository root)::

    python3 bench/run.py --rtol 1e-9 --workload freq-sweep --seed 1 \\
        --seconds 30 --trace 0

One client runs one ``python -m bdris.cli run <experiment>`` child at a time
(a closed loop) until ``--seconds`` have passed, always at least one.  Each
child is a fresh process with the inherited environment; the harness sets no
BLAS thread variable, so a thread pin inside the CLI shows in the numbers.
The workload config is generated (see workloads.py) and the seed is passed
through as ``--seed``.

``--trace 0`` reports the end-to-end metrics: medians over the children of
``wall_s`` (spawn to exit, CSVs written), ``cpu_s`` (user + system time from
the child's rusage) and ``peak_rss_mb`` (its ``ru_maxrss``), and the median
``setup_s`` of several ``bdris validate`` children.  ``--trace 1`` alternates
untraced and traced children (trace_child.py) for the same time and reports
per-layer medians, then makes one traced pass with ``OPENBLAS_NUM_THREADS=1``
whose numbers carry the ``blas1.`` prefix and are not gated.

Every child's CSV rows go through the correctness gate (gate.py): against
the committed reference rows at ``--rtol`` when bench/reference holds the
seed, else structure only (row set, finite values, trial count) plus
agreement of every child with the first one at ``--rtol``.  The last stdout
line is the JSON result; the lines before it carry the machine record and a
readable summary.  Exits non-zero without a result when the bdris sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, median_low

import gate
import spans as spanlib
from workloads import SPANS, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

COUNTS = {
    "matrixkit.leading_sv": ("flops_computed",),
    "optimizer.frank_wolfe": ("instances", "iters_computed", "macs_computed"),
    "optimizer.stack": ("bytes_computed",),
    "results.write": ("bytes",),
}
COUNT_UNITS = {"flops_computed": "flop", "bytes_computed": "B", "bytes": "B"}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every metric a traced run reports."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        for key in COUNTS.get(span, ()):
            units[f"{span}.{key}"] = COUNT_UNITS.get(key, "count")
    units.update({
        "channel.zf.degenerate": "count",
        "channel.draw_yield": "ratio",
        "optimizer.stack.useful_frac": "ratio",
        "cli.import_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "blas1.wall_s": "s",
    })
    for span in SPANS:
        units[f"blas1.{span}.self_s"] = "s"
    return units


@dataclass
class Child:
    """One finished ``bdris run`` child."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    layers: dict | None = None
    import_s: float = 0.0


@dataclass
class RowCheck:
    """Checks every child's rows; counts operations attempted and failed."""

    expected: dict
    verified: bool
    rtol: float
    trials: int
    attempted: int = 0
    failed: int = 0
    first: dict | None = None
    messages: list[str] = field(default_factory=list)

    def check(self, rows: dict):
        failures = gate.compare(rows, self.expected,
                                self.rtol if self.verified else None, self.trials)
        if not self.verified:
            if self.first is None and not failures:
                self.first = rows
            elif self.first is not None:
                failures += gate.compare(rows, self.first, self.rtol, self.trials)
        self.record(failures, min(len(failures), len(self.expected)))

    def record(self, failures: list[str], failed: int):
        self.attempted += len(self.expected)
        self.failed += failed
        self.messages += failures[:5]


def reference_rows(workload: str, seed: int, root: Path) -> tuple[dict, bool]:
    """Reference rows for the seed if committed, else any seed's rows for structure."""
    base = root / workload
    exact = base / f"seed{seed}"
    if exact.is_dir():
        return gate.read_dir(str(exact)), True
    seeds = sorted(base.iterdir()) if base.is_dir() else []
    if not seeds:
        raise SystemExit(f"no reference rows for workload {workload} under {base}")
    return gate.read_dir(str(seeds[0])), False


def child_env(blas_threads: int | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def spawn(argv: list[str], env: dict) -> tuple[int, float, object, str]:
    """Run a child to completion: (exit code, wall seconds, rusage, stderr)."""
    with tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, wall, usage, err.read().decode(errors="replace")


def run_child(workload: Workload, seed: int, config: Path, check: RowCheck,
              traced: bool = False, blas_threads: int | None = None) -> Child:
    out = Path(tempfile.mkdtemp(dir=WORK, prefix="out-"))
    try:
        cli = ["run", workload.experiment, "--config", str(config),
               "--seed", str(seed), "--out", str(out)]
        spans_path = out / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "trace_child.py"), str(spans_path), *cli]
        else:
            argv = [sys.executable, "-m", "bdris.cli", *cli]
        code, wall, usage, err = spawn(argv, child_env(blas_threads))
        child = Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        if code != 0:
            check.record([f"exit {code}: {err.strip()[-2000:]}"], len(check.expected))
            return child
        check.check(gate.read_dir(str(out)))
        if traced:
            trace = json.loads(spans_path.read_text())
            if not trace["bdris_file"].startswith(str(ROOT / "src")):
                raise SystemExit(f"traced child imported {trace['bdris_file']}, "
                                 f"not the sources under {ROOT / 'src'}")
            child.layers = layer_metrics(trace, workload)
            child.import_s = trace["import_s"]
        return child
    finally:
        shutil.rmtree(out, ignore_errors=True)


def layer_metrics(trace: dict, workload: Workload) -> dict:
    """Per-layer numbers of one traced child, before the blas1/trace extras."""
    records = trace["spans"]
    totals = spanlib.layer_totals(records, SPANS)
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = totals[span]["calls"]
        out[f"{span}.self_s"] = totals[span]["self_s"]
        for key in COUNTS.get(span, ()):
            out[f"{span}.{key}"] = totals[span]["counts"][key]
    out["channel.zf.degenerate"] = totals["channel.zf"]["errors"]
    draws = totals["channel.sample"]["calls"]
    out["channel.draw_yield"] = workload.points * workload.trials / draws if draws else 0.0
    useful, stacks = spanlib.useful_stacks(records)
    out["optimizer.stack.useful_frac"] = useful / stacks if stacks else 0.0
    return out


def coverage_failures(layers: dict, workload: Workload, label: str) -> list[str]:
    """Spans whose call count contradicts the workload's prediction."""
    problems = [f"{label}: span {s} recorded no calls"
                for s in workload.expected_spans() if layers[f"{s}.calls"] == 0]
    problems += [f"{label}: span {s} was predicted never to run but recorded "
                 f"{layers[f'{s}.calls']} calls"
                 for s in sorted(workload.zero_spans) if layers[f"{s}.calls"] != 0]
    return problems


def machine_record() -> dict:
    """nproc, CPU, interpreter and library versions, BLAS build and thread variables."""
    probe = ("import json, platform, numpy, scipy\n"
             "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "print(json.dumps({'python': platform.python_version(),"
             " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
             " 'blas': blas.get('name'), 'blas_version': blas.get('version')}))")
    info = json.loads(subprocess.run([sys.executable, "-c", probe], env=child_env(),
                                     cwd=ROOT, capture_output=True, text=True,
                                     check=True, timeout=60).stdout)
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip() or commit
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, **info,
            **{v: os.environ.get(v) for v in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "commit": commit}


def end_to_end(workload: Workload, seed: int, seconds: float, config: Path,
               check: RowCheck) -> tuple[dict, list[str], list[str]]:
    setup = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, err = spawn([sys.executable, "-m", "bdris.cli", "validate",
                                    str(config)], child_env())
        if code != 0:
            raise SystemExit(f"bdris validate failed (exit {code}): {err.strip()}")
        setup.append(wall)
    children = []
    start = time.perf_counter()
    while not children or time.perf_counter() - start < seconds:
        children.append(run_child(workload, seed, config, check))
    summary = [f"children: {len(children)}",
               "wall_s: " + " ".join(f"{c.wall_s:.3f}" for c in children),
               "setup_s: " + " ".join(f"{s:.3f}" for s in setup)]
    return {"wall_s": median(c.wall_s for c in children),
            "cpu_s": median(c.cpu_s for c in children),
            "peak_rss_mb": median(c.peak_rss_mb for c in children),
            "setup_s": median(setup)}, [], summary


def per_layer(workload: Workload, seed: int, seconds: float, config: Path,
              check: RowCheck) -> tuple[dict, list[str], list[str]]:
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_child(workload, seed, config, check))
        traced.append(run_child(workload, seed, config, check, traced=True))
    blas1 = run_child(workload, seed, config, check, traced=True, blas_threads=1)
    passes = [c for c in (*traced, blas1) if c.layers is not None]
    if len(passes) != len(traced) + 1:
        raise SystemExit("a traced child failed: " + "; ".join(check.messages))
    problems = [p for i, c in enumerate(passes)
                for p in coverage_failures(c.layers, workload,
                                           "blas1" if c is blas1 else f"traced pass {i}")]
    # Counts repeat exactly; median_low keeps them whole numbers.
    metrics = {key: (median if key.endswith("_s") else median_low)(
        c.layers[key] for c in traced) for key in traced[0].layers}
    metrics["cli.import_s"] = median(c.import_s for c in traced)
    metrics["trace.wall_s"] = median(c.wall_s for c in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(c.wall_s for c in plain)
    metrics["blas1.wall_s"] = blas1.wall_s
    for span in SPANS:
        metrics[f"blas1.{span}.self_s"] = blas1.layers[f"{span}.self_s"]
    summary = [f"traced passes: {len(traced)} (+1 blas1)",
               "untraced wall_s: " + " ".join(f"{c.wall_s:.3f}" for c in plain),
               "traced wall_s: " + " ".join(f"{c.wall_s:.3f}" for c in traced)]
    return metrics, problems, summary


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  rtol: float, reference: Path = REFERENCE) -> tuple[dict, list[str]]:
    """Run one benchmark measurement; returns (result object, readable lines)."""
    if not (ROOT / "src" / "bdris" / "cli.py").is_file():
        raise SystemExit(f"bdris sources not found under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)
    expected, verified = reference_rows(workload.name, seed, reference)
    check = RowCheck(expected, verified, rtol, workload.trials)
    lines = ["machine: " + json.dumps(machine_record())]
    with tempfile.TemporaryDirectory(dir=WORK, prefix="cfg-") as tmp:
        config = workload.write_config(tmp)
        measure = per_layer if trace else end_to_end
        values, problems, summary = measure(workload, seed, seconds, config, check)
    units = per_layer_units() if trace else END_TO_END
    lines += summary
    lines.append("correctness: " + (f"verified against the seed-{seed} reference "
                                    f"at rtol {rtol:g}" if verified else
                                    "unverified (no reference for this seed): "
                                    "structure and run-to-run agreement only"))
    lines += [f"FAILED {m}" for m in check.messages + problems]
    lines += [f"{name} = {values[name]!r} {unit}" for name, unit in units.items()]
    result = {"correct": check.failed == 0 and not problems,
              "attempted": check.attempted, "failed": check.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--rtol", required=True, type=float,
                        help="relative tolerance of the reference comparison")
    args = parser.parse_args(argv)
    result, lines = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace), args.rtol)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
