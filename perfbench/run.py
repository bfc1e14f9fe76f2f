"""Benchmark of the immersion-forge command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N     # every workload

Run from the root of a source checkout; the package is taken from ``src``.
Each operation is one CLI command in a fresh interpreter, started from this
single sequential process (a closed loop with one client).  Inputs are
generated from the seed (see gen.py) into ``.bench_build/perfbench`` and
checked on-model with the package's own check before any timing.

Untraced runs (``--trace 0``) cycle through the workload's operations, with
set-up children spread between them, for ``--seconds`` and report:

* ``run_s``: wall time of one pass over the operations, each operation
  counted at its mean over its repetitions in the run;
* ``setup_s``: interpreter start, import, load, structure view and the first
  field evaluations of each workload input in its own interpreter, each
  input counted at its median of at least SETUP_REPEATS repetitions,
  summed over inputs;
* ``peak_rss_mb``: largest peak RSS of any one operation's interpreter.

Traced runs (``--trace 1``) alternate untraced and traced passes in whole
rounds and report the per-layer metrics of tracer.py plus
``trace.overhead_s``.  Every
operation's exit code, summary verdict, residual/tolerance ratio and report
are checked; mismatches are counted in ``failed``.  The last line of
standard output is the JSON result.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True

import gen  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
CLI_CODE = "import sys; from immersion_forge.cli import main; sys.exit(main())"

STEP = "0.008"              # RK4 step for the transport workloads
SETUP_REPEATS = 3
OP_TIMEOUT_S = 60.0         # a hung operation is killed and counted failed
ADMISSION_GRID = {1: 128, 2: 12, 3: 5}


@dataclass(frozen=True)
class Op:
    """One CLI command and the outcome it must have."""

    command: str
    doc: str
    grid: int
    expect_exit: int = 0
    step: str | None = None

    @property
    def label(self):
        return f"{self.command}:{self.doc}:g{self.grid}"

    def argv(self, doc_path, out_path):
        args = [self.command, str(doc_path), "--grid", str(self.grid),
                "--out", str(out_path)]
        if self.step:
            args += ["--step", self.step]
        return args


def _admission_ops():
    ops = []
    for family, (_, coords, *_rest) in gen.FAMILIES.items():
        grid = ADMISSION_GRID[len(coords)]
        ops += [Op(cmd, family, grid) for cmd in ("check", "audit", "extract")]
    ops.append(Op("check", "control_lambda", ADMISSION_GRID[2], expect_exit=1))
    return ops


# Why each workload: admission has no transport and stresses expression
# compilation, field evaluation, admission and extraction; validate is
# dominated by transport of off-grid shape-operator samples; roundtrip uses
# transport on grid samples only (prefix reuse) plus the ambient oracle and
# congruence.  A change to one mechanism should move one and leave the other.
WORKLOADS = {
    "admission": _admission_ops(),
    "validate": [Op("reconstruct", "diagonal_cylinder", 2, step=STEP),
                 Op("reconstruct", "perturbed_geodesic", 5, step=STEP)],
    "roundtrip": [Op("roundtrip", "geodesic_slice_n3", 2, step=STEP),
                  Op("roundtrip", "diagonal_cylinder", 3, step=STEP)],
}


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result line)."""


# ---------------------------------------------------------------------------
# environment and inputs


def child_env():
    """Fixed environment for every child; IMMERSION_FORGE_THREADS unset."""
    env = {k: v for k, v in os.environ.items()
           if k != "IMMERSION_FORGE_THREADS" and not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    return env


def environment_record():
    import numpy

    env = child_env()
    return {"python": sys.executable, "python_version": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "child_env": {k: env[k] for k in
                          ("PYTHONPATH", "PYTHONHASHSEED", "PYTHONPYCACHEPREFIX")},
            "IMMERSION_FORGE_THREADS": None}


def prepare_inputs(seed, run_dir, workload_ops):
    """Write the seed's documents and check the hypersurfaces on-model.

    Returns ({name: (path, chart dimension)}, {name: sha256 of the file}).
    """
    docs = gen.generate(seed)
    written = gen.write_documents(docs, run_dir)
    sys.path.insert(0, str(SRC))
    sys.pycache_prefix = str(WORK / "pycache")
    from immersion_forge import ambient, cli, expr

    for name in {op.doc for op in workload_ops}:
        if docs[name]["kind"] != "hypersurface":
            continue
        grid = max(op.grid for op in workload_ops if op.doc == name)
        try:
            cli.load_input(str(written[name][0])).check_on_model(
                grid_density=grid)
        except (cli.InputError, ambient.AmbientError, expr.ExprError) as err:
            raise BenchError(
                f"generated input {name} (seed {seed}) is off-model: {err}"
            ) from err
    paths = {name: (str(path), docs[name]["n"])
             for name, (path, _) in written.items()}
    return paths, {name: digest for name, (_, digest) in written.items()}


# ---------------------------------------------------------------------------
# running children


def spawn(argv, stdout_path):
    """Run a child to completion: (exit code, wall s, CPU s, peak RSS MB)."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 reports this child's own peak RSS; RUSAGE_CHILDREN would
            # give the running maximum over all children instead
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def run_setup(doc_path, grid, run_dir):
    """Wall time of one set-up child for an input."""
    log = run_dir / "setup.log"
    code, wall, _, _ = spawn([str(HERE / "child.py"), "setup", doc_path,
                              str(grid)], log)
    if code != 0:
        raise BenchError(f"set-up of {doc_path} failed: "
                         + log.read_text(errors="replace")[-2000:])
    return wall


def untraced_schedule(ops):
    """One cycle: every operation once, with one set-up child per input
    spread evenly between them, so that set-up samples see the same spells
    of host contention as the operations."""
    inputs = {}
    for op in ops:
        inputs.setdefault(op.doc, op.grid)
    pending = list(inputs.items())
    every = math.ceil(len(ops) / len(pending))
    cycle = []
    for i, op in enumerate(ops):
        cycle.append(op)
        if (i + 1) % every == 0 and pending:
            cycle.append(pending.pop(0))
    return cycle + pending, inputs


def run_op(op, docs, run_dir, index, traced):
    """Run one operation and check its outcome."""
    out_path = run_dir / f"op{index}.jsonl"
    stdout_path = run_dir / f"op{index}.stdout"
    doc_path, n = docs[op.doc]
    cli_args = op.argv(doc_path, out_path)
    if traced:
        trace_path = run_dir / f"op{index}.trace.json"
        argv = [str(HERE / "child.py"), "trace", str(trace_path), str(index),
                *cli_args]
    else:
        argv = ["-c", CLI_CODE, *cli_args]
    if out_path.exists():
        out_path.unlink()
    code, wall, cpu, rss = spawn(argv, stdout_path)
    rec = {"op": op.label, "exit": code, "expected_exit": op.expect_exit,
           "wall_s": wall, "cpu_s": cpu, "rss_mb": rss, "traced": traced}
    rec.update(verify(op, code, stdout_path, out_path, op.grid ** n))
    if traced and trace_path.exists():
        rec["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
        trace_path.unlink()
    if rec["ok"]:               # keep the files of failed operations only
        for path in (out_path, stdout_path):
            path.unlink(missing_ok=True)
    return rec


# ---------------------------------------------------------------------------
# output verification


def _ratio(op, summary):
    """Largest residual / tolerance in the command's summary record."""
    if op.command in ("check", "extract"):
        return max(summary["residuals"].values()) / summary["tolerance"]
    if op.command == "reconstruct":
        return max(summary["residuals"][k] / summary["tolerances"][k]
                   for k in summary["residuals"])
    if op.command == "roundtrip":
        return summary["congruence_sup"] / summary["tolerance"]
    return max(summary["gauss_f_outside"],
               summary["codazzi_plus"]) / summary["tolerance"]


def _verdict(op, summary):
    if op.command in ("check", "extract"):
        return summary["admissible"] is (op.expect_exit == 0)
    if op.command == "reconstruct":
        return summary["valid"] is True
    if op.command == "roundtrip":
        return summary["congruent"] is True
    return ("f_outside" in summary["surviving_gauss"]
            and "plus" in summary["surviving_codazzi"])


def verify(op, code, stdout_path, out_path, grid_points):
    """Exit code, verdict, residual ratio and report shape of one operation."""
    problems = []
    if code != op.expect_exit:
        problems.append(f"exit {code}, expected {op.expect_exit}")
    summary = None
    ratio = None
    report_bytes = 0
    try:
        lines = stdout_path.read_text(encoding="utf-8").strip().splitlines()
        summary = json.loads(lines[-1])
        if summary.get("summary") is not True:
            raise ValueError("last stdout line is not a summary record")
        if not _verdict(op, summary):
            problems.append("wrong summary verdict")
        ratio = _ratio(op, summary)
        if op.expect_exit == 0 and not ratio < 1.0:
            problems.append(f"residual/tolerance {ratio:.3g} >= 1")
        if op.expect_exit != 0 and not ratio > 1.0:
            problems.append("inadmissible control within tolerance")
        report = out_path.read_bytes()
        report_bytes = len(report)
        records = [json.loads(x) for x in report.decode().splitlines()]
        if records[-1] != summary:
            problems.append("report summary differs from stdout summary")
        points = 0 if op.command == "audit" else grid_points
        if len(records) - 1 != points:
            problems.append(f"{len(records) - 1} point records, "
                            f"expected {points}")
    except (OSError, ValueError, KeyError, IndexError, TypeError,
            ZeroDivisionError) as err:
        problems.append(f"unreadable output: {err!r}")
    return {"ok": not problems, "problems": problems, "ratio": ratio,
            "report_bytes": report_bytes,
            "verdict_checked": op.expect_exit == 0 and summary is not None}


# ---------------------------------------------------------------------------
# one run


def run_workload(name, ops, seed, seconds, traced, run_dir):
    """Measure one workload; return the result object printed last."""
    run_dir.mkdir(parents=True, exist_ok=True)
    docs, hashes = prepare_inputs(seed, run_dir, ops)
    info = {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(traced), "input_sha256": hashes,
            "environment": environment_record()}
    records = []
    index = 0

    def one_pass(with_trace):
        nonlocal index
        out = []
        for op in ops:
            out.append(run_op(op, docs, run_dir, index, with_trace))
            index += 1
        return out

    if not traced:
        cycle, inputs = untraced_schedule(ops)
        walls = {op.label: [] for op in ops}
        setup = {doc: [] for doc in inputs}
        first = next(iter(inputs))
        run_setup(docs[first][0], inputs[first], run_dir)   # warm-up
        start = time.perf_counter()
        # cycle until the time is used, every operation has run and every
        # input has been set up SETUP_REPEATS times
        pos = 0
        while (time.perf_counter() - start < seconds
               or min(map(len, walls.values())) < 1
               or min(map(len, setup.values())) < SETUP_REPEATS):
            item = cycle[pos % len(cycle)]
            pos += 1
            if isinstance(item, Op):
                rec = run_op(item, docs, run_dir, index, False)
                index += 1
                records.append(rec)
                walls[item.label].append(rec["wall_s"])
            else:
                doc, grid = item
                setup[doc].append(run_setup(docs[doc][0], grid, run_dir))
        metrics = {
            "run_s": (sum(map(statistics.mean, walls.values())), "s"),
            "setup_s": (sum(map(statistics.median, setup.values())), "s"),
            "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
        }
        info["setup_times_s"] = setup
        info["passes"] = len(records) / len(ops)
    else:
        plain, traced_passes = [], []
        start = time.perf_counter()
        # whole rounds only; no round is started that would end past the time
        while True:
            round_start = time.perf_counter()
            plain.append(one_pass(False))
            traced_passes.append(one_pass(True))
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
        records = [r for p in plain + traced_passes for r in p]
        metrics, info["absent"], info["count_mismatch"] = traced_metrics(
            plain, traced_passes)
        info["passes"] = len(traced_passes)
    failed = sum(not r["ok"] for r in records)
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {k: _metric(v, u) for k, (v, u) in metrics.items()}}
    for key in info.get("absent", []):
        result["metrics"][key]["absent"] = True
    # spans and call aggregates stay in memory until here
    traces = [rec.pop("trace") for rec in records if "trace" in rec]
    if traces:
        (run_dir / "traces.json").write_text(json.dumps(traces),
                                             encoding="utf-8")
    info["fail_ratio"] = failed / len(records)
    info["operations"] = records
    info["result"] = result
    (run_dir / "result.json").write_text(json.dumps(info, indent=1),
                                         encoding="utf-8")
    return result, info


EXACT_COUNTS = ("expr.compile.nodes", "bundle.rk4_steps",
                "bundle.coefficients.calls", "reconstruct.sample.calls",
                "structure.point_residuals.calls_per_point")


def traced_metrics(plain, traced_passes):
    """Per-layer metrics: counts from the first traced pass, times median."""
    per_pass = []
    absent = set()
    for recs in traced_passes:
        extras = {
            "cli.import_s": sum(r["trace"]["import_s"] for r in recs
                                if "trace" in r),
            "cli.report_bytes": sum(r["report_bytes"] for r in recs),
            "reconstruct.residual_headroom": max(
                (r["ratio"] for r in recs
                 if r["verdict_checked"] and r["ratio"] is not None),
                default=0.0),
        }
        values, missing = tracer.layer_metrics(
            [r["trace"] for r in recs if "trace" in r], extras)
        per_pass.append(values)
        absent.update(missing)
    mismatch = [k for k in EXACT_COUNTS
                if len({p[k] for p in per_pass}) > 1]
    metrics = {}
    for key in per_pass[0]:
        unit = tracer.PER_LAYER_UNITS[key]
        vals = [p[key] for p in per_pass]
        metrics[key] = (vals[0] if unit in ("count", "B", "calls/point")
                        else statistics.median(vals), unit)

    def pass_time(passes):     # mean repetition of each operation
        return sum(statistics.mean(p[i]["wall_s"] for p in passes)
                   for i in range(len(passes[0])))

    metrics["trace.overhead_s"] = (pass_time(traced_passes)
                                   - pass_time(plain), "s")
    return metrics, sorted(absent), mismatch


def _metric(value, unit):
    if isinstance(value, float) and not math.isfinite(value):
        raise BenchError(f"non-finite metric value {value}")
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# command line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through spawn(), which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if not (SRC / "immersion_forge" / "__init__.py").is_file():
            raise BenchError(f"no package source under {SRC}")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            run_dir = WORK / f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
            result, info = run_workload(name, WORKLOADS[name], args.seed,
                                        args.seconds, bool(args.trace), run_dir)
            print_summary(info, run_dir)
            results[name] = result
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


def print_summary(info, run_dir):
    result = info["result"]
    env = info["environment"]
    print(f"workload {info['workload']}  seed {info['seed']}  "
          f"trace {info['trace']}  passes {info['passes']:.2f}  "
          f"details {run_dir / 'result.json'}")
    print(f"  python {env['python_version']}  numpy {env['numpy']}  "
          f"nproc {env['nproc']}  IMMERSION_FORGE_THREADS unset")
    for name, digest in info["input_sha256"].items():
        print(f"  input {name:20s} sha256 {digest}")
    for key, m in result["metrics"].items():
        flag = "  (absent)" if m.get("absent") else ""
        print(f"  {key:44s} {m['value']:>14.6g} {m['unit']}{flag}")
    print(f"  {'fail_ratio':44s} {info['fail_ratio']:>14.6g} 1"
          f"   ({result['failed']} of {result['attempted']} operations)")
    controls = {r["op"]: r["exit"] for r in info["operations"]
                if r["expected_exit"] != 0}
    for label, code in controls.items():
        print(f"  control {label} exits {code} (expected 1)")
    for rec in info["operations"]:
        if not rec["ok"]:
            print(f"  FAILED {rec['op']}: {'; '.join(rec['problems'])}")
    if info.get("count_mismatch"):
        print(f"  counts differ between traced passes: {info['count_mismatch']}")


if __name__ == "__main__":
    sys.exit(main())
