"""Benchmark of ``modescent front``: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload circle2d-paper --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke

Each run audits the benchmark's own problem file once, times fresh-interpreter
set-up, then runs the workload in one child process (one thread, closed loop;
see probe.py) for ``--seconds`` seconds, checks every output, and prints each
metric by name and unit.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  The exit code is 0 only when every correctness gate passed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import END_TO_END, OCTANT_FILE, PER_LAYER, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_out"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_SAMPLES = 15
DEADLINE_S = 170.0

# library entry points that no workload calls; reported as unmeasured, not 0
NEVER_RUN = ("cli.audit (runs once per invocation as a gate, untimed)",)

# The timed part is the import and the construction.  Three calibration
# slices after it (see probe.py) rescale it to the nominal machine, like
# front_s; they run afterwards because they need numpy.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import modescent.cli as cli
spec = cli.{factory}({source!r})
elapsed = time.perf_counter() - t0
import sys
sys.path.insert(0, {bench!r})
from probe import NOMINAL_SLICE_S, calibration_slice
slices = []
for _ in range(3):
    t1 = time.perf_counter()
    calibration_slice()
    slices.append(time.perf_counter() - t1)
print(cli.__file__)
print(repr(elapsed * NOMINAL_SLICE_S * len(slices) / sum(slices)))
"""


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed correctness gate)."""


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, deadline, **kwargs):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before " + " ".join(argv[:3]))
    try:
        return subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                              timeout=remaining, check=False, **kwargs)
    except subprocess.TimeoutExpired:
        raise BenchError("child process timed out: " + " ".join(argv[:3])) from None


def code_digest():
    """sha256 over the program and the benchmark's own files, which define
    the inputs; determinism records are compared only under equal digests."""
    h = hashlib.sha256()
    paths = [*(ROOT / "src").rglob("*.py"), *BENCH_DIR.glob("*.py"), OCTANT_FILE]
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"


def environment_record(seed):
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "code_sha256": code_digest(),
        "thread_env": THREAD_ENV,
        "seed": seed,
    }


def audit_gate(deadline):
    """``modescent audit --problem-file`` on the benchmark's own problem."""
    code = ("import sys\nfrom modescent.cli import main\n"
            f"sys.exit(main(['audit', '--problem-file', {str(OCTANT_FILE)!r}]))\n")
    out = run_child(["-c", code], deadline, capture_output=True, text=True)
    print(out.stdout.rstrip(), file=sys.stderr)
    return out.returncode == 0


def setup_seconds(workload, samples, deadline):
    """Median of fresh-interpreter import of modescent.cli plus construction
    of the workload's ProblemSpec, rescaled to the nominal machine.  One
    unrecorded run first fills the bytecode and page caches."""
    kind, source = workload.source
    factory = "registry_get" if kind == "--problem" else "load_problem"
    code = SETUP_CODE.format(factory=factory, source=source, bench=str(BENCH_DIR))
    times = []
    for i in range(samples + 1):
        out = run_child(["-c", code], deadline, capture_output=True, text=True)
        lines = out.stdout.split()
        if out.returncode != 0 or len(lines) != 2:
            raise BenchError(f"set-up probe failed: {out.stderr.strip()}")
        if not Path(lines[0]).resolve().is_relative_to((ROOT / "src").resolve()):
            raise BenchError(f"modescent imported from {lines[0]}, not from this checkout")
        if i:
            times.append(float(lines[1]))
    return statistics.median(times)


def spans_path(args):
    return WORK_DIR / "spans" / f"{args.workload}-seed{args.seed}.npz"


def run_probe(args, smoke, deadline):
    work = WORK_DIR / f"work-{os.getpid()}"
    result_path = work / "result.json"
    argv = [str(BENCH_DIR / "probe.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", str(work), "--result", str(result_path)]
    if args.trace:
        spans_path(args).parent.mkdir(parents=True, exist_ok=True)
        argv += ["--spans", str(spans_path(args))]
    if smoke:
        argv.append("--smoke")
    try:
        out = run_child(argv, deadline, stdout=sys.stderr)
        if out.returncode != 0 or not result_path.exists():
            raise BenchError(f"workload process exited with code {out.returncode}")
        return json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def determinism_failures(fronts):
    """Every front on the same grid offset must produce the same digests and
    counts, traced or not.  Returns the failures and one record per
    placement label ("round.index")."""
    by_offset = {}
    records = {}
    fails = []
    for f in fronts:
        ref = by_offset.setdefault(json.dumps(f["offset"]), f["record"])
        for key in ref.keys() & f["record"].keys():
            if ref[key] != f["record"][key]:
                fails.append(f"placement {f['placement']}: {key} differs between fronts")
        ref.update(f["record"])
        records[f["placement"]] = {"offset": f["offset"], **ref}
    return fails, records


def compare_with_earlier(args, grid, records, digest):
    """Compare this run's determinism records with an earlier run of the same
    source, workload, grid and seed in this checkout, then store the union."""
    path = WORK_DIR / "records" / f"{args.workload}-{grid}-seed{args.seed}.json"
    fails = []
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier.get("code_sha256") == digest:
            for label in earlier["placements"].keys() & records.keys():
                old, new = earlier["placements"][label], records[label]
                for key in old.keys() & new.keys():
                    if old[key] != new[key]:
                        fails.append(f"placement {label}: {key} differs from an earlier run")
                new.update({k: v for k, v in old.items() if k not in new})
            records = {**earlier["placements"], **records}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"code_sha256": digest, "placements": records}, indent=1))
    return fails


def end_to_end_metrics(result, setup_s):
    """Times are rescaled to the nominal machine (see probe.NOMINAL_SLICE_S);
    memory is as measured.  Each time is the median over the run's fronts,
    which cover whole rounds of placements, of the front's time or of the
    percentile of its solve latencies, so that one front the host slowed
    down does not move it."""
    untraced = [f for f in result["fronts"] if not f["traced"]]
    return {
        "front_s": statistics.median(f["front_s"] for f in untraced),
        "solve_ms_p50": statistics.median(percentile(f["solve_ms"], 50) for f in untraced),
        "solve_ms_p95": statistics.median(percentile(f["solve_ms"], 95) for f in untraced),
        "setup_s": setup_s,
        "converged_frac": sum(f["converged"] for f in untraced) / sum(f["starts"] for f in untraced),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer_metrics(result):
    """Counts come from the first traced front, so they are exact for the
    seed; everything else is a median over traced fronts.  The tracing
    overhead is the median traced front minus the median untraced front of
    the same run, both rescaled to the nominal machine like ``front_s``."""
    per_front = result["layer_fronts"]
    metrics = {name: per_front[0][name] if unit in ("count", "bytes")
               else statistics.median(m[name] for m in per_front)
               for name, unit in PER_LAYER if not name.startswith("trace.")}
    untraced = statistics.median(f["front_s"] for f in result["fronts"] if not f["traced"])
    traced = statistics.median(f["front_s"] for f in result["fronts"] if f["traced"])
    metrics["trace.front_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    return metrics


def run_once(args, smoke=False):
    """One benchmark run; returns (summary line dict, exit code)."""
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "modescent" / "__init__.py").is_file():
        raise BenchError(f"no modescent sources under {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    env = environment_record(args.seed)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"seconds {args.seconds}{', smoke' if smoke else ''}")
    print("# environment " + json.dumps(env, sort_keys=True))

    run_fails = []
    if not audit_gate(deadline):
        run_fails.append(f"modescent audit --problem-file {OCTANT_FILE.name} failed")
    setup_s = None if args.trace else setup_seconds(workload, 1 if smoke else SETUP_SAMPLES,
                                                    deadline)
    result = run_probe(args, smoke, deadline)

    fronts = result["fronts"]
    determinism, records = determinism_failures(fronts)
    grid = "x".join(map(str, workload.smoke_grid if smoke else workload.grid))
    run_fails += determinism + compare_with_earlier(args, grid, records, env["code_sha256"])
    gate_fails = run_fails + [msg for f in fronts for msg in f["gate_failures"]]
    failed_fronts = sum(1 for f in fronts if f["gate_failures"])
    attempted = sum(f["starts"] for f in fronts)
    failed_starts = sum(f["failed_starts"] for f in fronts)
    # failed_frac counts failed starts plus every run that fails a gate
    failed = failed_starts + failed_fronts + (1 if run_fails else 0)

    if args.trace:
        metrics = per_layer_metrics(result)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end_metrics(result, setup_s)
        units = dict(END_TO_END)

    untraced = [f for f in fronts if not f["traced"]]
    print(f"# fronts: {len(untraced)} untraced, {len(fronts) - len(untraced)} traced, "
          f"in {len({f['placement'].split('.')[0] for f in untraced})} round(s) of grid placements")
    print("# front wall s (as measured): " + " ".join(f"{f['wall_s']:.4g}" for f in untraced))
    print("# machine speed vs nominal: " + " ".join(f"{f['speed']:.3f}" for f in untraced))
    print("# front_s per front: " + " ".join(f"{f['front_s']:.4g}" for f in untraced))
    if not args.trace:
        print(f"# solve latency samples: {sum(len(f['solve_ms']) for f in untraced)}")
    print(f"# starts attempted {attempted}, failed starts {failed_starts}, "
          f"fronts failing a gate {failed_fronts}, failed_frac {failed / attempted:.6g}")
    for label, rec in records.items():
        print(f"# determinism placement {label}: " + json.dumps(rec, sort_keys=True))
    if args.trace:
        unmeasured = result["unmeasured"] + list(NEVER_RUN)
        print("# unmeasured (no call in this workload): " + ", ".join(unmeasured))
        print(f"# spans written to {spans_path(args)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for msg in gate_fails[:20]:
        print(f"# GATE FAILED: {msg}")

    correct = not gate_fails
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}
    return line, 0 if correct else 1


def smoke():
    """Every workload on a tiny grid, traced and untraced, through the same
    code; checks that every metric in BENCHMARK.json is printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=0, seconds=0.0, trace=trace)
            line, code = run_once(args, smoke=True)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{name} trace {trace}: metrics {sorted(got.items())} "
                                f"!= BENCHMARK.json {sorted(declared[trace].items())}")
            if code != 0 or not line["correct"]:
                problems.append(f"{name} trace {trace}: correctness gate failed")
    for p in problems:
        print(f"# SMOKE FAILED: {p}")
    print(json.dumps({"smoke": not problems}))
    return 0 if not problems else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description="Benchmark of modescent front.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload on a tiny grid and check the metric names")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        line, code = run_once(args)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return code


if __name__ == "__main__":
    sys.exit(main())
