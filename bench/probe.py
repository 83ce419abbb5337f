"""Run one benchmark workload in this process and write its measurements.

run.py starts this file in a fresh interpreter with PYTHONPATH set to the
checkout's ``src`` and BLAS/OpenMP pinned to one thread.  It calls the
user-facing entry point ``modescent.cli.main(["front", ...])`` in a closed
loop: each front starts after the previous one has finished, and inside a
front ``multistart`` solves one start after another.

Untraced fronts carry one wrapper on the solver's path, a timer on
``modescent.globalize.solve_constrained``, and are sampled by the periodic
calibration slices described at NOMINAL_SLICE_S.  Traced fronts wrap the
public functions of every layer (``problems``, ``direction``, ``geometry``,
``linesearch``, ``solver``, ``globalize``) by rebinding the name in every
module that imported it, and wrap the problem maps through
``dataclasses.replace`` on the ProblemSpec that ``modescent.cli`` resolves.
Nothing under ``src`` changes.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from workloads import PER_LAYER, WORKLOADS, grid_offsets, shift_box

ROOT = Path(__file__).resolve().parent.parent

FEAS_TOL = 1e-9        # converged points: G <= tol, |H| <= tol
SEGMENT_TOL = 1e-2     # circle2d front: distance to {2} x [-1, 1]
OCTANT_SLACK = 1e-2    # octant3d front: x >= -slack componentwise, or x3 >= 0.5 - slack

# public functions per layer; spans are named "<module>.<function>"
LAYER_FUNCTIONS = (
    ("problems", "evaluate"),
    ("direction", "active_set"),
    ("direction", "tangent_basis"),
    ("direction", "min_norm_in_hull"),
    ("direction", "solve_direction"),
    ("geometry", "project"),
    ("geometry", "feasible_start"),
    ("geometry", "retract_psi"),
    ("linesearch", "armijo_step"),
    ("linesearch", "feasible_armijo_step"),
    ("linesearch", "boundary_step"),
    ("solver", "solve_constrained"),
    ("solver", "solve_equality"),
    ("globalize", "multistart"),
    ("globalize", "dominance_flags"),
    ("globalize", "nondominated_filter"),
    ("globalize", "deduplicate"),
    ("globalize", "write_archive_csv"),
    ("globalize", "write_archive_json"),
)
MAPS = ("F", "DF", "G", "DG", "H", "DH")
STEPS = ("linesearch.feasible_armijo_step", "linesearch.boundary_step")
WRITERS = ("globalize.write_archive_csv", "globalize.write_archive_json")
KIND_TAGS = {"SP": 0, "SPe": 1, "SP1": 2, "SP2": 3}
ROOT_SPAN = "cli.front"

RAISED = 1
REPAIRED = 2

# The host's speed drifts by up to +-20 % within seconds, far more than the
# bounds the benchmark must resolve.  While an untraced front runs, a SIGALRM
# timer therefore runs a fixed calibration slice every SAMPLE_PERIOD_S,
# wherever the program is; one more slice brackets each end of the front.
# Times exclude the slices.  The work between two consecutive slices is
# rescaled by the mean duration of the slices around it (SPEED_WINDOW on
# each side) to a machine on which one slice takes NOMINAL_SLICE_S.  The
# slice does the solver's kind of work (tiny numpy calls, Python arithmetic)
# and uses no modescent code, so a change to the program does not change it.
NOMINAL_SLICE_S = 0.01
SLICE_ITERS = 300
SAMPLE_PERIOD_S = 0.2
SPEED_WINDOW = 2


@dataclasses.dataclass(frozen=True)
class _Sample:
    x: np.ndarray
    f: np.ndarray


def calibration_slice():
    """The mix of one solver iteration and one writer row: small arrays,
    elementwise tests, 2x2 linear algebra, a frozen dataclass, formatting."""
    a = np.array([[2.0, 0.3], [0.3, 1.5]])
    acc = 0.0
    for i in range(SLICE_ITERS):
        x = np.array([1.0 + i * 1e-4, -0.5])
        f = np.array([x @ x, (x[0] - 2.0) ** 2 + (x[1] + 1.0) ** 2])
        v = np.linalg.solve(a, x) if np.all(f > -1.0) and not np.any(np.isnan(f)) else x
        s = np.linalg.svd(a, compute_uv=False)
        lam, *_ = np.linalg.lstsq(a, f, rcond=None)
        sample = _Sample(x, f)
        acc += float(v @ sample.x) + float(s[0]) + float(lam.sum())
        acc += len(format(float(sample.f[0]), ".17g"))
    return acc


class SpeedSampler:
    """Start and duration of every calibration slice, and the total time
    spent in them."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self.paused = 0.0

    def take(self, *_signal_args):
        t0 = time.perf_counter()
        calibration_slice()
        elapsed = time.perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(elapsed)
        self.paused += elapsed

    def latest(self):
        return len(self.starts) - 1

    def segment_speeds(self, first, last):
        """Nominal over measured slice time for each gap between slices
        first..last, from the slices within SPEED_WINDOW of the gap."""
        speeds = []
        for k in range(first, last):
            window = self.durations[max(first, k - SPEED_WINDOW + 1):
                                    min(last, k + SPEED_WINDOW) + 1]
            speeds.append(NOMINAL_SLICE_S / statistics.fmean(window))
        return speeds

    def rescaled_work(self, first, last, speeds):
        """Time spent outside slices between slices first..last, each gap
        multiplied by its speed."""
        return sum((self.starts[k + 1] - self.starts[k] - self.durations[k]) * speeds[k - first]
                   for k in range(first, last))

    @contextmanager
    def periodic(self):
        previous = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@contextmanager
def rebound(replacements):
    """Point every global of the named modules that is bound to an original
    function at its replacement, for the duration of the block.

    ``replacements`` holds ``(module_names, original, replacement)`` triples.
    """
    undo = []
    try:
        for module_names, original, replacement in replacements:
            for name in module_names:
                module = sys.modules[name]
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)
                        undo.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


def modescent_modules():
    return [name for name in sys.modules if name == "modescent" or name.startswith("modescent.")]


class Tracer:
    """Spans held in memory as parallel columns until the run ends.

    A span is allocated when its call starts, so a parent always precedes
    its children.  ``solve`` is the index of the enclosing
    ``solve_constrained`` span (-1 outside a solve), so the spans of one
    solve share an id.  ``tag``/``extra``/``flag`` hold per-call facts:
    subproblem kind, generator count, step exponent k, iterations, SP2
    steps, and whether the call raised or its step was repaired.
    """

    def __init__(self):
        self.labels = []
        self.ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.tag = array("i")
        self.extra = array("i")
        self.flag = array("b")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._solve = -1

    def label_id(self, label):
        if label not in self.ids:
            self.ids[label] = len(self.labels)
            self.labels.append(label)
        return self.ids[label]

    def wrap(self, label, fn, tag=None, on_return=None, opens_solve=False):
        nid = self.label_id(label)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.solve.append(i if opens_solve else self._solve)
            self.tag.append(tag(args, kwargs) if tag is not None else 0)
            self.extra.append(0)
            self.flag.append(0)
            self.end.append(0)
            stack.append(i)
            outer_solve = self._solve
            if opens_solve:
                self._solve = i
            result = error = None
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                self.end[i] = clock()
                stack.pop()
                self._solve = outer_solve
                if error is not None:
                    self.flag[i] |= RAISED
                if on_return is not None:
                    on_return(self, i, result, error)

        return traced

    def wrap_maps(self, spec):
        wrapped = {m: self.wrap(f"problems.{m}", getattr(spec, m))
                   for m in MAPS if getattr(spec, m) is not None}
        return dataclasses.replace(spec, **wrapped)

    def layer_replacements(self, modescent):
        hooks = {
            "direction.solve_direction": dict(tag=_kind_tag),
            "direction.min_norm_in_hull": dict(tag=_generator_count),
            "linesearch.feasible_armijo_step": dict(on_return=_step_result),
            "linesearch.boundary_step": dict(on_return=_step_result),
            "solver.solve_constrained": dict(on_return=_solve_result, opens_solve=True),
            "solver.solve_equality": dict(on_return=_solve_result, opens_solve=True),
            "globalize.nondominated_filter": dict(tag=_archive_size, on_return=_filter_result),
        }
        everywhere = modescent_modules()
        out = []
        for module, fn_name in LAYER_FUNCTIONS:
            label = f"{module}.{fn_name}"
            original = getattr(getattr(modescent, module), fn_name)
            out.append((everywhere, original, self.wrap(label, original, **hooks.get(label, {}))))
        return out

    def columns(self):
        """Copies of the span columns as numpy arrays."""
        def col(arr, dtype):
            return np.frombuffer(arr, dtype=dtype).copy() if len(arr) else np.zeros(0, dtype)
        return {
            "name": col(self.name, np.int32), "parent": col(self.parent, np.int32),
            "solve": col(self.solve, np.int32), "tag": col(self.tag, np.int32),
            "extra": col(self.extra, np.int32), "flag": col(self.flag, np.int8),
            "start": col(self.start, np.int64), "end": col(self.end, np.int64),
        }


def _kind_tag(args, kwargs):
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    return KIND_TAGS[kind.value]


def _generator_count(args, kwargs):
    gens = args[0] if args else kwargs["generators"]
    return len(gens) if np.ndim(gens) == 2 else 1


def _archive_size(args, kwargs):
    return len(args[0] if args else kwargs["archive"])


def _step_result(tracer, i, result, err):
    if result is not None:
        tracer.tag[i] = result.k
        if result.feasibility_repaired:
            tracer.flag[i] |= REPAIRED


def _solve_result(tracer, i, result, err):
    trace = result[1] if result is not None else getattr(err, "trace", None)
    if trace is not None:
        tracer.tag[i] = trace.iterations
        tracer.extra[i] = trace.branch_counts().get("SP2-step", 0)


def _filter_result(tracer, i, result, err):
    if result is not None:
        tracer.extra[i] = len(result)


class ProblemHook:
    """Hands the CLI the workload's ProblemSpec with its box shifted to the
    current placement and, while tracing, with counted maps.  Installed on
    the names ``modescent.cli`` resolves problems through."""

    def __init__(self, cli, counts):
        self.counts = counts
        self.offset = None
        self.tracer = None
        self.originals = {"registry_get": cli.registry_get, "load_problem": cli.load_problem}
        for name, fn in self.originals.items():
            setattr(cli, name, self._hooked(fn))

    def _hooked(self, fn):
        def hooked(source):
            spec = fn(source)
            spec = dataclasses.replace(spec, box=shift_box(spec.box, self.counts, self.offset))
            return self.tracer.wrap_maps(spec) if self.tracer is not None else spec
        return hooked

    def reference(self, workload):
        """The workload's problem as the library builds it: unshifted, unwrapped."""
        kind, source = workload.source
        fn = self.originals["registry_get" if kind == "--problem" else "load_problem"]
        return fn(source)


def front_gate_failures(outdir, rc, reference, n_starts, gate):
    """Correctness gates of one front; returns a list of failure messages."""
    if rc != 0:
        return [f"front exited with code {rc}"]
    archive = json.loads((outdir / "archive.json").read_text())["entries"]
    front = json.loads((outdir / "front.json").read_text())["entries"]
    fails = []
    if len(archive) != n_starts:
        fails.append(f"{len(archive)} archive entries for {n_starts} starts")
    for e in archive:
        if not e["converged"]:
            continue
        x = np.array(e["x"], dtype=float)
        g = np.asarray(reference.G(x), dtype=float) if reference.m_G else np.zeros(0)
        h = np.asarray(reference.H(x), dtype=float) if reference.m_H else np.zeros(0)
        if np.any(g > FEAS_TOL) or np.any(np.abs(h) > FEAS_TOL):
            fails.append(f"converged point {e['x']} is infeasible")
    if not front:
        fails.append("empty front")
    for e in front:
        x = np.array(e["x"], dtype=float)
        if gate == "segment":
            dist = float(np.hypot(x[0] - 2.0, max(abs(x[1]) - 1.0, 0.0)))
            if dist > SEGMENT_TOL:
                fails.append(f"front point {e['x']} is {dist:.3g} from the Pareto segment")
        elif not (abs(float(x @ x) - 1.0) <= FEAS_TOL and x[2] <= 0.5 + FEAS_TOL
                  and (x.min() >= -OCTANT_SLACK or x[2] >= 0.5 - OCTANT_SLACK)):
            fails.append(f"front point {e['x']} is neither in the Pareto set nor on the cap circle")
    return fails


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_front(cli, workload, counts, outdir, reference, hook, offset, sampler, periodic):
    """One timed ``front`` call and its checks; returns the front's record.

    ``front_s`` is the front's time without calibration slices, rescaled
    to the nominal machine; ``speeds`` holds the factor of every gap between
    slices, starting at slice ``first_slice``.
    """
    hook.offset = offset
    argv = ["front", *workload.source, "--grid", "x".join(map(str, counts)),
            *workload.options, "--out", str(outdir)]
    sampler.take()
    first = sampler.latest()
    paused = sampler.paused
    t0 = time.perf_counter()
    with sampler.periodic() if periodic else nullcontext():
        rc = cli.main(argv)
    wall_s = time.perf_counter() - t0
    net_s = wall_s - (sampler.paused - paused)
    sampler.take()
    last = sampler.latest()
    speeds = sampler.segment_speeds(first, last)
    front_s = sampler.rescaled_work(first, last, speeds)
    n_starts = int(np.prod(counts))
    fails = front_gate_failures(outdir, rc, reference, n_starts, workload.front_gate)
    rec = {"front_s": front_s, "wall_s": wall_s, "net_s": net_s, "speed": front_s / net_s,
           "first_slice": first, "speeds": speeds, "starts": n_starts,
           "gate_failures": fails, "converged": 0, "failed_starts": 0, "record": {}}
    if rc == 0:
        entries = json.loads((outdir / "archive.json").read_text())["entries"]
        rec["converged"] = sum(1 for e in entries if e["converged"])
        rec["failed_starts"] = sum(1 for e in entries if e["error"] is not None)
        rec["bytes_written"] = sum(p.stat().st_size for p in outdir.iterdir())
        rec["record"] = {
            "archive.csv.sha256": sha256(outdir / "archive.csv"),
            "front.csv.sha256": sha256(outdir / "front.csv"),
            "solver.iterations": sum(e["iterations"] for e in entries),
        }
    shutil.rmtree(outdir, ignore_errors=True)
    return rec


def front_profile(cols, labels, lo, hi):
    """Per-label call counts, inclusive and self seconds, and the facts the
    layer metrics need, for the spans with index in [lo, hi)."""
    name = cols["name"][lo:hi]
    parent = cols["parent"][lo:hi] - lo
    tag = cols["tag"][lo:hi]
    extra = cols["extra"][lo:hi]
    flag = cols["flag"][lo:hi]
    dur = (cols["end"][lo:hi] - cols["start"][lo:hi]) * 1e-9
    inner = parent >= 0
    child = np.bincount(parent[inner], weights=dur[inner], minlength=hi - lo)
    self_s = dur - child
    nl = len(labels)
    ids = {label: i for i, label in enumerate(labels)}
    calls = np.bincount(name, minlength=nl)
    total = np.bincount(name, weights=dur, minlength=nl)
    selft = np.bincount(name, weights=self_s, minlength=nl)

    def is_(label):
        return name == ids[label] if label in ids else np.zeros(len(name), bool)

    def stat(label):
        i = ids.get(label)
        return (0, 0.0, 0.0) if i is None else (int(calls[i]), float(total[i]), float(selft[i]))

    def count_time(mask):
        return int(mask.sum()), float(dur[mask].sum())

    parent_name = np.where(inner, name[np.maximum(parent, 0)], -1)
    step_ids = [ids[s] for s in STEPS if s in ids]
    sd = is_("direction.solve_direction")
    mn = is_("direction.min_norm_in_hull")
    solve = is_("solver.solve_constrained")
    nd = is_("globalize.nondominated_filter")
    steps = {}
    for s in STEPS:
        ok = is_(s) & (flag & RAISED == 0)
        steps[s] = (int(ok.sum()), float(tag[ok].sum()), int((flag[ok] & REPAIRED != 0).sum()))
    return {
        "stat": stat,
        "iterations": int(tag[solve].sum()),
        "sp2_steps": int(extra[solve].sum()),
        "kind": {k: count_time(sd & (tag == v)) for k, v in KIND_TAGS.items()},
        "k2": count_time(mn & (tag == 2)),
        "k3plus": count_time(mn & (tag >= 3)),
        "project_raised": int((is_("geometry.project") & (flag & RAISED != 0)).sum()),
        "step_trials": int((is_("problems.F") & np.isin(parent_name, step_ids)).sum()),
        "steps": steps,
        "nondominated": (int(extra[nd].sum()), int(tag[nd].sum())),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def _us_per_call(count_time):
    count, seconds = count_time
    return _ratio(seconds, count) * 1e6


def layer_metrics(p, bytes_written):
    """Per-layer metrics of one traced front.  A per-call time reads 0 when
    the function was not called in the front; ``unmeasured`` names those."""
    st = p["stat"]
    it = p["iterations"]

    def us(label):
        return _us_per_call(st(label)[:2])

    def per_iter(*labels):
        return _ratio(sum(st(label)[0] for label in labels), it)

    map_calls = sum(st(f"problems.{m}")[0] for m in MAPS)
    map_time = sum(st(f"problems.{m}")[1] for m in MAPS)
    mn_all = st("direction.min_norm_in_hull")[0]
    steps_taken = sum(p["steps"][s][0] for s in STEPS)
    front_total = st(ROOT_SPAN)[1]
    solve_total = st("solver.solve_constrained")[1]
    globalize_total = sum(st(label)[1] for label in
                          ("globalize.nondominated_filter", "globalize.deduplicate", *WRITERS))
    m = {
        "problems.evaluate.us": us("problems.evaluate"),
        "problems.evaluate.per_iter": per_iter("problems.evaluate"),
        "problems.F.per_iter": per_iter("problems.F"),
        "problems.G.per_iter": per_iter("problems.G"),
        "problems.H.per_iter": per_iter("problems.H"),
        "problems.jac.per_iter": per_iter("problems.DF", "problems.DG", "problems.DH"),
        "problems.maps.us": _ratio(map_time, map_calls) * 1e6,
        "direction.solve_direction.SP1.us": _us_per_call(p["kind"]["SP1"]),
        "direction.solve_direction.SP2.us": _us_per_call(p["kind"]["SP2"]),
        "direction.solve_direction.per_iter": per_iter("direction.solve_direction"),
        "direction.min_norm_in_hull.k2.us": _us_per_call(p["k2"]),
        "direction.min_norm_in_hull.k3plus.us": _us_per_call(p["k3plus"]),
        "direction.min_norm_in_hull.k3plus_frac": _ratio(p["k3plus"][0], mn_all),
        "direction.tangent_basis.us": us("direction.tangent_basis"),
        "direction.active_set.per_iter": per_iter("direction.active_set"),
        "geometry.project.us": us("geometry.project"),
        "geometry.project.per_iter": per_iter("geometry.project"),
        "geometry.project.fail_frac": _ratio(p["project_raised"], st("geometry.project")[0]),
        "geometry.feasible_start.us": us("geometry.feasible_start"),
        "linesearch.trials_per_step": _ratio(p["step_trials"], steps_taken),
        "solver.iterations": it,
        "solver.us_per_iter": _ratio(solve_total, it) * 1e6,
        "solver.self_us_per_iter": _ratio(st("solver.solve_constrained")[2], it) * 1e6,
        "solver.sp2_frac": _ratio(p["sp2_steps"], it),
        "globalize.multistart.s": st("globalize.multistart")[1],
        "globalize.dominance_flags.calls": st("globalize.dominance_flags")[0],
        "globalize.dominance_flags.s": st("globalize.dominance_flags")[1],
        "globalize.nondominated_frac": _ratio(*p["nondominated"]),
        "globalize.deduplicate.s": st("globalize.deduplicate")[1],
        "globalize.writers.self_s": sum(st(w)[2] for w in WRITERS),
        "cli.front.self_s": st(ROOT_SPAN)[2],
        "cli.bytes_written": bytes_written,
        "share.solver_loop": _ratio(st("globalize.multistart")[1], front_total),
        "share.globalize": _ratio(globalize_total, front_total),
        "share.project_of_solve": _ratio(st("geometry.project")[1], solve_total),
    }
    for s in STEPS:
        taken, k_sum, repaired = p["steps"][s]
        m[f"{s}.us"] = us(s)
        m[f"{s}.k_mean"] = _ratio(k_sum, taken)
        m[f"{s}.repaired_frac"] = _ratio(repaired, taken)
    return m


def count_record(p):
    """Exact work counts of one traced front, for the determinism record."""
    st = p["stat"]
    rec = {f"problems.{m}.calls": st(f"problems.{m}")[0] for m in MAPS}
    rec["problems.evaluate.calls"] = st("problems.evaluate")[0]
    rec["globalize.dominance_flags.calls"] = st("globalize.dominance_flags")[0]
    return rec


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny grid, one round")
    ap.add_argument("--work-dir", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--spans", help="file the spans of a traced run are written to")
    ap.add_argument("--result", required=True, help="file the measurements are written to")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import modescent
    import modescent.cli as cli

    src = (ROOT / "src").resolve()
    if src not in Path(modescent.__file__).resolve().parents:
        print(f"modescent was imported from {modescent.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    counts = workload.smoke_grid if args.smoke else workload.grid
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    hook = ProblemHook(cli, counts)
    reference = hook.reference(workload)

    solve_s = []
    clock = time.perf_counter
    inner = modescent.globalize.solve_constrained

    sampler = SpeedSampler()

    def timed_solve(*a, **kw):
        gap = sampler.latest()
        paused = sampler.paused
        t0 = clock()
        try:
            return inner(*a, **kw)
        finally:
            solve_s.append((clock() - t0 - (sampler.paused - paused), gap))

    timer = [(["modescent.globalize"], inner, timed_solve)]
    tracer = Tracer() if args.trace else None

    # warm-up: first-call costs (lazy imports, caches) stay out of the timings
    hook.offset = grid_offsets(args.seed, len(counts), 0)[0]
    warm = work / "warmup"
    cli.main(["front", *workload.source, "--grid", "x".join(map(str, workload.smoke_grid)),
              *workload.options, "--out", str(warm)])
    shutil.rmtree(warm, ignore_errors=True)

    fronts = []
    traced_ranges = []

    def untraced_front(placement, offset):
        first = len(solve_s)
        with rebound(timer):
            rec = run_front(cli, workload, counts, work / f"front-{len(fronts)}",
                            reference, hook, offset, sampler, periodic=True)
        speeds, base = rec.pop("speeds"), rec.pop("first_slice")
        rec.update(placement=placement, offset=list(offset), traced=False,
                   solve_ms=[s * 1e3 * speeds[gap - base] for s, gap in solve_s[first:]])
        fronts.append(rec)

    def traced_front(placement, offset):
        lo = len(tracer.name)
        hook.tracer = tracer
        cli_main, cli.main = cli.main, traced_main
        try:
            with rebound(layers):
                # no periodic slices here: they would land inside spans
                rec = run_front(cli, workload, counts, work / f"front-{len(fronts)}",
                                reference, hook, offset, sampler, periodic=False)
        finally:
            cli.main = cli_main
            hook.tracer = None
        # Two bracket slices are a poor speed estimate, so a traced front is
        # rescaled with the speed of the untraced front run just before it
        # on the same placement.
        del rec["speeds"], rec["first_slice"]
        rec.update(placement=placement, offset=list(offset), traced=True,
                   speed=fronts[-1]["speed"], front_s=rec["net_s"] * fronts[-1]["speed"])
        traced_ranges.append((len(fronts), lo, len(tracer.name)))
        fronts.append(rec)

    t_start = clock()

    def time_left():
        return not args.smoke and clock() - t_start < args.seconds

    if tracer is None:
        # whole rounds, so that every placement of a round weighs the same
        r = 0
        while r == 0 or time_left():
            for j, offset in enumerate(grid_offsets(args.seed, len(counts), r)):
                untraced_front(f"{r}.{j}", offset)
            if r == 0:
                # the peak of a fixed amount of work, the warm-up and one
                # round, so that the bookkeeping of later rounds stays out
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            r += 1
    else:
        # an untraced and a traced front per placement of round 0, until time is up
        traced_main = tracer.wrap(ROOT_SPAN, cli.main)
        layers = tracer.layer_replacements(modescent)
        for j, offset in enumerate(grid_offsets(args.seed, len(counts), 0)):
            if j and not time_left():
                break
            untraced_front(f"0.{j}", offset)
            traced_front(f"0.{j}", offset)

    result = {"fronts": fronts}
    if tracer is None:
        result["peak_rss_mb"] = peak_rss_mb
    else:
        cols = tracer.columns()
        per_front = []
        for index, lo, hi in traced_ranges:
            p = front_profile(cols, tracer.labels, lo, hi)
            rec = fronts[index]
            metrics = layer_metrics(p, rec.get("bytes_written", 0))
            for name, unit in PER_LAYER:
                if unit in ("us", "s") and name in metrics:
                    metrics[name] *= rec["speed"]
            per_front.append(metrics)
            rec["record"].update(count_record(p))
        called = set(np.unique(cols["name"]).tolist())
        result["layer_fronts"] = per_front
        result["unmeasured"] = [label for i, label in enumerate(tracer.labels) if i not in called]
        np.savez_compressed(args.spans, labels=np.array(tracer.labels), **cols)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
