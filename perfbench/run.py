"""dendrowave benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the same checkout.  One process
runs one workload on one thread as a closed loop: passes run back to back,
each call in a pass starts after the previous one returned, and the
outputs of every pass are checked after it, outside its timed region.
Passes continue until the next one would end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the
set-up time, the median pass wall time and the peak RSS.  A set-up round
starts a fresh interpreter that imports the program, then makes and writes
the inputs; three rounds run before the first pass and one before each
later pass, and ``setup_s`` is their median.

On a shared 2-vCPU virtual machine every program slows by up to 1.6x for
tens of seconds at a time, so raw times of the same code differ more
between runs than a regression bound allows.  ``wall_s`` is therefore
given in reference seconds: a fixed pure-Python loop that does not touch
the program (`reference_s`) is timed before each pass and after each of
its ops, and each pass's wall time is scaled by ``REF_S`` over the median
of the samples taken around it.  On a host at the reference speed a
reference second is a second.  The raw figures stay in the report, and
``--trace 1`` prints them as ``wall_raw_s`` and ``ref_s``.  ``setup_s``
stays in raw seconds: set-up rounds are mostly process start and import,
which follow the loop's speed too loosely for the scaling to steady them.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``spans.py``).  The last
line of standard output is the result; the lines before it summarise the
run, and ``.perfbench/<workload>-seed<seed>-trace<t>.json`` keeps the full
record: environment, every pass, quartiles and the traced spans.

``metric_map.json`` names, for each per-layer metric, the end-to-end
metrics and workloads it is expected to move; ``baseline.json`` holds the
figures measured at the commit that introduced the benchmark; and
``python3 perfbench/selftest.py`` checks the benchmark itself.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUPS = 3
IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import dendrowave"
MIN_PASSES = 2
REF_LOOP = 200_000  # iterations of one reference sample
REF_S = 0.012  # a reference sample's time at the reference speed
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# per-layer command times on `pipeline`: metric -> the ops it sums
COMMAND_TIMES = {
    "cluster_s": ("cluster",),
    "transform_s": ("transform",),
    "filter_s": ("filter",),
    "padic_s": ("padic_encode", "padic_decode"),
    "check_pass_s": ("check_pass",),
    "check_fail_s": ("check_fail",),
}


def load_program() -> None:
    """Import numpy and dendrowave from this checkout."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import dendrowave

    if not Path(dendrowave.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"dendrowave imported from {dendrowave.__file__}, not {src}")


def setup_round(workload) -> dict[str, float]:
    """Seconds from a fresh interpreter's start to the program imported, then
    to the workload's inputs made and written."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(ROOT / "src")], check=True)
    imported = time.perf_counter()
    workload.setup()
    return {"import_s": imported - start, "inputs_s": time.perf_counter() - imported}


def reference_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    return time.perf_counter() - start


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def stats(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "samples": len(values)}


def measure(workload, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Set up and run passes until the next would end past the deadline."""
    from spans import Tracer

    clock = time.perf_counter
    tracer = Tracer()
    passes: list[dict] = []
    setups: list[dict] = []
    longest = 0.0
    deadline = clock() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        begin = clock()
        for _ in range(1 if passes else SETUPS):
            setups.append(setup_round(workload))
        workload.prepare()
        gc.collect()
        first = len(tracer.spans)
        refs = [reference_s()]
        with tracer.installed() if traced else contextlib.nullcontext():
            start = clock()
            times, state, failures = workload.run_pass(clock, lambda: refs.append(reference_s()))
        wall = sum(times.values())
        checks = workload.checks(state)
        try:
            digest = workload.digest(state)
        except Exception as exc:  # outputs missing: the checks above say which
            digest = None
            checks["digest"] = f"raised {type(exc).__name__}: {exc}"
        if passes and digest != passes[0]["digest"]:
            checks["digest_stable"] = "digest differs from the first pass"
        del state
        bytes_read, bytes_written = workload.bytes_io()
        passes.append({
            "traced": traced,
            "wall_s": wall,
            "ref_s": refs,
            "wall_ref_s": wall * REF_S / statistics.median(refs),
            "op_s": times,
            "op_failures": failures,
            "checks": checks,
            "n_checks": len(checks),
            "digest": digest,
            "bytes_read": bytes_read,
            "bytes_written": bytes_written,
            "spans": [[k, s - start, e - start, p - first if p >= 0 else -1, a]
                      for k, s, e, p, a in tracer.spans[first:]],
        })
        longest = max(longest, clock() - begin)
        if len(passes) >= MIN_PASSES and clock() + longest > deadline:
            return passes, setups


def end_to_end(passes, setups) -> dict[str, dict]:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {**stats([s["import_s"] + s["inputs_s"] for s in setups]), "rounds": setups},
        "wall_s": stats([p["wall_ref_s"] for p in passes]),
        "peak_rss_mb": {"median": rss_mb, "samples": 1},
    }


def per_layer(passes) -> dict[str, dict]:
    from spans import layer_metrics

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [layer_metrics(p["spans"]) for p in traced]
    out = {key: stats([m[key] for m in per_pass]) for key in per_pass[0]}
    for metric, ops in COMMAND_TIMES.items():
        out[metric] = stats([sum(p["op_s"].get(op, 0.0) for op in ops) for p in plain])
    out["cli.bytes_read"] = stats([p["bytes_read"] for p in plain])
    out["cli.bytes_written"] = stats([p["bytes_written"] for p in plain])
    out["wall_raw_s"] = stats([p["wall_s"] for p in plain])
    out["ref_s"] = stats([r for p in plain for r in p["ref_s"]])
    out["trace.wall_s"] = stats([p["wall_s"] for p in traced])
    ref_wall = statistics.median(p["wall_ref_s"] for p in plain)
    out["trace_overhead_frac"] = {
        "median": statistics.median(p["wall_ref_s"] for p in traced) / ref_wall - 1.0,
        "samples": len(traced),
    }
    return out


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, sizes=None) -> int:
    """Run one workload and print the result; ``sizes`` shrinks it for tests."""
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import dendrowave from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir, **(sizes or {}))
    try:
        passes, setups = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        measured, listed = per_layer(passes), declared["per_layer"]
    else:
        measured, listed = end_to_end(passes, setups), declared["end_to_end"]
    attempted = sum(len(p["op_s"]) + p["n_checks"] for p in passes)
    failed = sum(
        len(p["op_failures"]) + sum(1 for v in p["checks"].values() if v) for p in passes
    )
    report = {
        "environment": environment(args),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "digest": passes[0]["digest"],
        "metrics": measured,
        "passes": passes,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")

    n_traced = sum(p["traced"] for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(passes) - n_traced} untraced, {n_traced} traced)")
    for m in listed:
        s = measured[m["name"]]
        print(f"  {m['name']} = {s['median']:.6g} {m['unit']} (median of {s['samples']})")
    print(f"  attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.6g}")
    for i, p in enumerate(passes):
        for problem in p["op_failures"] + [f"{k}: {v}" for k, v in p["checks"].items() if v]:
            print(f"  pass {i} FAILED {problem}")
    print(f"  digest {passes[0]['digest']}")
    print(f"  report {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]]["median"], "unit": m["unit"]}
            for m in listed
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
