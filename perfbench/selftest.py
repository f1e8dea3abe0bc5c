"""Self-tests of the benchmark, on tiny inputs, in one process.

Run from the repository root:

    python3 perfbench/selftest.py

Exits 0 when every test passes.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np

import run

TINY = {
    "pipeline": {"n": 24, "m": 3, "centres": 3, "keep": 4},
    "codec": {"n": 64, "pway_internal": 16, "pairs": 16},
    "codec-deep": {"n": 48, "pway_internal": 16, "pairs": 16},
}


def expect(cond, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def execute(workload: str, seed: int, trace: int = 0) -> tuple[dict, str, list[str]]:
    """One tiny in-process run: result line, digest and summary lines."""
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
            "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        rc = run.main(argv, sizes=TINY[workload])
    lines = out.getvalue().splitlines()
    expect(rc == 0, f"{workload}: exit {rc}")
    digest = next(ln.split()[1] for ln in lines if ln.startswith("  digest "))
    return json.loads(lines[-1]), digest, lines


def test_every_metric_printed_with_unit():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    mapped = json.loads((run.ROOT / "perfbench" / "metric_map.json").read_text())["metrics"]
    expect(set(mapped) == {m["name"] for m in declared["per_layer"]},
           "metric_map.json and BENCHMARK.json list different per-layer metrics")
    for workload in TINY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _, lines = execute(workload, 11, trace)
            expect(result["correct"] and result["failed"] == 0, f"{workload}: {lines}")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared[key]}
            expect(got == want, f"{workload} trace {trace}: metrics {got}")
            for name, unit in want.items():
                expect(any(ln.startswith(f"  {name} = ") and f" {unit} " in ln for ln in lines),
                       f"{workload}: {name} not printed with its unit")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                expect(m["trace.self_sum_s"] <= m["trace.wall_s"],
                       f"{workload}: span self times exceed the traced pass")
                if workload == "pipeline":
                    # cli cluster, plus the single-linkage rerun in the passing check
                    expect(m["hcluster.agglomerate.calls"] == 2, f"pipeline: {m}")
                    expect(m["cli.cluster.self_s"] > 0 and m["cluster_s"] > 0, f"pipeline: {m}")
                else:
                    # encode, plus the re-encode inside cluster_code
                    expect(m["padic.encode.calls"] == 2, f"{workload}: {m}")
                    expect(m["hcluster.agglomerate.calls"] == 0, f"{workload}: {m}")
                    expect(m["haar.branch_codes_bytes"] > 0, f"{workload}: {m}")


def test_fault_injection_counts_failures():
    import dendrowave
    import workloads

    real_encode = dendrowave.encode

    def flipped_encode(d, base=3):
        codes, C = real_encode(d, base)
        C = C.copy()
        i = int(np.flatnonzero(C[:, 0])[0])
        C[i, 0] = -C[i, 0]
        return codes, C

    with mock.patch.object(dendrowave, "encode", flipped_encode):
        result, _, _ = execute("codec", 12)
    expect(not result["correct"] and 0 < result["failed"] <= result["attempted"],
           f"flipped sign not caught: {result}")

    class WrongExitCode(workloads.Pipeline):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            name, argv, _ = self.steps[-1]
            self.steps[-1] = (name, argv, 0)  # the failing check really exits 1

    with mock.patch.dict(workloads.WORKLOADS, {"pipeline": WrongExitCode}):
        result, _, _ = execute("pipeline", 12)
    expect(not result["correct"] and result["failed"] > 0,
           f"violated exit-code expectation not caught: {result}")

    # a command that writes nothing: every later step and check must fail, not crash
    with mock.patch.object(dendrowave.cli, "cmd_cluster", lambda args: 2):
        result, _, _ = execute("pipeline", 12)
    expect(not result["correct"] and result["failed"] >= 7,
           f"missing cluster outputs not caught: {result}")


def test_same_seed_same_digest():
    for workload in TINY:
        first = execute(workload, 13)[1]
        expect(first == execute(workload, 13)[1], f"{workload}: digest changed on a rerun")
        expect(first != execute(workload, 14)[1], f"{workload}: digest ignores the seed")


def test_fails_without_the_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in (run.ROOT / "perfbench").iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "codec", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "ran without src/")
    expect('"correct"' not in proc.stdout, "printed a result without src/")


def main() -> int:
    failures = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
