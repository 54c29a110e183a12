"""tsfem benchmark: time to solution on periodic-flow workloads.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload bent_n7 --seed 0 --seconds 55 --trace 0

With ``--trace 0`` the run repeats the workload's set-up and solve for
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones, with the tracing overhead.  The last line of
standard output is one JSON object; the full record, and the spans of a
traced run, go to ``.bench_out/``.  See benchmarks/README.md.
"""

import os

# Single-threaded BLAS, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SETUP_REPS = 5   # set-ups before each solve repetition, and once more at the start

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "error_rel": "ratio"}


def environment(seed: int, src: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit, "src_sha256": digest.hexdigest(), "seed": seed,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def timed_setups(workload, times):
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = workload.setup()
        times.append(time.perf_counter() - t0)
    return inputs


def run_rep(workload, inputs, recorder, traced):
    """One repetition: (solve seconds, outcome, counts, set-up seconds, layer metrics)."""
    from tracing import layer_metrics
    from workloads import Outcome

    recorder.reset()
    recorder.install(traced)
    try:
        if traced and not workload.setup_in_solve:
            with recorder.root("setup"):
                inputs = workload.setup()
        t0 = time.perf_counter()
        try:
            with recorder.root("solve"):
                outcome = workload.solve(inputs, recorder)
        except Exception:  # a solve that raises counts as a failed operation
            traceback.print_exc()
            outcome = Outcome()
            outcome.check("raised", False)
        t1 = time.perf_counter()
    finally:
        recorder.restore()
    layers = layer_metrics(recorder) if traced else None
    return t1 - t0, outcome, dict(recorder.counts), recorder.setup_s, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tsfem" / "__init__.py").is_file():
        print(f"error: {src / 'tsfem'} not found; run from the root of a tsfem "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from tracing import REPEATED_COUNTS, Recorder, layer_unit, self_time_table
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(args.seed, src)
    print("environment " + json.dumps(env, sort_keys=True))
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)

    setup_times = []
    if workload.setup_in_solve:
        workload.setup()    # warm-up only: the timed set-up runs inside each solve
    else:
        timed_setups(workload, setup_times)
    recorder = Recorder()
    reps = []
    traced_spans = []   # spans of the last traced repetition
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        inputs = None if workload.setup_in_solve else timed_setups(workload, setup_times)
        solve_s, outcome, counts, inner_setup_s, layers = run_rep(workload, inputs, recorder, traced)
        if traced:
            traced_spans = recorder.spans
        reps.append({"traced": traced, "solve_s": solve_s, "inner_setup_s": inner_setup_s,
                     "outcome": outcome,
                     "counts": {k: counts.get(k, 0) for k in REPEATED_COUNTS},
                     "layers": layers})
        print(f"rep {len(reps)}{' traced' if traced else ''}: solve {solve_s:.4f} s, "
              f"set-up inside solve {inner_setup_s:.6f} s, "
              f"{outcome.failed}/{outcome.attempted} failed, error_rel {outcome.error_rel:.6g}, "
              f"counts {reps[-1]['counts']}", flush=True)
        elapsed = time.perf_counter() - start
        if elapsed * (len(reps) + 1) / len(reps) > args.seconds \
                and (not args.trace or len(reps) >= 2):
            break

    attempted = sum(r["outcome"].attempted for r in reps)
    failed = sum(r["outcome"].failed for r in reps)

    # exact-count repeat check, within this run and against earlier runs of
    # the same source on the same inputs
    key = hashlib.sha256("\n".join((env["src_sha256"], env["numpy"], env["blas"],
                                    workload.text)).encode()).hexdigest()[:16]
    record = OUT / "counts" / f"{args.workload}-seed{args.seed}-{key}.json"
    expected = json.loads(record.read_text()) if record.is_file() else reps[0]["counts"]
    for rep in reps:
        attempted += 1
        if rep["counts"] != expected:
            failed += 1
            print(f"count mismatch: {rep['counts']} != {expected}", file=sys.stderr)
    if not record.is_file():
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(expected, sort_keys=True))

    plain = [r["solve_s"] for r in reps if not r["traced"]]
    q1, q3 = quartiles(plain)
    if workload.setup_in_solve:
        setup_times = [r["inner_setup_s"] for r in reps if not r["traced"]]
    if args.trace:
        traced_reps = [r for r in reps if r["traced"]]
        names = traced_reps[0]["layers"].keys()
        metrics = {k: statistics.median(r["layers"][k] for r in traced_reps) for k in names}
        # traced and untraced repetitions alternate; compare equal numbers of
        # each, leaving out the first untraced one, which pays for first calls
        warm = plain[1:] or plain
        n = min(len(traced_reps), len(warm))
        metrics["trace.overhead_s"] = (statistics.median(r["solve_s"] for r in traced_reps[:n])
                                       - statistics.median(warm[:n]))
        units = {k: layer_unit(k) for k in metrics}
        print("span self times of the last traced repetition (name, calls, inclusive s, self s):")
        table = self_time_table(traced_spans)
        for name, calls, incl, own in table:
            print(f"  {name:34s} {calls:7d} {incl:10.4f} {own:10.4f}")
        accounted = sum(own for _, _, _, own in table)
        print(f"  self times sum to {accounted:.6f} s; traced solve {metrics['trace.solve_s']:.6f} s "
              f"(last rep {traced_reps[-1]['layers']['trace.solve_s']:.6f} s)")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(traced_spans))
    else:
        metrics = {
            "solve_s": statistics.median(plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_rel": statistics.median(r["outcome"].error_rel for r in reps),
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"solve times over {len(plain)} untraced repetitions: median "
          f"{statistics.median(plain):.4f} s, q1 {q1:.4f} s, q3 {q3:.4f} s, min {min(plain):.4f} s; "
          f"set-up median {statistics.median(setup_times):.6f} s over {len(setup_times)}")
    print(f"failed_share = {failed}/{attempted} = {failed / attempted:.4g}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}
    full = dict(result, environment=env, workload=args.workload, seconds=args.seconds,
                trace=args.trace, solve_quartiles_s=[q1, q3], setup_times=setup_times,
                reps=[dict(r, outcome=vars(r["outcome"])) for r in reps])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
