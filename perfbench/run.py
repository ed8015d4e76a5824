"""mvdet benchmark: one process, one client, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload scene-decode --seed 1 --seconds 32 --trace 0

Builds the workload's inputs from ``--seed``, warms up with one operation,
then runs operations back to back for about ``--seconds`` seconds and checks
every output.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics (``ops_per_s`` scaled to a reference machine speed, see
REF_KERNEL_S); with ``--trace 1`` it holds the per-layer metrics of a traced
run, in which untraced and traced operations alternate on identical inputs.
The line before it holds the workload descriptors.  See perfbench/README.md.
"""

import os

# BLAS and OpenMP must see these before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# Run by a fresh interpreter: the time to import numpy and mvdet's modules.
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); import numpy; "
    "from mvdet import augment, camgeo, decoder, featcore, matching, metrics, synth; "
    "print(time.perf_counter() - t0)"
)
P90_MIN_OPS = 100


def _load_package():
    """Import mvdet's modules from this checkout's src/ and nowhere else."""
    try:
        import mvdet
        from mvdet import augment, camgeo, decoder, featcore, matching, metrics, synth  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mvdet from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(mvdet.__file__))) != SRC:
        sys.exit(f"perfbench: mvdet was imported from {mvdet.__file__}, not from {SRC}")


def _import_seconds() -> float:
    """Median over IMPORT_REPEATS fresh interpreters of the import time of
    numpy and mvdet.  A process imports only once, and one import time
    varies by up to 2x on a shared machine."""
    times = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


# A shared virtual machine can change speed by up to 2x for seconds to
# minutes (seen on a 2-vCPU Xeon VM, with no steal time reported), which moves
# every wall-clock figure alike.  After each operation the benchmark runs a
# fixed reference kernel for REF_SHARE of that operation's time, and reports
# ops_per_s at the speed where that kernel takes REF_KERNEL_S.  The raw rate
# is on the descriptor line.
REF_SHARE = 0.08
REF_KERNEL_S = 0.01


def _reference_kernel() -> float:
    """Fixed work that does not use mvdet: small matrix products,
    elementwise numpy and a Python loop.  Returns its wall seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    a = rng.random((64, 64))
    x = rng.random((64, 64))
    acc = 0.0
    for i in range(300):
        acc += float(np.tanh((a @ x)[i % 64]).sum())
        x = x * 0.999 + 0.001
    s = 0
    for i in range(20000):
        s += i * i % 7
    return time.perf_counter() - t0


def _reference(seconds: float, samples: list) -> float:
    """Run the reference kernel at least once and for about ``seconds``;
    returns the time spent."""
    t0 = time.perf_counter()
    while True:
        samples.append(_reference_kernel())
        if time.perf_counter() - t0 >= seconds:
            return time.perf_counter() - t0


def _run_op(wl, i: int, traced=contextlib.nullcontext):
    """One timed operation plus its untimed check; returns (seconds, output,
    ok, check seconds).  ``traced`` brackets the operation but not the check."""
    with traced():
        t0 = time.perf_counter()
        try:
            out = wl.run(i)
        except Exception:
            out = None
            traceback.print_exc()
        took = time.perf_counter() - t0
    if out is None:
        return took, None, False, 0.0
    t0 = time.perf_counter()
    try:
        problems = wl.check(i, out)
    except Exception:
        traceback.print_exc()
        problems = ["check raised"]
    for problem in problems:
        print(f"perfbench: {wl.name} op {i}: {problem}", file=sys.stderr)
    return took, out, not problems, time.perf_counter() - t0


def main(argv=None) -> int:
    _load_package()
    from tracing import Tracer, layer_report
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    # Turn SIGTERM into SystemExit so the work directory is still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    imported = _import_seconds()
    work_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.trace else None
        builds = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            if tracer:
                with tracer.group("setup", rep):
                    wl.build()
            else:
                wl.build()
            builds.append(time.perf_counter() - t0)
        warm_s, warm_out, warm_ok, _ = _run_op(wl, 0)
        if warm_out is None:
            print("perfbench: warm-up operation failed", file=sys.stderr)
            return 1
        # The warm-up is one operation, as noisy as any other, so it is
        # reported beside setup_s rather than inside it.
        setup_s = imported + statistics.median(builds)
        descriptors = wl.describe(warm_out)
        warm_digest = wl.digest(warm_out)
        del warm_out

        untraced, traced, ref = [], [], []
        attempted = failed = 0
        ref_spent = check_spent = 0.0
        phase0 = time.perf_counter()
        while True:
            i = attempted
            took, out, ok, check_s = _run_op(wl, i)
            check_spent += check_s
            ref_spent += _reference(REF_SHARE * took, ref)
            digest = wl.digest(out) if out is not None else None
            out = None  # release the outputs before the next operation allocates
            untraced.append(took)
            step = took
            if tracer:
                took_t, out_t, ok_t, check_s = _run_op(wl, i, lambda: tracer.group("op", i))
                check_spent += check_s
                same = out_t is not None and wl.digest(out_t) == digest
                out_t = None
                if not same:
                    print(f"perfbench: op {i}: traced output digest differs from untraced", file=sys.stderr)
                traced.append(took_t)
                step += took_t
                ok = ok and ok_t and same
            elif i == 0 and digest is not None and digest != warm_digest:
                print("perfbench: op 0 output differs from the warm-up's", file=sys.stderr)
                ok = False
            attempted += 1
            failed += not ok
            if time.perf_counter() - phase0 + step > args.seconds:
                break
        phase_s = time.perf_counter() - phase0 - ref_spent - check_spent

        info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "ops": attempted,
            "op_s": [round(t, 4) for t in untraced],
            "failed_ops_frac": failed / attempted,
            "op_s.p50": statistics.median(untraced),
            "warmup_s": warm_s,
            "ops_per_s.raw": attempted / phase_s,
            "ref_kernel_s": statistics.fmean(ref),
            "descriptors": descriptors,
        }
        if getattr(wl, "voided", None):
            info["voided"] = wl.voided
        if len(untraced) >= P90_MIN_OPS:
            info["op_s.p90"] = statistics.quantiles(untraced, n=10)[-1]
        if tracer:
            metrics, info["accounting"] = layer_report(
                tracer, wl.mlp_roles, wl.layer_extras(descriptors), untraced, traced
            )
            spans_path = os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.tsv")
            tracer.write(spans_path)
            info["spans"] = os.path.relpath(spans_path, ROOT)
        else:
            metrics = {
                "ops_per_s": {"value": attempted / phase_s * statistics.fmean(ref) / REF_KERNEL_S, "unit": "1/s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and warm_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
