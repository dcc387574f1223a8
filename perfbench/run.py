"""End-to-end benchmark of the uniformity-lab CLI.

    python3 perfbench/run.py --workload norms --seed 1 --seconds 15 --trace 0

Load model: one process per workload is a single closed-loop client with
threads=1.  It runs the workload's seeded job list (see workloads.py) pass
after pass until --seconds have elapsed, each job a CLI command run in-process
through `uniformity_lab.cli.main(argv)` with `--out` pointed at a scratch
report.  Before every job every functools cache in the package is cleared, so
each job pays its own table builds as a one-command-per-process user does.
Answers are checked outside the timed region (checks.py); a job fails on a
non-zero exit, an exception, a budget refusal, a failed answer check, or a
report whose bytes differ from the first pass.

Times are given in reference seconds.  A vCPU share of a busy host can change
speed by up to 2x within seconds (seen on a 2-vCPU Xeon VM, where plain wall_s
spread by up to 48% over ten runs), so every timed span (a job, a set-up) is
bracketed by a fixed probe and scaled by (the probe's nominal time) / (mean
probe time around it): a span that took 1.2 s while the probe ran 20% slow
reads 1.0.  The probe is the benchmark's own code, so a change to the
package moves the scaled figures as it moves plain seconds.  Code of
different kinds slows by different amounts, so each workload's probe is of
the kind its jobs spend their time in (PROBES); memory-bound jobs slow less
than either probe.  The plain figures are printed alongside.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (tracing.py).  The metric names
and units come from BENCHMARK.json.  Everything the run writes stays under
.perfbench_work/ in the repository root; the last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
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

# Pin BLAS to one thread before numpy loads: the client runs with threads=1 on
# a small shared machine, and a fixed thread count keeps float results and
# timings repeatable.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS pins)
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
SETUP_REPS = 7
MIN_PASSES = 5
# no pass starts after this, so a run ends well inside three minutes
LAST_PASS_START_S = 120.0
# The tail percentile sits halfway into the third-slowest job's samples, so
# with MIN_PASSES = 5 at least 10 samples lie beyond it.
TAIL_JOBS_BEYOND = 2.5
IMPORT_TIMER = ("import time; t = time.perf_counter(); import uniformity_lab, "
                "uniformity_lab.cli; print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """Digest of the package and benchmark sources: keys the cross-run ledger."""
    h = hashlib.sha256()
    for base in (SRC / "uniformity_lab", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(args, numpy_module) -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = None
    with contextlib.suppress(TypeError, KeyError):  # older numpy, other builds
        info = numpy_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_module.__version__,
            "blas": blas, "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
            "git_commit": git_commit(), "source_sha256": source_digest()}


def python_loop() -> None:
    """Interpreter-bound: integer arithmetic in a pure-Python loop."""
    acc = 0
    for i in range(20000):
        acc += i * i % 7


_PROBE_MATRICES = tuple(np.random.default_rng(5).integers(0, 7, size=(6, 5))
                        for _ in range(16))


def row_reduction() -> None:
    """Small-array numpy calls in Python loops: ranks of small matrices over F_7."""
    for M in _PROBE_MATRICES:
        workloads.rank_mod_p(M, 7)


class SpeedProbe:
    """Times a fixed kernel to gauge the host's current speed.  `nominal` is
    about the kernel's median time on a 2-vCPU Xeon VM, so reference seconds
    read close to plain seconds there."""

    def __init__(self, kernel, nominal: float):
        self.kernel = kernel
        self.nominal = nominal

    def __call__(self) -> tuple[float, float]:
        """(wall, cpu) seconds of one run of the kernel."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0, time.process_time() - c0

    def scale(self, seconds: float, before: tuple, after: tuple, which: int = 0) -> float:
        """`seconds` in reference seconds, by the probes taken around the span
        (`which` picks the probes' wall (0) or CPU (1) time)."""
        return seconds * self.nominal / ((before[which] + after[which]) / 2.0)


# The catalog's branch and bound is small numpy row reductions, which a busy
# host slows about 1.6 times as much as plain integer arithmetic; scaled by the
# Python loop its wall_s still spread 18% over ten runs, by row_reduction 2-3%.
# The other workloads follow the Python loop more closely.
PROBES = {"norms": SpeedProbe(python_loop, 2.0e-3),
          "counts": SpeedProbe(python_loop, 2.0e-3),
          "experiments": SpeedProbe(python_loop, 2.0e-3),
          "catalog": SpeedProbe(row_reduction, 2.5e-3)}


def timed_setup(workload: str, seed: int, inputs: Path, probe: SpeedProbe):
    """Median over SETUP_REPS of (package import in a fresh interpreter +
    input generation), in plain and reference seconds; returns
    (setup_s, plain setup_s, job list)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    plain, scaled = [], []
    jobs = None
    for _ in range(SETUP_REPS):
        before = probe()
        child = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env,
                               capture_output=True, text=True, timeout=120,
                               check=True)
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        jobs = workloads.generate(workload, seed, str(inputs))
        took = float(child.stdout.split()[-1]) + time.perf_counter() - t0
        plain.append(took)
        scaled.append(probe.scale(took, before, probe()))
    return statistics.median(scaled), statistics.median(plain), jobs


def package_caches(package: str = "uniformity_lab") -> list:
    """Every functools cache reachable from the package's module namespaces."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def tail(latencies: list[float], jobs_per_pass: int) -> tuple[float, float]:
    """(value, percentile) of the percentile with TAIL_JOBS_BEYOND jobs' worth
    of samples beyond it.  The level depends only on the job count, so it is
    the same on every run, however many passes fit."""
    pct = 100.0 * (1.0 - TAIL_JOBS_BEYOND / jobs_per_pass)
    ordered = sorted(latencies)
    pos = pct / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), pct


class Runner:
    def __init__(self, jobs, outdir: Path, cli, checks, caches, tracer, seed: int,
                 probe: SpeedProbe):
        self.jobs = jobs
        self.probe = probe
        self.outdir = outdir
        self.cli = cli
        self.checks = checks
        self.caches = caches
        self.tracer = tracer
        self.check_rng = np.random.default_rng([seed, 1])
        self.digests: list[str | None] = [None] * len(jobs)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run_job(self, i: int, traced: bool) -> tuple[float, float]:
        job = self.jobs[i]
        out = self.outdir / f"job{i:03d}.json"
        with contextlib.suppress(FileNotFoundError):
            out.unlink()
        for cache in self.caches:
            cache.cache_clear()
        if self.tracer is not None:
            self.tracer.start_job(f"job{i:03d}")
            self.tracer.enabled = traced
        sink = io.StringIO()
        code, error = None, None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(job.argv + ["--out", str(out)])
        except (Exception, SystemExit) as exc:  # a crash fails the job, not the run
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.process_time()
        if self.tracer is not None:
            self.tracer.enabled = False
        self.attempted += 1
        problems = [error] if error else self.verify(i, code, out)
        if problems:
            self.failed += 1
            self.problems.append(f"{' '.join(job.argv)}: {'; '.join(problems)}")
        return t1 - t0, c1 - c0

    def verify(self, i: int, code, out: Path) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        if not out.is_file():
            return ["no report written"]
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digests[i] is None:
            self.digests[i] = digest
            try:
                return self.checks.check(self.jobs[i], json.loads(data), self.check_rng)
            except Exception as exc:  # a malformed report is a failed answer
                return [f"check raised {type(exc).__name__}: {exc}"]
        if digest != self.digests[i]:
            return ["report bytes differ from the first pass"]
        return []

    def run_pass(self, traced: bool) -> dict:
        """One pass over the job list, with a speed probe before each job and
        after the last.  `latencies`/`cpu` are in reference seconds, the
        `plain_` lists in plain seconds."""
        probes = [self.probe()]
        lat, cpu = [], []
        for i in range(len(self.jobs)):
            lat.append(self.run_job(i, traced))
            probes.append(self.probe())
        plain_lat, plain_cpu = zip(*lat)
        return {"traced": traced,
                "latencies": [self.probe.scale(t, probes[i], probes[i + 1])
                              for i, t in enumerate(plain_lat)],
                "cpu": [self.probe.scale(c, probes[i], probes[i + 1], 1)
                        for i, c in enumerate(plain_cpu)],
                "plain_latencies": list(plain_lat), "plain_cpu": list(plain_cpu),
                "probe_s": [w for w, _ in probes]}


def load_ledger(path: Path, key: str) -> dict:
    if path.is_file():
        with contextlib.suppress(ValueError):
            doc = json.loads(path.read_text())
            if doc.get("key") == key:
                return doc
    return {"key": key, "reports": None, "counts": None}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uniformity_lab" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    run_dir = WORK / f"{args.workload}-s{args.seed}"
    inputs, outdir = run_dir / "in", run_dir / "out"
    shutil.rmtree(run_dir, ignore_errors=True)

    setup_s, plain_setup_s, jobs = timed_setup(args.workload, args.seed, inputs,
                                             PROBES[args.workload])
    outdir.mkdir(parents=True, exist_ok=True)

    import uniformity_lab.cli as cli
    import checks

    caches = package_caches()  # before tracing wraps the public cached `domain`
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    runner = Runner(jobs, outdir, cli, checks, caches, tracer, args.seed,
                    PROBES[args.workload])

    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or (
            time.perf_counter() - start < LAST_PASS_START_S
            and (len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds)):
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(runner.run_pass(traced))
        if traced:
            passes[-1]["trace"] = tracer.take()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    prov = provenance(args, np)
    ledger_path = WORK / "ledger" / f"{args.workload}-s{args.seed}.json"
    ledger = load_ledger(ledger_path, prov["source_sha256"])
    if ledger["reports"] is not None and ledger["reports"] != runner.digests:
        runner.failed += 1
        runner.problems.append("report bytes differ from an earlier run of this "
                               "seed and source")
    ledger["reports"] = runner.digests

    lines = [f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
             f"x {len(jobs)} jobs, trace {args.trace}"]
    if args.trace:
        metrics, extra = traced_metrics(passes, bench, runner, ledger, args.workload)
    else:
        metrics, extra = plain_metrics(passes, bench, setup_s, peak_rss_mb)
        extra.append(f"plain seconds: wall_s {job_list_time(passes, 'plain_latencies')!r}, "
                     f"cpu_s {job_list_time(passes, 'plain_cpu')!r}, "
                     f"setup_s {plain_setup_s!r}; median probe "
                     f"{statistics.median(w for p in passes for w in p['probe_s'])!r} s "
                     f"(nominal {PROBES[args.workload].nominal!r} s)")
    lines += extra
    lines.append(f"fail_frac {runner.failed / runner.attempted!r} fraction "
                 f"({runner.failed} of {runner.attempted} jobs failed)")
    lines += [f"FAILED {p}" for p in runner.problems[:20]]
    lines.append("provenance " + json.dumps(prov, sort_keys=True))

    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    ledger_path.write_text(json.dumps(ledger, sort_keys=True) + "\n")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "result": result,
                    "passes": [{k: v for k, v in p.items() if k != "trace"}
                               for p in passes]}, sort_keys=True) + "\n")
    if args.trace:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        first = next(p for p in passes if p["traced"])
        tracing.write_spans(str(spans_dir / f"{args.workload}-s{args.seed}.jsonl.gz"),
                            first["trace"][0])
    shutil.rmtree(run_dir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def job_list_time(passes, key: str) -> float:
    """Time to finish the job list: the sum over jobs of each job's median
    across passes, which a slow spell during one pass does not move."""
    return sum(statistics.median(ts) for ts in zip(*(p[key] for p in passes)))


def plain_metrics(passes, bench, setup_s, peak_rss_mb):
    # Each job's latency is its median over the passes, counted once per pass:
    # the job list is fixed, so the spread of one job's samples is the host's
    # noise, not the program's latency distribution.
    typical = [statistics.median(ts) for ts in zip(*(p["latencies"] for p in passes))]
    latencies = typical * len(passes)
    tail_value, tail_pct = tail(latencies, len(typical))
    values = {"wall_s": sum(typical),
              "job_s_p50": statistics.median(typical),
              "job_s_tail": tail_value,
              "cpu_s": job_list_time(passes, "cpu"),
              "peak_rss_mb": peak_rss_mb,
              "setup_s": setup_s}
    notes = {"wall_s": f"reference s, sum of per-job medians over {len(passes)} passes",
             "job_s_p50": f"reference s, median of {len(typical)} per-job medians",
             "job_s_tail": f"reference s, p{tail_pct:.1f} of {len(typical)} per-job "
                           f"medians x {len(passes)} passes, "
                           f"{sum(t > tail_value for t in latencies)} samples beyond it",
             "cpu_s": "process CPU in reference s, sum of per-job medians",
             "peak_rss_mb": "ru_maxrss of this process",
             "setup_s": f"reference s, median of {SETUP_REPS} import + input generations"}
    metrics, lines = {}, []
    for spec in bench["end_to_end"]:
        name = spec["name"]
        metrics[name] = _metric(values[name], spec["unit"])
        lines.append(f"{name} {values[name]!r} {spec['unit']} ({notes[name]})")
    return metrics, lines


def traced_metrics(passes, bench, runner, ledger, workload):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [tracing.pass_metrics(*p["trace"]) for p in traced]
    overhead = job_list_time(traced, "latencies") / job_list_time(plain, "latencies") - 1.0
    exact = [{k: v for k, v in m.items() if tracing.is_exact_count(k)} for m in per_pass]
    if any(e != exact[0] for e in exact[1:]):
        runner.failed += 1
        runner.problems.append("exact counts differ between traced passes")
    if ledger["counts"] is not None and ledger["counts"] != exact[0]:
        runner.failed += 1
        runner.problems.append("exact counts differ from an earlier run of this "
                               "seed and source")
    ledger["counts"] = exact[0]
    unknown = [s["name"] for s in bench["per_layer"] if s["name"] not in tracing.METRIC_NAMES]
    if unknown:
        raise ValueError(f"BENCHMARK.json names unknown per-layer metrics: {unknown}")
    metrics, lines = {}, []
    for spec in bench["per_layer"]:
        name = spec["name"]
        if name == "trace.overhead":
            value = overhead
        elif tracing.is_exact_count(name):
            value = per_pass[0][name]
        else:
            value = statistics.median(m[name] for m in per_pass)
        metrics[name] = _metric(value, spec["unit"])
        lines.append(f"{name} {value!r} {spec['unit']}")
    nonzero = [n for n in workloads.ISOLATION[workload] if per_pass[0][n]]
    lines.append(f"isolation {'broken' if nonzero else 'holds'}: "
                 f"{', '.join(workloads.ISOLATION[workload]) or 'nothing expected'} = 0"
                 + (f"; nonzero: {', '.join(nonzero)}" if nonzero else ""))
    lines.append(f"traced passes {len(traced)}, untraced {len(plain)}; "
                 f"dropped: {', '.join(tracing.DROPPED)}")
    return metrics, lines


if __name__ == "__main__":
    sys.exit(main())
