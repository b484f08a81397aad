#!/usr/bin/env python3
"""Benchmark for ghzgen: seeded workloads, output checks, timed and traced runs.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is taken from ``./src``.
NAME is ``cli-oneshot``, ``sweep``, ``library-varied`` or ``all``;
``BENCHMARK.json`` lists ``cli-oneshot`` and ``library-varied``.  One
client sends requests in a closed loop, in whole rounds, until S seconds
have passed.  Every output is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
request twice, traced and untraced, checks that both print the same
bytes, and reports the per-layer metrics from the spans, which it also
writes to ``benchmarks/out/``.

For each workload the second-to-last line printed is ``{"info": ...}``
(environment, seed, workload size, latency sample count, repeat shares).
The last line is the result: ``correct``, ``attempted``, ``failed`` and
``metrics``, each metric with its value and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
CHILD_TIMEOUT_S = 120
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
WORKLOADS = ("cli-oneshot", "sweep", "library-varied")

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}

# a fresh interpreter imports the CLI and elaborates both builtin circuits
SETUP_CODE = """
import time
start = time.perf_counter()
from importlib import resources
import ghzgen.cli
from ghzgen.dsl import elaborate, parse
for name in ("fig1", "fig3"):
    text = (resources.files("ghzgen") / "fixtures" / f"{name}.onet").read_text(encoding="utf-8")
    elaborate(parse(text), name=name)
print(repr(time.perf_counter() - start))
"""


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def run_child(argv: list[str]) -> tuple[int, bytes, bytes, float]:
    """Run one child process to completion: exit code, stdout, stderr, seconds."""
    start = time.perf_counter()
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV, cwd=ROOT
    ) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += b"\nchild timed out"
    return proc.returncode, out, err, time.perf_counter() - start


class CliWorkload:
    """One ``python -m ghzgen`` subprocess per request."""

    # each round ends with a repeat of an earlier request
    repeats_in_rounds = True

    def run(self, request):
        code, out, err, seconds = run_child([sys.executable, "-m", "ghzgen", *request])
        return (code, out, err), seconds

    def run_traced(self, request):
        path = OUT / "child-spans.json"
        code, out, err, seconds = run_child(
            [sys.executable, str(HERE / "traced_child.py"), str(path), *request]
        )
        try:
            spans = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
        except (OSError, ValueError):
            spans = []
        return (code, out, err), seconds, spans

    def check(self, request, output):
        return workloads.check_cli(request, *output)

    def stdout(self, output) -> bytes:
        return output[1]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class LibraryWorkload:
    """In-process library calls on one thread."""

    # no two timed requests share inputs, so determinism is checked by
    # replaying the untimed warm-up round after the timed loop
    repeats_in_rounds = False

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import ghzgen
        from ghzgen.dsl import elaborate, parse

        if Path(ghzgen.__file__).resolve().parent != (SRC / "ghzgen").resolve():
            raise BenchmarkError(f"imported ghzgen from {ghzgen.__file__}, not from {SRC}")
        self.ghzgen = ghzgen
        fixtures = SRC / "ghzgen" / "fixtures"
        self.networks = {
            name: elaborate(parse((fixtures / f"{name}.onet").read_text(encoding="utf-8")), name=name)
            for name in ("fig1", "fig3")
        }

    def run(self, request):
        kind, params = request
        start = time.perf_counter()
        try:
            result = workloads.call_library(self.ghzgen, self.networks, kind, params)
        except Exception as exc:  # a failed request is counted, the run goes on
            result = exc
        return result, time.perf_counter() - start

    def run_traced(self, request):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.request():
                result, seconds = self.run(request)
        finally:
            tracer.uninstall()
        return result, seconds, tracer.spans

    def check(self, request, output):
        if isinstance(output, Exception):
            return f"raised {output!r}"
        return workloads.check_library(request[0], output)

    def stdout(self, output) -> bytes:
        if isinstance(output, Exception):
            return repr(output).encode()
        return workloads.canonical_library_output(output)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_once() -> float:
    """Set-up seconds of one fresh interpreter."""
    code, out, err, _ = run_child([sys.executable, "-c", SETUP_CODE])
    if code != 0:
        raise BenchmarkError(f"set-up failed: {err.decode(errors='replace').strip()}")
    return float(out)


def import_time_metrics() -> dict[str, float]:
    """Cumulative import time of ghzgen.cli and of numpy within it, in ms,
    read from ``-X importtime`` in fresh interpreters."""
    samples = {"cli.import_ms": [], "cli.numpy_import_ms": []}
    for _ in range(IMPORTTIME_REPEATS):
        code, _, err, _ = run_child([sys.executable, "-X", "importtime", "-c", "import ghzgen.cli"])
        if code != 0:
            raise BenchmarkError("import ghzgen.cli failed")
        cumulative = {}
        for line in err.decode().splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]))
        samples["cli.import_ms"].append(cumulative["ghzgen.cli"] / 1000)
        samples["cli.numpy_import_ms"].append(cumulative.get("numpy", 0) / 1000)
    return {name: statistics.median(values) for name, values in samples.items()}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def timed_run(workload, name: str, seed: int, seconds: int) -> tuple[dict, dict, list]:
    """Closed loop, one client, whole rounds until ``seconds`` have passed."""
    failures = []
    stream = workloads.rounds(name, seed)
    replay = []
    if not workload.repeats_in_rounds:
        for request in next(stream):
            output, _ = workload.run(request)
            failures.append(workload.check(request, output))
            replay.append((request, workload.stdout(output)))

    latencies = []
    first_stdout = {}
    repeats = 0
    rounds = 0
    # set-up is sampled between rounds, spread over the run, so that it
    # sees the same changes in the host's speed as the requests; the loop
    # clock stops while it runs
    setups = []
    paused = 0.0
    start = time.perf_counter()
    for round_ in stream:
        for request in round_:
            output, elapsed = workload.run(request)
            latencies.append(elapsed)
            problem = workload.check(request, output)
            if workload.repeats_in_rounds:
                if request in first_stdout:
                    repeats += 1
                    if problem is None and first_stdout[request] != workload.stdout(output):
                        problem = "stdout differs from an identical earlier request"
                elif problem is None:
                    first_stdout[request] = workload.stdout(output)
            failures.append(problem)
        rounds += 1
        elapsed = time.perf_counter() - start - paused
        if elapsed >= seconds:
            break
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            before = time.perf_counter()
            setups.append(setup_once())
            paused += time.perf_counter() - before
    wall = time.perf_counter() - start - paused
    while len(setups) < SETUP_REPEATS:  # rounds longer than the spacing
        setups.append(setup_once())

    for request, expected in replay:
        output, _ = workload.run(request)
        problem = workload.check(request, output)
        if problem is None and workload.stdout(output) != expected:
            problem = "stdout differs from the warm-up run of the same request"
        failures.append(problem)

    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "throughput_rps": len(latencies) / wall,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    info = {
        "size": {"rounds": rounds, "requests_per_round": len(latencies) // rounds,
                 "requests": len(latencies)},
        "latency_samples": len(latencies),
        # the 90th percentile needs at least ten samples beyond it
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000
        if len(latencies) >= 100 else None,
        "repeated_request_share": repeats / len(latencies),
    }
    return metrics, info, failures


def traced_run(workload, name: str, seed: int, seconds: int) -> tuple[dict, dict, list]:
    """Each request traced and untraced; per-layer metrics from the spans."""
    OUT.mkdir(exist_ok=True)
    failures = []
    requests = []
    traced_s = plain_s = 0.0
    rounds = 0
    start = time.perf_counter()
    for round_ in workloads.rounds(name, seed):
        for request in round_:
            traced, elapsed_traced, spans = workload.run_traced(request)
            plain, elapsed_plain = workload.run(request)
            traced_s += elapsed_traced
            plain_s += elapsed_plain
            problem = workload.check(request, traced) or workload.check(request, plain)
            if problem is None and workload.stdout(traced) != workload.stdout(plain):
                problem = "traced stdout differs from untraced stdout"
            failures.append(problem)
            requests.append(spans)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break

    metrics = tracing.layer_metrics(requests)
    metrics.update(import_time_metrics())
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    with open(OUT / f"spans-{name}-seed{seed}.jsonl", "w", encoding="utf-8") as f:
        for index, spans in enumerate(requests):
            for span in spans:
                f.write(json.dumps({"request": index, **span}) + "\n")
    recompute = metrics["pipeline.branch_recompute_ratio"]
    info = {
        "size": {"rounds": rounds, "requests_per_round": len(requests) // rounds,
                 "requests": len(requests)},
        "repeated_branch_input_share": 1.0 - 1.0 / recompute if recompute else 0.0,
    }
    return metrics, info, failures


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    info = {"workload": name, "trace": int(trace), **environment(seed)}
    setup_once()  # untimed: it also compiles the bytecode cache
    workload = LibraryWorkload() if name == "library-varied" else CliWorkload()
    run = traced_run if trace else timed_run
    metrics, extra, outcomes = run(workload, name, seed, seconds)
    info.update(extra)
    problems = [p for p in outcomes if p is not None]
    for problem in problems[:10]:
        print(f"{name}: failed request: {problem}", file=sys.stderr)
    info["failed_frac"] = len(problems) / len(outcomes)
    units = tracing.LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(problems),
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit in units.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ghzgen" / "__init__.py").is_file():
        print(f"error: no ghzgen package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one fresh process per workload, so that peak memory and imports
        # are measured per workload
        for name in WORKLOADS:
            argv = ["--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run([sys.executable, __file__, *argv], cwd=ROOT).returncode
            if code:
                return code
        return 0
    try:
        info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
