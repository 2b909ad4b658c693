"""End-to-end benchmark of ``repro serve``.

Boots the real server as a subprocess with its production defaults
(observability on, event ring, 1024-bit per-record RSA, 4 shards) and
drives it from this one load process with two closed-loop client
threads.  Every reply is checked (see ``workloads.py``); every metric is
printed by name with its unit, percentiles with their sample counts.

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                 [--seconds S] [--trace [0|1]]
                                 [--repeat N] [--json PATH]

``--trace 1`` runs each workload twice: once as above, once through
``traced_serve.py``, and reports the per-layer breakdown of the traced
run plus the tracing overhead.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the metrics ``BENCHMARK.json`` names (end-to-end ones, or per-layer ones
with ``--trace 1``).  Exit status: 0 when every answer checked out, 1
when an answer check failed, 2 when the server could not be run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.service.client import ServiceClient  # noqa: E402

import traced_serve  # noqa: E402
from workloads import REQUEST_ERRORS, WORKLOADS, Caller, Workload  # noqa: E402

#: Closed-loop client threads in the load process, sized for a 2-CPU
#: host: one CPU for the GIL-bound server, one for the load.
CLIENTS = 2
#: Server key seed; the workload seed only shapes the requests.
SERVER_SEED = 7
#: Seconds of traffic before the measured window, discarded.
WARMUP_S = 3.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``throughput_rps``, ``records_per_s`` and ``latency_p50_ms`` are
#: medians over this many consecutive equal-count groups of the window's
#: requests.  Shared hosts slow down for seconds at a time; a median over
#: groups ignores slow spells that cover fewer than half of them, where a
#: whole-window figure moves with how much of the window they covered.
GROUPS = 10
#: Fewest requests per group: a median needs ten samples beyond it.
GROUP_MIN = 20
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0

#: End-to-end metrics: name -> (unit, better).
METRICS = {
    "setup_s": ("s", "lower"),
    "throughput_rps": ("req/s", "higher"),
    "records_per_s": ("rec/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "write_p50_ms": ("ms", "lower"),
    "write_p99_ms": ("ms", "lower"),
    "read_p50_ms": ("ms", "lower"),
    "read_p99_ms": ("ms", "lower"),
    "audit_p50_ms": ("ms", "lower"),
    "audit_p95_ms": ("ms", "lower"),
    "failed_frac": ("ratio", "lower"),
    "server_rss_mb": ("MB", "lower"),
}
#: Whole-window percentiles: name -> (latency class, quantile).
PERCENTILES = {
    "write_p50_ms": ("write", 0.50),
    "write_p99_ms": ("write", 0.99),
    "read_p50_ms": ("read", 0.50),
    "read_p99_ms": ("read", 0.99),
    "audit_p50_ms": ("audit", 0.50),
    "audit_p95_ms": ("audit", 0.95),
}


class BenchError(Exception):
    """The server could not be run or brought to its starting state."""


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank quantile, or None without ten samples beyond it."""
    k = math.ceil(q * len(values))
    if len(values) - k < 10:
        return None
    return sorted(values)[k - 1]


def benchmark_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess, optionally under the traced launcher."""

    def __init__(self, workload: Workload, workdir: Path, tag: str,
                 spans: Optional[Path] = None):
        argv = ["serve", "--port", "0", "--seed", str(SERVER_SEED), *workload.server_args]
        if workload.durable:
            argv += ["--store-root", str(workdir / f"store-{tag}")]
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli.main", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"), "--spans", str(spans),
                   "--must-fire", ",".join(workload.must_fire), "--", *argv]
        pythonpath = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self.log = workdir / f"server-{tag}.log"
        with open(self.log, "wb") as err:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                         env=env, cwd=ROOT)
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.stop()
            raise BenchError(f"server did not boot: {self.log_tail()}")
        boot = json.loads(line)
        self.url: str = boot["url"]
        self.admin_token: str = boot["admin_token"]

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def hwm_mb(self) -> float:
        """Peak resident set size (``VmHWM``) in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGINT (the server's clean shutdown), wait, and return its status."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode

    def log_tail(self, lines: int = 8) -> str:
        text = self.log.read_text(encoding="utf-8", errors="replace").splitlines()
        return " | ".join(text[-lines:])


# ----------------------------------------------------------------------
# one pass: set-up, warm-up, measured window, final checks
# ----------------------------------------------------------------------


@dataclass
class Sample:
    klass: str
    start: float
    latency: float
    records: int
    error: Optional[str]


@dataclass
class Pass:
    setup_s: List[float]
    samples: List[Sample]
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    #: Failed requests or checks outside the measured window.
    errors: List[str] = field(default_factory=list)
    spans: Optional[Dict[str, list]] = None

    @property
    def ok(self) -> List[Sample]:
        return [s for s in self.samples if s.error is None]


def start_server(workload: Workload, seed: int, workdir: Path, tag: str,
                 spans: Optional[Path]) -> Tuple[Server, List[Caller], float]:
    """Spawn, issue keys, create the tenant worlds, preload; timed."""
    began = perf_counter()
    server = Server(workload, workdir, tag, spans)
    try:
        admin = ServiceClient(server.url, token=server.admin_token)
        tokens = {t: admin.issue_key(t)["token"] for t in workload.tenants}
        callers = [
            Caller(workload, i, {t: ServiceClient(server.url, token=k) for t, k in tokens.items()},
                   seed)
            for i in range(CLIENTS)
        ]
        for client in callers[0].clients.values():
            client.objects()  # creates the tenant world: CA and signer key generation
        with ThreadPoolExecutor(CLIENTS) as pool:
            errors = [e for e in pool.map(lambda c: c.preload(c.index, CLIENTS), callers) if e]
        if errors:
            raise BenchError(f"preload failed: {errors[0]}")
    except REQUEST_ERRORS as exc:
        server.stop()
        raise BenchError(f"set-up failed: {exc}: {server.log_tail()}") from exc
    except BaseException:
        server.stop()
        raise
    return server, callers, perf_counter() - began


def _sleep_until(deadline: float) -> None:
    while (left := deadline - perf_counter()) > 0:
        time.sleep(left)


def drive(server: Server, callers: List[Caller], warmup: float, seconds: float) -> Pass:
    """Closed-loop traffic: ``warmup`` s discarded, then ``seconds`` s measured."""
    start = perf_counter() + warmup
    end = start + seconds

    def loop(caller: Caller) -> Tuple[List[Sample], List[str]]:
        samples, early = [], []
        while (began := perf_counter()) < end:
            out = caller.step()
            latency = perf_counter() - began
            if began >= start:
                samples.append(Sample(out.klass, began, latency, out.records, out.error))
            elif out.error is not None:
                early.append(out.error)
        return samples, early

    with ThreadPoolExecutor(CLIENTS) as pool:
        futures = [pool.submit(loop, c) for c in callers]
        _sleep_until(start)
        cpu0 = server.cpu_s()
        _sleep_until(end)
        cpu1 = server.cpu_s()
        results = [f.result() for f in futures]
    return Pass(
        setup_s=[], samples=[s for r in results for s in r[0]], start=start, end=end,
        cpu_s=cpu1 - cpu0, rss_mb=server.hwm_mb(), errors=[e for r in results for e in r[1]],
    )


def run_pass(workload: Workload, seed: int, seconds: float, workdir: Path, name: str,
             setups: int, traced: bool, warmup: float = WARMUP_S) -> Pass:
    """``setups`` timed set-ups (all but the last torn down), then traffic."""
    # A fresh directory per pass: a durable store must start empty.
    passdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{name}-", dir=workdir))
    spans = passdir / "spans.json" if traced else None
    times: List[float] = []
    server = None
    try:
        for i in range(setups):
            if server is not None:
                _stopped(server)
            server, callers, took = start_server(workload, seed, passdir, str(i), spans)
            times.append(took)
        result = drive(server, callers, warmup, seconds)
        health = ServiceClient(server.url, token=server.admin_token).healthz()
        if health.status != 200:
            result.errors.append(f"final admin /healthz answered {health.status}")
        _stopped(server)
        result.setup_s = times
        if spans is not None:
            with open(spans, encoding="utf-8") as fh:
                result.spans = json.load(fh)
        return result
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(passdir, ignore_errors=True)


def _stopped(server: Server) -> None:
    code = server.stop()
    if code != 0:
        raise BenchError(f"server exited with status {code}: {server.log_tail()}")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def _latency_ms(s: Sample) -> float:
    # A failed request misses every latency limit.
    return 1e3 * s.latency if s.error is None else math.inf


def groups(p: Pass) -> List[Tuple[List[Sample], float]]:
    """The window's requests in consecutive equal-count groups, by start
    time, each with the time from its first start to the next group's."""
    samples = sorted(p.samples, key=lambda s: s.start)
    k = max(1, min(GROUPS, len(samples) // GROUP_MIN))
    cuts = [len(samples) * i // k for i in range(k + 1)]
    out = []
    for i in range(k):
        group = samples[cuts[i]:cuts[i + 1]]
        if group:
            until = samples[cuts[i + 1]].start if i + 1 < k else p.end
            out.append((group, until - group[0].start))
    return out


def end_to_end(p: Pass) -> Dict[str, Tuple[float, Optional[int]]]:
    """name -> (value, sample count or None) for one pass."""
    ok = p.ok
    attempted = len(p.samples)
    out: Dict[str, Tuple[float, Optional[int]]] = {
        "failed_frac": ((attempted - len(ok)) / attempted if attempted else 1.0, attempted),
        "server_rss_mb": (p.rss_mb, None),
    }
    if p.setup_s:
        out["setup_s"] = (statistics.median(p.setup_s), len(p.setup_s))
    grouped = groups(p)
    if grouped:
        out["throughput_rps"] = (statistics.median(
            sum(s.error is None for s in g) / span for g, span in grouped), len(ok))
        out["records_per_s"] = (statistics.median(
            sum(s.records for s in g if s.error is None) / span for g, span in grouped), None)
        medians = [percentile([_latency_ms(s) for s in g], 0.5) for g, _ in grouped]
        if None not in medians:
            out["latency_p50_ms"] = (statistics.median(medians), attempted)
    for name, (klass, q) in PERCENTILES.items():
        lat = [_latency_ms(s) for s in p.samples if s.klass == klass]
        value = percentile(lat, q)
        if value is not None:
            out[name] = (value, len(lat))
    return out


def process_metrics(p: Pass) -> Dict[str, float]:
    return {
        "process.cpu_ms_per_request": 1e3 * p.cpu_s / max(1, len(p.ok)),
        "process.cpu_util": p.cpu_s / (p.end - p.start),
    }


@dataclass
class Result:
    workload: str
    seed: int
    metrics: Dict[str, Tuple[float, Optional[int]]]
    process: Dict[str, float]
    attempted: int
    failed: int
    errors: List[str]
    setup_s: List[float]
    layers: Optional[Dict[str, float]] = None
    traced_metrics: Optional[Dict[str, Tuple[float, Optional[int]]]] = None

    @property
    def correct(self) -> bool:
        return not self.errors

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload, "seed": self.seed, "correct": self.correct,
            "attempted": self.attempted, "failed": self.failed, "errors": self.errors[:20],
            "setup_s": self.setup_s,
            "metrics": {k: {"value": v, "unit": METRICS[k][0], "better": METRICS[k][1], "n": n}
                        for k, (v, n) in self.metrics.items()},
            "process": self.process, "layers": self.layers,
        }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, warmup: float = WARMUP_S,
                 setups: int = SETUP_REPEATS) -> Result:
    base = run_pass(workload, seed, seconds, workdir, "base",
                    setups=1 if trace else setups, traced=False, warmup=warmup)
    passes = [base]
    result = Result(workload.name, seed, end_to_end(base), process_metrics(base),
                    0, 0, [], base.setup_s)
    if trace:
        traced = run_pass(workload, seed, seconds, workdir, "traced",
                          setups=1, traced=True, warmup=warmup)
        passes.append(traced)
        result.traced_metrics = end_to_end(traced)
        client_ms = [1e3 * s.latency for s in traced.ok]
        try:
            layers = traced_serve.layer_metrics(traced.spans, traced.start, traced.end,
                                                client_ms)
        except ValueError as exc:
            raise BenchError(f"{workload.name}: {exc}") from exc
        layers.update(process_metrics(base))
        layers["trace.overhead_frac"] = (
            1 - result.traced_metrics["throughput_rps"][0] / result.metrics["throughput_rps"][0]
        )
        result.layers = layers
    for p in passes:
        result.attempted += len(p.samples)
        result.failed += len(p.samples) - len(p.ok)
        result.errors += [s.error for s in p.samples if s.error is not None] + p.errors
    return result


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def contract_metrics(result: Result, spec: Dict[str, object],
                     trace: bool) -> Dict[str, Dict[str, object]]:
    """The metrics BENCHMARK.json names, as ``{name: {value, unit}}``."""
    out = {}
    if trace:
        for m in spec["per_layer"]:
            out[m["name"]] = {"value": result.layers[m["name"]], "unit": m["unit"]}
        return out
    for m in spec["end_to_end"]:
        if m["name"] not in result.metrics:
            raise BenchError(f"{result.workload}: too few samples for {m['name']}; "
                             "lengthen --seconds")
        out[m["name"]] = {"value": result.metrics[m["name"]][0], "unit": m["unit"]}
    return out


def print_result(result: Result, seconds: float, units: Dict[str, str]) -> None:
    w = WORKLOADS[result.workload]
    flags = " ".join(("serve", "--seed", str(SERVER_SEED)) + w.server_args
                     + (("--store-root DIR",) if w.durable else ()))
    print(f"== {w.name}  seed {result.seed}  {seconds:g} s window after {WARMUP_S:g} s "
          f"warm-up  {CLIENTS} closed-loop clients  server: repro {flags}")
    for name in (m for m in METRICS if m in result.metrics):
        value, n = result.metrics[name]
        extra = f"n={n}" if n is not None else ""
        if name in ("throughput_rps", "records_per_s", "latency_p50_ms"):
            extra += f" median of {GROUPS} request groups"
        if name == "setup_s":
            extra = "median of " + " ".join(f"{t:.3f}" for t in result.setup_s)
        print(f"  {name:<28}{value:>12.4f} {METRICS[name][0]:<6} {extra}")
    for name, value in result.process.items():
        print(f"  {name:<28}{value:>12.4f} {units[name]}")
    if result.errors:
        print(f"  FAILED: {len(result.errors)} answer(s) wrong; first: {result.errors[0]}")
    if result.layers is None:
        return
    client = result.traced_metrics["latency_p50_ms"][0]
    mean_client = result.layers["service.http.handle_ms"] + result.layers["service.http.wire_ms"]
    print(f"  -- per layer: traced run, means per request "
          f"(client latency mean {mean_client:.3f} ms, p50 {client:.3f} ms)")
    for name, value in result.layers.items():
        unit = units[name]
        # Shares of client latency for span-derived times (not CPU time).
        share = (f"{100 * value / mean_client:6.1f}%"
                 if unit == "ms" and not name.startswith("process.") else "")
        print(f"  {name:<44}{value:>12.4f} {unit:<6}{share}")
    unattributed = 1 - result.layers["trace.attributed_frac"]
    print(f"  unattributed share of client latency {100 * unattributed:.1f}%, "
          f"tracing overhead {100 * result.layers['trace.overhead_frac']:.1f}% of throughput")


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, and the interquartile range and largest deviation
    from the median as shares of the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr_rel": (q3 - q1) / med if med else 0.0,
        "max_rel_dev": max(abs(v - med) for v in values) / med if med else 0.0,
    }


def print_repeats(results: Sequence[Result], bounds: Dict[str, float]) -> None:
    """Spread of every end-to-end metric; flags a spread wider than the
    metric's bound (10% for metrics BENCHMARK.json does not gate)."""
    print(f"== repeat summary ({len(results) // len({r.workload for r in results})} runs each)")
    for name in dict.fromkeys(r.workload for r in results):
        runs = [r for r in results if r.workload == name]
        for metric in METRICS:
            values = [r.metrics[metric][0] for r in runs if metric in r.metrics]
            if len(values) != len(runs):
                continue
            s = spread(values)
            bound = bounds.get(metric, 0.10)
            flag = f"  > bound {100 * bound:g}%" if s["iqr_rel"] > bound else ""
            print(f"  {name:<14}{metric:<16} median {s['median']:>10.4f}  q1 {s['q1']:>10.4f}"
                  f"  q3 {s['q3']:>10.4f}  iqr {100 * s['iqr_rel']:5.1f}%"
                  f"  max dev {100 * s['max_rel_dev']:5.1f}%{flag}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS), metavar="NAME",
                        help=f"workloads to run (default: all of {', '.join(WORKLOADS)})")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run through the traced launcher; report per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (seeds seed, seed+1, ...); prints the spread")
    parser.add_argument("--json", default=None, metavar="PATH", help="write all results here")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still stop the servers
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    seconds = float(args.seconds if args.seconds is not None else spec["run_seconds"])
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    results: List[Result] = []
    try:
        for i in range(args.repeat):
            for name in args.workload:
                result = run_workload(WORKLOADS[name], args.seed + i, seconds,
                                      bool(args.trace), workdir)
                print_result(result, seconds, units)
                results.append(result)
        if args.repeat > 1:
            print_repeats(results, {m["name"]: m["bound"] for m in spec["end_to_end"]})
        if len(results) == 1:
            metrics = contract_metrics(results[0], spec, bool(args.trace))
        else:
            metrics = {f"{r.workload}.{k}": v for r in results
                       for k, v in contract_metrics(r, spec, bool(args.trace)).items()}
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({
                "meta": {"seconds": seconds, "warmup_s": WARMUP_S, "clients": CLIENTS,
                         "trace": bool(args.trace), "python": platform.python_version(),
                         "cpu_count": os.cpu_count(), "platform": platform.platform()},
                "runs": [r.to_dict() for r in results],
            }, fh, indent=1)
    correct = all(r.correct for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
