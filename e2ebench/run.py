"""End-to-end benchmark of the arrdmod command line.

    python3 e2ebench/run.py --workload reflection|generic|plane|all \
        [--seed N] --seconds S [--trace 0|1]

Run it from the root of a checkout; it imports the program from ``src/``.
One process is one closed-loop client: it sends each request, an in-process
call ``arrdmod.cli.execute(argv)`` on a generated input file, only after the
previous one returned, with no other thread or process running meanwhile.
JSON parsing and rendering are part of every request.  The corpus comes
from ``--seed`` and is written to disk before timing starts; a *round*
sends every request of the corpus once.  Rounds repeat until ``--seconds``
of request time have passed, and at least until the latency sample has
`MIN_SAMPLES` entries, so that the 90th percentile has ten samples beyond it.
``--seconds`` has no default: the run length is ``run_seconds`` in
BENCHMARK.json, which the caller passes, so it is set in one place only.
Set-up, corpus generation and the checks come on top, so a run's wall time
is longer than ``--seconds``.

Every response is checked outside the timed region: the first response to
each request against the oracles in ``oracles.py``, later ones by sha256
against the first.  A request fails on a nonzero exit or a wrong answer.

Timings are corrected for the machine's drifting speed (see ``speed.py``);
the uncorrected figures are printed too, as ``raw_*`` lines.
``success_share`` is 1 - failed/attempted (``failed_share`` is printed on
its own line; a metric in BENCHMARK.json must never read 0).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced round and prints the per-layer metrics of
``tracing.py``.  Human-readable lines come first; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs each workload in its own process and prints every
metric prefixed by the workload name.

Files are written under ``.bench_work/`` (inputs, removed at exit) and
``.bench_out/`` (response digests and the spans of the last traced round).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 100
SETUP_SPAWNS = 15

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_cli():
    """Import ``arrdmod.cli`` from this checkout's ``src/``, nowhere else."""
    home = SRC / "arrdmod"
    if not (home / "cli.py").is_file():
        raise SystemExit(f"e2ebench: program source not found at {home}")
    sys.path.insert(0, str(SRC))
    import arrdmod.cli

    if Path(arrdmod.cli.__file__).resolve().parent != home.resolve():
        raise SystemExit(f"e2ebench: imported arrdmod from {arrdmod.cli.__file__}, not {home}")
    return arrdmod.cli


def measure_setup() -> tuple[float, float]:
    """Time a fresh interpreter takes to import ``arrdmod.cli``, measured
    inside it; median over `SETUP_SPAWNS` interpreters after one warm-up.

    Returns (corrected, raw) seconds; the correction uses the reference
    samples taken just before and after each interpreter, as in `run_round`.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time; t = time.perf_counter(); import arrdmod.cli; print(time.perf_counter() - t)"

    def spawn() -> tuple[float, float]:
        before = speed.reference_sample()
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        raw = float(done.stdout)
        return raw * speed.REFERENCE_S * 2 / (before + speed.reference_sample()), raw

    spawn()  # writes bytecode caches and warms the file cache
    samples = [spawn() for _ in range(SETUP_SPAWNS)]
    return statistics.median(c for c, _ in samples), statistics.median(r for _, r in samples)


class Checker:
    """Oracle check of the first response to each request, sha256 identity
    for the repeats; keeps the digests for byte-identity across commits."""

    def __init__(self):
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []

    def check(self, req: workloads.Request, code: int, out: str, err: str) -> bool:
        reason = self._reason(req, code, out, err)
        if reason:
            self.failures.append(f"{req.rid}: {reason}")
        return reason is None

    def _reason(self, req, code, out, err) -> str | None:
        if code != 0:
            return f"exit {code}: {err.strip()}"
        dot = Path(req.dot).read_text(encoding="utf-8") if req.dot else None
        digest = hashlib.sha256((out + (dot or "")).encode("utf-8")).hexdigest()
        known = self.digests.get(req.rid)
        if known is not None:
            return None if known == digest else "response differs from the checked one"
        try:
            oracles.check(req.doc.meta, req.command, req.doc.data, json.loads(out), dot)
        except (oracles.Mismatch, KeyError, TypeError, ValueError, IndexError) as exc:
            return f"wrong answer: {type(exc).__name__}: {exc}"
        self.digests[req.rid] = digest
        return None

    def combined(self) -> str:
        text = "".join(f"{rid} {d}\n" for rid, d in sorted(self.digests.items()))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_round(cli, requests, checker: Checker, tracer=None, probe_speed=True) -> tuple[list[float], list[float], int]:
    """Send every request once.

    Returns corrected latencies, raw latencies (s) and the failure count.
    The raw latency is the wall time of ``cli.execute`` less the probe's
    ticks.  The corrected one scales it by REFERENCE_S over the mean
    duration of the reference units timed just before, during (if `probe_speed`)
    and just after the request: it is the latency at the speed the baseline
    machine has when uncontended.
    """
    corrected = []
    raw = []
    outcomes = []
    probe = speed.SpeedProbe(armed=probe_speed)
    before = speed.reference_sample()
    for idx, req in enumerate(requests):
        argv = req.argv()
        gc.collect()
        if tracer is not None:
            tracer.request = idx
        with probe:
            t0 = time.perf_counter()
            try:
                result = cli.execute(argv)
            except Exception as exc:  # noqa: BLE001 - a traceback breaks the CLI contract
                result = (-1, "", f"uncaught {type(exc).__name__}: {exc}")
            latency = time.perf_counter() - t0 - probe.spent
        after = speed.reference_sample()
        unit = statistics.fmean([before, *probe.samples, after])
        raw.append(latency)
        corrected.append(latency * speed.REFERENCE_S / unit)
        outcomes.append(result)
        before = after
    failed = sum(not checker.check(req, *res) for req, res in zip(requests, outcomes))
    return corrected, raw, failed


def _end_to_end(rounds: list[list[float]]) -> dict[str, float]:
    samples = [x for r in rounds for x in r]
    return {
        "throughput_rps": statistics.median(len(r) / sum(r) for r in rounds),
        "latency_p50_ms": 1000 * statistics.median(samples),
        "latency_p90_ms": 1000 * statistics.quantiles(samples, n=10)[8],
    }


def measure(cli, requests, seconds: float, checker: Checker) -> tuple[dict, int, int, list[str]]:
    rounds: list[list[float]] = []
    raw_rounds: list[list[float]] = []
    failed = 0
    min_rounds = math.ceil(MIN_SAMPLES / len(requests))
    while len(rounds) < min_rounds or sum(map(sum, raw_rounds)) < seconds:
        corrected, raw, bad = run_round(cli, requests, checker)
        rounds.append(corrected)
        raw_rounds.append(raw)
        failed += bad
    attempted = sum(map(len, rounds))
    metrics = _end_to_end(rounds)
    metrics["success_share"] = 1 - failed / attempted
    notes = [
        f"rounds {len(rounds)} of {len(requests)} requests; latency samples {attempted}",
        f"failed_share {failed / attempted:.6f} share (n={attempted})",
    ]
    notes += [f"raw_{k} {v:.6g}" for k, v in _end_to_end(raw_rounds).items()]
    return metrics, attempted, failed, notes


def measure_traced(cli, requests, seconds: float, checker: Checker):
    """Alternate untraced and traced rounds until `seconds` of request time.

    The speed probe stays disarmed in both, so that its ticks do not land
    in the spans, and both rounds are corrected alike for `trace.overhead`.
    """
    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    traced_raw: list[float] = []
    failed = 0
    while not traced or sum(plain) + sum(traced) < seconds:
        corrected, _, bad = run_round(cli, requests, checker, probe_speed=False)
        plain.append(sum(corrected))
        failed += bad
        tracer.install()
        try:
            corrected, raw, bad = run_round(cli, requests, checker, tracer, probe_speed=False)
        finally:
            tracer.uninstall()
        tracer.finish_round(len(requests))
        traced.append(sum(corrected))
        traced_raw.append(sum(raw))
        failed += bad
    attempted = 2 * len(traced) * len(requests)
    figures, repeat = tracer.per_layer()
    figures["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    metrics = {k: figures[k] for k in tracing.PER_LAYER if not tracer.is_absent(k)}
    notes = [f"traced rounds {len(traced)}; call counts repeat across rounds: {repeat}"]
    notes += [f"absent: {k}" for k in tracing.PER_LAYER if tracer.is_absent(k)]
    notes += [f"patched {span}: {', '.join(sites)}" for span, sites in tracer.sites.items()]
    # spans time raw perf_counter intervals, so shares divide by raw time
    by_module: dict[str, float] = {}
    for span in tracer.names:
        if span not in tracer.absent:
            module = span.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + figures[f"{span}.self_s"]
    round_s = statistics.median(traced_raw)
    notes += [f"layer_share {m} {t / round_s:.3f}" for m, t in sorted(by_module.items(), key=lambda kv: -kv[1])]
    return metrics, attempted, failed, notes, tracer


def run_workload(args) -> dict:
    cli = load_cli()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    try:
        speed.pin_to_current_cpu()
        if not args.trace:
            setup_s, raw_setup_s = measure_setup()
        requests = workloads.build(args.workload, args.seed, str(workdir))
        checker = Checker()
        if args.trace:
            metrics, attempted, failed, notes, tracer = measure_traced(cli, requests, args.seconds, checker)
            spans = tracer.write_spans(str(outdir / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"))
            notes.append(f"spans written: {spans}")
            units = tracing.PER_LAYER
        else:
            metrics, attempted, failed, notes = measure(cli, requests, args.seconds, checker)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            notes.append(f"setup_s over {SETUP_SPAWNS} fresh interpreters; raw_setup_s {raw_setup_s:.6g}")
            units = END_TO_END
        with open(outdir / f"{args.workload}-seed{args.seed}.responses.json", "w", encoding="utf-8") as fh:
            json.dump(checker.digests, fh, indent=1, sort_keys=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in notes:
        print(f"{args.workload} {line}")
    print(f"{args.workload} responses_sha256 {checker.combined()}")
    for reason in checker.failures[:20]:
        print(f"{args.workload} FAILED {reason}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak RSS is that workload's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"e2ebench: workload {name} exited {done.returncode}: {done.stderr.strip()}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True, help="request time to measure (run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
