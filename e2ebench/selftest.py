"""Fast self-test of the benchmark itself (about a minute).

    python3 e2ebench/selftest.py

It checks that workloads.json matches the generators, runs the small
documents of each workload's default seed through both measurement
modes, asserts that every metric named in BENCHMARK.json is
emitted with its unit and that traced call counts repeat, that the tracer
wraps each layer at every place it is bound, that each oracle rejects
corrupted responses, and that the benchmark refuses to run without the
program's source.  It is a script, not a pytest module, so the repository's
test suite does not collect it.
"""

from __future__ import annotations

import copy
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads
from oracles import Mismatch, check

SMALL = 13  # hyperplanes; keeps every request under about 0.1 s

# modules that bind each layer function by name, so must see the wrapper
REQUIRED_SITES = {
    "poset.enumerate_flats": {"arrdmod.poset", "arrdmod.factors", "arrdmod.resolution", "arrdmod.cli"},
    "arrangement.classify": {"arrdmod.arrangement", "arrdmod.factors", "arrdmod.resolution", "arrdmod.cli"},
    "resolution.plane_resolution": {"arrdmod.resolution", "arrdmod.cli"},
    "resolution.pullback_factors": {"arrdmod.resolution", "arrdmod.cli"},
    "resolution.certificate": {"arrdmod.resolution", "arrdmod.cli"},
    "resolution.irreducibility_verdict": {"arrdmod.resolution", "arrdmod.cli"},
    "exactla.intersect_rows": {"arrdmod.exactla"},
    "exactla.annihilates": {"arrdmod.exactla"},
    "kernel.rref_scaled": {"arrdmod._kernel"},
    "kernel.pivot_columns": {"arrdmod._kernel"},
}


def _small_requests(name: str) -> list[workloads.Request]:
    workdir = run.ROOT / ".bench_work" / f"selftest-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    requests = workloads.build(name, workloads.DEFAULT_SEED, str(workdir))
    return [r for r in requests if len(r.doc.data["hyperplanes"]) <= SMALL]


def _corruptions(resp: dict):
    """Copies of ``resp`` with one wrong detail each."""
    payload = next(k for k in resp if k not in ("command", "input"))
    bad = copy.deepcopy(resp)
    bad["input"]["hyperplanes"][0]["constant"] += "1"
    yield "input echo", bad
    body = resp[payload]
    if payload == "flats":
        bad = copy.deepcopy(resp)
        bad["flats"].pop()
        yield "missing flat", bad
        bad = copy.deepcopy(resp)
        bad["cover_relations"].pop(0)
        yield "missing cover", bad
    elif payload == "classification":
        bad = copy.deepcopy(resp)
        bad[payload]["central"] = not body["central"]
        yield "central flag", bad
    elif payload in ("factors", "pullback"):
        bad = copy.deepcopy(resp)
        bad[payload]["count"] += 1
        yield "count", bad
    elif payload == "count":
        bad = copy.deepcopy(resp)
        bad[payload]["factor_count"] += 1
        yield "factor count", bad
    elif payload == "verdict":
        bad = copy.deepcopy(resp)
        bad[payload]["status"] = "INCONCLUSIVE" if body["status"] != "INCONCLUSIVE" else "REDUCIBLE"
        yield "status", bad
    elif payload == "certificate":
        bad = copy.deepcopy(resp)
        bad[payload]["forms"].pop()
        yield "missing form", bad
    elif payload == "resolution":
        bad = copy.deepcopy(resp)
        bad[payload]["centers"].append({"point": ["0", "0"], "incident": [1, 2, 3]})
        yield "extra center", bad


def check_oracles(name: str, requests, checker: run.Checker) -> int:
    """Every oracle must reject each corruption of a checked response."""
    rejected = 0
    for req in requests:
        code, out, err = run.load_cli().execute(req.argv())
        assert code == 0, (req.rid, err)
        resp = json.loads(out)
        dot = Path(req.dot).read_text(encoding="utf-8") if req.dot else None
        check(req.doc.meta, req.command, req.doc.data, resp, dot)
        cases = [(what, bad, dot) for what, bad in _corruptions(resp)]
        if dot is not None:
            cases.append(("dot file", resp, dot.replace("->", "<-", 1)))
        for what, bad, bad_dot in cases:
            try:
                check(req.doc.meta, req.command, req.doc.data, bad, bad_dot)
            except (Mismatch, KeyError, TypeError, ValueError, IndexError):
                rejected += 1
                continue
            raise AssertionError(f"{name}: oracle accepted a corrupted response ({req.rid}: {what})")
    assert not checker.check(requests[0], 2, "", "arrdmod: boom"), "nonzero exit must fail"
    return rejected


def check_metrics(name: str, requests, spec: dict) -> None:
    cli = run.load_cli()
    metrics, attempted, failed, _ = run.measure(cli, requests, 0, run.Checker())
    metrics["setup_s"], _ = run.measure_setup()
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert failed == 0 and attempted >= run.MIN_SAMPLES, (name, failed, attempted)
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]], list(metrics)
    assert {k: run.END_TO_END[k] for k in metrics} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v > 0 for v in metrics.values()), metrics

    traced = []
    for _ in range(2):
        per_layer, attempted, failed, _, tracer = run.measure_traced(cli, requests, 0, run.Checker())
        assert failed == 0, (name, failed)
        traced.append(per_layer)
    assert list(per_layer) == [m["name"] for m in spec["per_layer"]], list(per_layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    counts = [{k: v for k, v in t.items() if not k.endswith("self_s") and k != "trace.overhead"} for t in traced]
    assert counts[0] == counts[1], f"{name}: traced call counts differ between runs"
    for span, sites in REQUIRED_SITES.items():
        missing = sites - set(tracer.sites[span])
        assert not missing, f"{span} not wrapped in {sorted(missing)}"


def check_bare_directory(spec: dict) -> None:
    """Without src/ the benchmark must exit nonzero and print no result."""
    bare = run.ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*spec["command"], "--workload", "plane", "--seed", "1", "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)


def check_record() -> None:
    """workloads.json must describe the generators as they are."""
    record = json.loads((run.HERE / "workloads.json").read_text(encoding="utf-8"))
    assert record["default_seed"] == workloads.DEFAULT_SEED
    assert list(record["workloads"]) == list(workloads.WORKLOADS)
    generators = json.loads(json.dumps(workloads.describe()))
    for name, entry in record["workloads"].items():
        assert entry["generator"] == generators[name], f"workloads.json is stale for {name}"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    check_record()
    try:
        for name in workloads.WORKLOADS:
            requests = _small_requests(name)
            rejected = check_oracles(name, requests, run.Checker())
            check_metrics(name, requests, spec)
            print(f"ok {name}: {len(requests)} small requests, {rejected} corruptions rejected")
        check_bare_directory(spec)
        print("ok bare directory: nonzero exit, no result")
    finally:
        shutil.rmtree(run.ROOT / ".bench_work", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
