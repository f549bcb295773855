"""The benchmark's contract with the program, checked in tier-1.

The behaviour lock: every response to the seed-1 corpus of each benchmark
workload passes the benchmark's oracles, and its bytes match the digests
pinned in ``tests/golden/<workload>.sha256``.  Each file holds one
``<request id> <sha256>`` line per request, in the form
``run.Checker.combined`` hashes, so the file's own sha256 is the workload's
``responses_sha256``.  A change that moves a response on purpose rewrites
the file and the pinned digest together.

The tracer contract: every layer the benchmark traces still exists, so a
deleted or renamed layer fails here instead of blanking benchmark metrics.

The benchmark modules are loaded from ``e2ebench/`` by path; nothing there
is edited.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from arrdmod import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 1
PINNED = {
    "reflection": "118ed9ea50a6dde541b611ba9406402bc05af621f04d40732928d22f60455e45",
    "generic": "956435eafb88560b90cff8c92baad7ba03690840ffaea2ce6f2d85260235ec5d",
    "plane": "d256e032676e8496252f2795ded61e1411817d257133d3f047b7ae025604d53f",
}


def bench_module(name: str):
    """``e2ebench/<name>.py``, loaded by path (it imports its siblings)."""
    spec = importlib.util.spec_from_file_location(
        f"e2ebench_{name}", ROOT / "e2ebench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = bench_module("run")


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_corpus_responses_are_pinned(workload, tmp_path):
    pinned = (GOLDEN / f"{workload}.sha256").read_text(encoding="utf-8")
    assert hashlib.sha256(pinned.encode("utf-8")).hexdigest() == PINNED[workload]
    checker = run.Checker()
    for req in run.workloads.build(workload, SEED, str(tmp_path)):
        checker.check(req, *cli.execute(req.argv()))
    assert checker.failures == []
    if checker.combined() != PINNED[workload]:
        want = dict(line.rsplit(" ", 1) for line in pinned.splitlines())
        got = checker.digests
        first = next(
            rid for rid in sorted(want.keys() | got.keys()) if want.get(rid) != got.get(rid)
        )
        pytest.fail(f"{workload}: the response to {first} differs from the pinned one")


def test_tracer_finds_every_layer():
    tracer = bench_module("tracing").Tracer()
    tracer.install()
    try:
        absent = list(tracer.absent)
    finally:
        tracer.uninstall()
    assert absent == []
