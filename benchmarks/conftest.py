"""Shared benchmark plumbing.

Every benchmark regenerates one table or figure that tests a claim of
the paper (or of a baseline it is compared against).  The pattern:

* the experiment body runs exactly once through
  ``benchmark.pedantic(fn, iterations=1, rounds=1)`` so pytest-benchmark
  reports its wall time without re-running multi-minute sweeps;
* the resulting rows are printed as a paper-style table *and* written to
  ``benchmarks/out/<name>.txt``, where they can be quoted verbatim.
"""

from __future__ import annotations

import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture
def smoke(request):
    """True when ``--smoke`` was passed: shrink sizes/trials for CI."""
    return bool(request.config.getoption("--smoke"))


@pytest.fixture
def bench_sink(request):
    """Callable(name, metrics, meta=None): write ``BENCH_<name>.json``.

    The perf-trajectory emitter: headline scalars land in
    ``benchmarks/out/BENCH_<name>.json`` (mode ``smoke`` or ``full``),
    uploaded by CI as artifacts and gated by
    ``python -m repro.obs.check_floors benchmarks/floors.json``.
    """
    from repro.obs.bench import emit_bench

    mode = "smoke" if request.config.getoption("--smoke") else "full"

    def sink(name: str, metrics, meta=None):
        return emit_bench(name, metrics, meta=meta, mode=mode, out_dir=OUT_DIR)

    return sink


@pytest.fixture
def table_sink():
    """Callable(name, text): print a table and persist it under out/."""

    def sink(name: str, text: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return sink


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
