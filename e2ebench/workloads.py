"""The benchmark's four workloads, each a closed loop from one client.

Every workload enters through a user-facing surface: three call
``repro.cli.main([...])`` in-process and one drives a real
``eco-chip serve`` subprocess over HTTP.  A workload object offers:

* ``setup()`` - spec and store preparation, server start, one untimed
  warm-up call and the scalar-oracle sample (repeatable: the harness runs it
  several times and reports the median);
* ``call()`` - the timed user-level call;
* ``check(outcome)`` - the output check, outside the timed span, which
  also counts the delivered rows and restores state for the next call;
* ``finish()`` - checks deferred until after the timed loop;
* ``teardown()`` - stops what ``setup`` started.

Why each workload exists, and which layer it stresses or bypasses, is in
``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import repro.cli
import repro.fastpath  # noqa: F401 - loads NumPy now, so import time lands in set-up
from repro.api import Session
from repro.fastpath import BatchEstimator
from repro.search import GridSpace, SearchSpec
from repro.sweep.engine import SweepEngine
from repro.sweep.spec import SweepSpec, preset_dict

from tracing import NullTracer

#: Stored records re-evaluated by the scalar oracle after each warm-up.
ORACLE_SAMPLES = 6

GRID_SPEC: Dict[str, Any] = {
    **preset_dict("ga102-grid"),
    "lifetimes": [2, 4, 6, 8],
    "system_volumes": [1e3, 1e4, 1e5, 1e6, 1e7],
}
GRID_ROWS = 12800
PARETO = "total_carbon_g,cost_usd,silicon_area_mm2"

SEARCH_SPACE: Dict[str, Any] = {
    "name": "ga102-4chiplet-space",
    "testcases": ["ga102-4chiplet"],
    "nodes": [3, 5, 7, 10, 14, 22, 28],
    "packaging": [
        "rdl_fanout", "silicon_bridge", "passive_interposer", "active_interposer", "3d",
    ],
    "lifetimes": [2, 4, 6],
}
#: Search seeds one run cycles through.  Call times differ by up to a
#: third between seeds (evaluations spent before the stall stop and the
#: share of new templates both vary), so a run's median call covers many
#: seeds instead of resting on a few: with five, the medians of runs with
#: different seed sets spread by 0.09 of their median, with eleven by 0.05.
#: The count is odd so that the alternating untraced and traced calls of a
#: ``--trace 1`` run each visit every seed.
SEARCH_SEEDS_PER_RUN = 11


def search_spec(seed: int) -> Dict[str, Any]:
    return {
        "name": "bench-search",
        "space": SEARCH_SPACE,
        "objectives": ["carbon", "cost"],
        "budget": 3000,
        "batch_size": 64,
        "strategy": "pareto_refine",
        "seed": seed,
    }


#: Scores every workload's records the way ``search-refine`` scores its
#: candidates (carbon + cost), so ``best_score`` means the same everywhere.
SCORER = SearchSpec.from_dict(search_spec(0))


class SetupError(RuntimeError):
    """A workload could not be prepared; the run prints no result."""


class Outcome:
    """One timed call: its exit status and what ``check`` needs."""

    __slots__ = ("ok", "rows", "data")

    def __init__(self, ok: bool, data: Any = None):
        self.ok = ok
        self.rows = 0
        self.data = data


def _lines(data: bytes) -> List[bytes]:
    return data.splitlines()


def best_score(lines: Sequence[bytes]) -> float:
    return min(SCORER.score(json.loads(line)) for line in lines)


def oracle_failures(
    lines: Sequence[bytes],
    scenario_of: Callable[[int], Any],
    rng: random.Random,
    drop: Sequence[str] = (),
) -> int:
    """Stored records (a seeded sample) that differ from the scalar oracle.

    The oracle is ``SweepEngine(backend="scalar")``, the full
    ``EcoChip.estimate`` pipeline per scenario; records must match exactly
    after the JSON round trip the store applies.
    """
    sample = [json.loads(line) for line in rng.sample(list(lines), min(ORACLE_SAMPLES, len(lines)))]
    for record in sample:
        for key in drop:
            record.pop(key, None)
    expected = SweepEngine(backend="scalar").iter_records(
        [scenario_of(int(record["scenario"])) for record in sample]
    )
    return sum(
        stored != json.loads(json.dumps(record, sort_keys=True))
        for stored, record in zip(sample, expected)
    )


def run_cli(argv: List[str]) -> int:
    """``repro.cli.main`` with its printing captured (looked up per call, so a
    traced run sees the wrapped entry point)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return repro.cli.main(argv)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------
class InProcess:
    """Defaults for the workloads that call the CLI inside this process."""

    oracle_checked = 0
    oracle_failed = 0

    def finish(self) -> int:
        return 0

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb("self")

    def helper_cpu_s(self) -> float:
        return 0.0


class GridJsonl(InProcess):
    """``eco-chip sweep`` of the 12,800-scenario reference grid to JSONL."""

    name = "grid-jsonl"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.rng = random.Random(seed)
        self.work = work
        self.spec_path = work / "grid-spec.json"
        self.out = work / "grid.jsonl"

    def _argv(self, *target: str) -> List[str]:
        return [
            "sweep", "--spec", str(self.spec_path), "--backend", "batch", "--jobs", "1",
            *target, "--pareto", PARETO, "--quiet",
        ]

    def _write_spec(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.spec_path.write_text(json.dumps(GRID_SPEC))

    def _full_grid(self, path: Path) -> bytes:
        if run_cli(self._argv("--out", str(path))) != 0:
            raise SetupError(f"grid sweep into {path} failed")
        return path.read_bytes()

    def _oracle(self, lines: Sequence[bytes]) -> None:
        scenarios = SweepSpec.from_dict(GRID_SPEC).expand()
        self.oracle_checked = min(ORACLE_SAMPLES, len(lines))
        self.oracle_failed = oracle_failures(lines, scenarios.__getitem__, self.rng)

    def setup(self) -> None:
        self._write_spec()
        self.reference = self._full_grid(self.out)
        lines = _lines(self.reference)
        if len(lines) != GRID_ROWS:
            raise SetupError(f"warm-up grid wrote {len(lines)} rows, expected {GRID_ROWS}")
        self.best_score = best_score(lines)
        self._oracle(lines)

    def call(self) -> Outcome:
        return Outcome(run_cli(self._argv("--out", str(self.out))) == 0)

    def check(self, outcome: Outcome) -> bool:
        data = self.out.read_bytes()
        outcome.rows = data.count(b"\n")
        return data == self.reference

class ResumeTail(GridJsonl):
    """``eco-chip sweep --resume`` into a copy of the complete grid store that
    was cut mid-line at about 90% of its bytes."""

    name = "resume-tail"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.target = work / "resume.jsonl"

    def _restore(self) -> None:
        self.target.write_bytes(self.cut)

    def setup(self) -> None:
        self._write_spec()
        self.reference = self._full_grid(self.work / "full.jsonl")
        size = len(self.reference)
        cut = int(size * 0.9) + random.Random(self.seed).randrange(-size // 100, size // 100)
        # Mid-line: neither just after a newline nor on one.
        while self.reference[cut - 1 : cut + 1].count(b"\n"):
            cut += 1
        self.cut = self.reference[:cut]
        lines = _lines(self.reference)
        self.best_score = best_score(lines)
        self._restore()
        warm = self.call()
        if not (warm.ok and self.check(warm)):
            raise SetupError("warm-up resume did not reproduce the complete store")
        self._oracle(lines)

    def call(self) -> Outcome:
        return Outcome(run_cli(self._argv("--resume", str(self.target))) == 0)

    def check(self, outcome: Outcome) -> bool:
        data = self.target.read_bytes()
        outcome.rows = data.count(b"\n")
        self._restore()
        return data == self.reference


class SearchRefine(InProcess):
    """``eco-chip search`` with ``pareto_refine`` over 36,015 ga102-4chiplet
    points (12,005 templates)."""

    name = "search-refine"

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.work = work
        self.seeds = [seed * SEARCH_SEEDS_PER_RUN + i for i in range(SEARCH_SEEDS_PER_RUN)]
        self.out = work / "search.jsonl"
        self.calls = 0

    def _spec_path(self, search_seed: int) -> Path:
        return self.work / f"search-{search_seed}.json"

    def _run(self, search_seed: int) -> bool:
        argv = [
            "search", "--spec", str(self._spec_path(search_seed)), "--backend", "batch",
            "--jobs", "1", "--out", str(self.out), "--quiet",
        ]
        return run_cli(argv) == 0

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        for search_seed in self.seeds:
            self._spec_path(search_seed).write_text(json.dumps(search_spec(search_seed)))
        if not self._run(self.seeds[0]):
            raise SetupError("warm-up search failed")
        warm = self.out.read_bytes()
        #: Store digest per search seed: the warm-up's for the first seed, the
        #: first timed call's for the others (digests, so that the references
        #: of many seeds do not add to the process's peak RSS).
        self.references: Dict[int, bytes] = {self.seeds[0]: hashlib.sha256(warm).digest()}
        lines = _lines(warm)
        self.best_score = best_score(lines)
        space = GridSpace(SearchSpec.from_dict(search_spec(self.seeds[0])).space)
        self.oracle_checked = min(ORACLE_SAMPLES, len(lines))
        self.oracle_failed = oracle_failures(lines, space.scenario, self.rng, drop=("search_round",))
        self.calls = 0

    def call(self) -> Outcome:
        search_seed = self.seeds[self.calls % len(self.seeds)]
        self.calls += 1
        return Outcome(self._run(search_seed), data=search_seed)

    def check(self, outcome: Outcome) -> bool:
        data = self.out.read_bytes()
        outcome.rows = data.count(b"\n")
        digest = hashlib.sha256(data).digest()
        return self.references.setdefault(outcome.data, digest) == digest

# ---------------------------------------------------------------------------
# Serve workload
# ---------------------------------------------------------------------------
#: Template axes stay fixed (8 node combinations x 2 packagings = 16 shared
#: templates); new specs vary only lifetimes and volumes.
SERVE_BASE: Dict[str, Any] = {
    "name": "serve-mixed",
    "testcases": ["ga102-3chiplet"],
    "nodes": [7, 14],
    "packaging": ["rdl_fanout", "silicon_bridge"],
    "carbon_sources": ["coal", "renewable_mix"],
    "lifetimes": [2, 4, 6],
    "system_volumes": [1e4, 1e5],
}
LIFETIME_CHOICES = [1 + 0.5 * i for i in range(19)]
VOLUME_CHOICES = [1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7]
#: Each block of five requests holds exactly two repeats, in seeded order.
#: A 50/50 mix would put the median on the border between fast hits and
#: slow misses, where it jumps from run to run; 2 of 5 keeps both the p50
#: and the p90 inside the miss distribution.
BLOCK, HITS_PER_BLOCK = 5, 2
#: Repeats pick among the latest new specs, well inside the server's
#: 128-entry LRU result cache.
REPEAT_WINDOW = 64
POLL_S = 0.002
TERMINAL = ("done", "partial", "failed", "cancelled")


def spec_key(spec: Dict[str, Any]) -> str:
    return json.dumps(spec, sort_keys=True)


class Traffic:
    """Seeded request stream: new specs, and repeats of recent ones."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.pool: List[Dict[str, Any]] = []
        self.seen = {spec_key(SERVE_BASE)}
        self.block: List[bool] = []

    def _new_spec(self) -> Dict[str, Any]:
        while True:
            spec = {
                **SERVE_BASE,
                "lifetimes": sorted(self.rng.sample(LIFETIME_CHOICES, self.rng.choice((2, 3, 4)))),
                "system_volumes": sorted(self.rng.sample(VOLUME_CHOICES, self.rng.choice((2, 3)))),
            }
            key = spec_key(spec)
            if key not in self.seen:
                self.seen.add(key)
                self.pool.append(spec)
                return spec

    def next(self) -> Dict[str, Any]:
        if not self.block:
            self.block = [True] * HITS_PER_BLOCK + [False] * (BLOCK - HITS_PER_BLOCK)
            self.rng.shuffle(self.block)
        if self.block.pop() and self.pool:
            return self.rng.choice(self.pool[-REPEAT_WINDOW:])
        return self._new_spec()


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_mb(pid: Any) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class ServeMixed:
    """A real ``eco-chip serve`` subprocess; one client submits small ga102
    specs over HTTP, polls each job to a terminal state and streams its
    results."""

    name = "serve-mixed"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.rng = random.Random(seed)
        self.work = work
        #: Opens the client-side spans; the harness swaps in a real tracer
        #: for the traced calls of a ``--trace 1`` run.
        self.tracer: Any = NullTracer()
        self.proc: Optional[subprocess.Popen] = None
        self.setups = 0
        self.local_estimator: Optional[BatchEstimator] = None
        self.expected: Dict[str, str] = {}
        self.oracle_checked = 0
        self.oracle_failed = 0

    # -- server lifetime ------------------------------------------------------------
    def _start(self) -> None:
        store_dir = self.work / f"serve-store-{self.setups}"
        env = dict(os.environ)
        env.pop("ECO_CHIP_COMPILE_CACHE", None)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.stderr = open(self.work / f"serve-{self.setups}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--store-dir", str(store_dir)],
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            cwd=str(self.work),
            env=env,
        )
        banner = self.proc.stdout.readline().decode()
        if "serving sweeps on http://" not in banner:
            raise SetupError(f"server did not start: {banner!r}")
        host_port = banner.split()[3].split("//", 1)[1].rstrip("/")
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def teardown(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
        self.stderr.close()

    # -- HTTP ---------------------------------------------------------------------
    def _http(self, method: str, path: str, body: Optional[bytes] = None):
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def metrics(self) -> Dict[str, Any]:
        status, data = self._http("GET", "/v1/metrics")
        if status != 200:
            raise RuntimeError(f"/v1/metrics answered {status}")
        return json.loads(data)

    def _request(self, spec: Dict[str, Any]) -> Outcome:
        """Submit, poll to a terminal state, stream the results."""
        tracer = self.tracer
        with tracer.span("serve.submit"):
            status, data = self._http("POST", "/v1/sweeps", json.dumps(spec).encode())
        if status != 202:
            return Outcome(False)
        job_id = json.loads(data)["id"]
        polls = 0
        deadline = time.monotonic() + 60
        with tracer.span("serve.wait"):
            while True:
                time.sleep(POLL_S)
                status, data = self._http("GET", f"/v1/sweeps/{job_id}")
                polls += 1
                if status != 200 or time.monotonic() > deadline:
                    return Outcome(False)
                state = json.loads(data)["state"]
                if state in TERMINAL:
                    break
        tracer.count("serve.polls", polls)
        with tracer.span("serve.results"):
            status, body = self._http("GET", f"/v1/sweeps/{job_id}/results")
        tracer.count("serve.bytes_streamed", len(body))
        return Outcome(status == 200 and state == "done", data=(spec, body))

    # -- local reference ------------------------------------------------------------
    def _local_digest(self, spec: Dict[str, Any]) -> str:
        """SHA-256 of what a local batch ``Session.sweep`` of ``spec`` writes."""
        key = spec_key(spec)
        digest = self.expected.get(key)
        if digest is None:
            if self.local_estimator is None:
                self.local_estimator = BatchEstimator()
            path = self.work / "local.jsonl"
            Session(backend="batch", batch_estimator=self.local_estimator).sweep(
                spec, out=path, collect_records=False
            )
            digest = self.expected[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        return digest

    # -- workload protocol ------------------------------------------------------------
    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self._start()
        self.setups += 1
        warm = self._request(SERVE_BASE)
        if not warm.ok:
            raise SetupError("warm-up request failed")
        body = warm.data[1]
        if hashlib.sha256(body).hexdigest() != self._local_digest(SERVE_BASE):
            raise SetupError("warm-up results differ from a local Session.sweep")
        lines = _lines(body)
        self.best_score = best_score(lines)
        scenarios = SweepSpec.from_dict(SERVE_BASE).expand()
        self.oracle_checked = min(ORACLE_SAMPLES, len(lines))
        self.oracle_failed = oracle_failures(lines, scenarios.__getitem__, self.rng)
        self.traffic = Traffic(random.Random(self.seed))
        self.received: List[tuple] = []

    def call(self) -> Outcome:
        return self._request(self.traffic.next())

    def check(self, outcome: Outcome) -> bool:
        if outcome.data is None:
            return False
        spec, body = outcome.data
        outcome.rows = body.count(b"\n")
        self.received.append((spec, hashlib.sha256(body).hexdigest()))
        outcome.data = None
        return True

    def finish(self) -> int:
        """Calls whose ``/results`` body differs from a local sweep's store."""
        return sum(digest != self._local_digest(spec) for spec, digest in self.received)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def helper_cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)


WORKLOADS = {cls.name: cls for cls in (GridJsonl, ResumeTail, SearchRefine, ServeMixed)}
