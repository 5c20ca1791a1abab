"""The repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all closed loop; each client waits for its reply):

``cli-small``
    One client runs one ``python -m repro`` subprocess at a time, cycling
    through four seeded small commands (batched sweep, loop-engine sweep,
    network, protocol).  Interpreter start and imports dominate.
``serve-compute``
    Two clients drive ``repro serve --workers 2 --job-workers 1`` with
    never-repeating grid sweeps, network and protocol runs: every task
    misses the store, so engines, per-job process pools and queue wait
    dominate.
``serve-replay``
    Two clients replay a seeded pool that set-up computed once against
    ``repro serve --workers 1 --job-workers 2``: every task hits the store,
    so key derivation, lookups, merge and the HTTP JSON of the rows dominate.
``campaign-broker``
    This process hosts the coordinator (``BrokerBackend`` + ``run_campaign``)
    over two ``repro broker`` subprocesses and runs simulate -> analyse ->
    report campaigns: broker framing and the DAG scheduler dominate.

``--trace 0`` prints the end-to-end metrics, measured untraced.  ``--trace 1``
splits the window in two: the first half runs untraced, the second half
against a system whose layer entry points are wrapped by ``probes.py``; it
prints the per-layer split of the traced requests and the tracing overhead.
Every request's rows are checked (``checks.py``); a request that fails a
check, exits non-zero, gets a non-2xx answer, errors or times out counts as
failed.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata, util
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A request still running after this long fails.
REQUEST_TIMEOUT_S = 60.0
#: Samples a p90 needs: ten beyond it.
TAIL_SAMPLES = 100

#: Metric names and units, in the order BENCHMARK.json lists them.
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}

#: Per-request mean of an attributed layer's self time.
_LAYER_METRICS = {
    "cli.main_self_s": "cli.main",
    "requests.prepare_s": "requests.prepare",
    "requests.execute_self_s": "requests.execute",
    "driver.self_s": "driver",
    "store.key_s": "store.key",
    "store.lookup_s": "store.lookup",
    "store.flush_s": "store.flush",
    "dispatch.self_s": "dispatch",
    "campaign.self_s": "campaign",
    "broker.dispatch_self_s": "broker",
}

#: Per-request mean of a recorded count.
_COUNT_METRICS = (
    "store.keys",
    "store.lookup_keys",
    "store.flush_entries",
    "dispatch.shards",
    "dispatch.pools_started",
    "engine.sweep_s",
    "engine.network_s",
    "engine.protocol_s",
    "engine.agent_steps",
    "campaign.nodes",
    "broker.shards",
)

_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)\s*$")


class BenchError(RuntimeError):
    """The benchmark could not set up or drive the system."""


@dataclass
class Outcome:
    """One request: client-side latency, completion time and verdict."""

    latency: float
    done: float
    ok: bool
    replicates: int = 0
    error: str = ""
    detail: Dict[str, Any] = field(default_factory=dict)


# -- processes -----------------------------------------------------------------


class Context:
    """The checkout, a scratch directory inside it, and every child process."""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.work = root / ".perfbench-work" / f"run-{os.getpid()}"
        (self.work / "tmp").mkdir(parents=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            TMPDIR=str(self.work / "tmp"),
        )
        self.processes: List[subprocess.Popen] = []
        self._names = itertools.count()

    def path(self, stem: str, suffix: str) -> Path:
        return self.work / f"{stem}-{next(self._names)}{suffix}"

    def command(self, arguments: Sequence[str], mode: Optional[str] = None,
                dump: Optional[Path] = None) -> List[str]:
        """``python -m repro ARGS``, or its traced twin when ``mode`` is set."""
        if mode is None:
            return [sys.executable, "-m", "repro", *arguments]
        return [sys.executable, "-X", "importtime", str(HERE / "traced.py"),
                mode, str(dump), *arguments]

    def spawn(self, argv: Sequence[str], *, stdout: Any, stderr: Any) -> subprocess.Popen:
        process = subprocess.Popen(
            list(argv), cwd=self.root, env=self.env, stdout=stdout,
            stderr=stderr, start_new_session=True,
        )
        self.processes.append(process)
        return process

    def close(self) -> None:
        for process in self.processes:
            stop(process)
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def stop(process: subprocess.Popen, timeout: float = 20.0) -> None:
    """Interrupt ``process``, wait for it, then clear its process group."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    for stream in (process.stdout, process.stderr):
        if stream is not None:
            stream.close()


def wait_for_output(process: subprocess.Popen, marker: bytes, timeout: float) -> str:
    """Read ``process`` stdout until ``marker`` appears; returns what was read."""
    deadline = time.monotonic() + timeout
    buffer = b""
    descriptor = process.stdout.fileno()
    while marker not in buffer:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no {marker!r} from {process.args} in {timeout}s")
        readable, _, _ = select.select([descriptor], [], [], remaining)
        if readable:
            chunk = os.read(descriptor, 65536)
            if not chunk:
                raise BenchError(f"{process.args} exited with {process.wait()}")
            buffer += chunk
    return buffer.decode("utf-8", "replace")


def run_to_exit(context: Context, argv: Sequence[str]) -> Tuple[float, int, float, str]:
    """Spawn ``argv`` and reap it: (latency s, exit code, peak RSS MiB, stderr)."""
    started = time.perf_counter()
    process = context.spawn(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    timer = threading.Timer(REQUEST_TIMEOUT_S, process.kill)
    timer.start()
    try:
        stderr = process.stderr.read()
        _, status, usage = os.wait4(process.pid, 0)
    finally:
        timer.cancel()
    latency = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    process.stderr.close()
    context.processes.remove(process)
    return latency, process.returncode, usage.ru_maxrss / 1024, stderr.decode("utf-8", "replace")


def vm_hwm_mib(pid: int) -> float:
    """High-water resident set of ``pid`` (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError(f"no VmHWM for pid {pid}")


def scipy_import_s(importtime: str) -> float:
    """Seconds ``-X importtime`` charged to the outermost scipy imports."""
    entries = []
    for line in importtime.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            entries.append((len(match.group(2)), match.group(3), int(match.group(1))))
    total = 0
    for index, (indent, name, cumulative) in enumerate(entries):
        if name.split(".")[0] != "scipy":
            continue
        # importtime prints children before their parent, one level deeper.
        parent = next((entry for entry in entries[index + 1:] if entry[0] < indent), None)
        if parent is None or parent[1].split(".")[0] != "scipy":
            total += cumulative
    return total / 1e6


# -- workloads -----------------------------------------------------------------


class Workload:
    """One way of driving the system; subclasses set up, request, tear down."""

    name = ""
    clients = 1
    #: Requests each client sends even when the window is already over.
    min_requests = 0

    def __init__(self, context: Context) -> None:
        self.context = context

    def setup(self, traced: bool) -> Dict[str, Any]:
        raise NotImplementedError

    def request(self, system: Dict[str, Any], client: int, index: int) -> Outcome:
        raise NotImplementedError

    def peak_rss_mib(self, system: Dict[str, Any]) -> float:
        raise NotImplementedError

    def teardown(self, system: Dict[str, Any]) -> None:
        pass

    # Traced-run hooks.
    def store_counts(self, system: Dict[str, Any]) -> Optional[Tuple[int, int]]:
        """The daemon store's (hits, misses) so far; None without a store."""
        return None

    def attribute(
        self, system: Dict[str, Any], outcome: Outcome
    ) -> Optional[Tuple[Dict[str, float], Dict[str, float]]]:
        """(layer self times, counts) of one traced request; None to skip it."""
        raise NotImplementedError

    def layer_extras(self, system: Dict[str, Any], outcomes: List[Outcome]) -> Dict[str, float]:
        """Per-layer metrics that are not per-request means."""
        return {}


def _merge_trees(trees: Sequence[Dict[str, Any]]) -> Tuple[Dict[str, float], Dict[str, float]]:
    layers: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for tree in trees:
        for name, value in tree["layers"].items():
            layers[name] = layers.get(name, 0.0) + value
        for name, value in tree["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return layers, counts


def _load_dump(path: Path) -> Dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise BenchError(f"traced process left no readable dump {path}: {error}")


class CliSmall(Workload):
    name = "cli-small"
    min_requests = 4  # one full command cycle, so every layer is exercised

    def __init__(self, context: Context) -> None:
        super().__init__(context)
        self.commands = workloads.cli_commands(context.seed)
        self.first_output: Dict[int, bytes] = {}

    def setup(self, traced: bool) -> Dict[str, Any]:
        # A shell user has no server to start; the set-up is one warm-up
        # call (`--version` imports all of repro.cli), which also compiles
        # byte code on a fresh checkout.
        _, code, _, stderr = run_to_exit(self.context, self.context.command(["--version"]))
        if code != 0:
            raise BenchError(f"repro --version exited {code}: {stderr[-500:]}")
        return {"traced": traced, "rss": []}

    def request(self, system: Dict[str, Any], client: int, index: int) -> Outcome:
        command = index % len(self.commands)
        payload = self.commands[command]
        output = self.context.path("cli", ".csv")
        arguments = workloads.cli_arguments(payload) + ["--output", str(output)]
        dump = self.context.path("cli-trace", ".json") if system["traced"] else None
        spawned = time.time()
        latency, code, rss, stderr = run_to_exit(
            self.context, self.context.command(arguments, "cli" if dump else None, dump)
        )
        done = time.perf_counter()
        system["rss"].append(rss)
        detail = {"spawned": spawned, "dump": dump, "stderr": stderr if dump else ""}
        if code != 0:
            error = f"exit {code}: {stderr[-300:]}"
            return Outcome(latency, done, False, error=error, detail=detail)
        data = output.read_bytes()
        rows = checks.read_csv_rows(output)
        output.unlink()
        problems = checks.check_rows(payload, rows)
        if self.first_output.setdefault(command, data) != data:
            problems.append(f"command {command} output differs from its first run")
        return Outcome(latency, done, not problems, workloads.replicates(payload),
                       "; ".join(problems), detail)

    def peak_rss_mib(self, system: Dict[str, Any]) -> float:
        return max(system["rss"])

    def attribute(self, system, outcome):
        dump = _load_dump(outcome.detail["dump"])
        layers, counts = _merge_trees(dump["trees"])
        layers["interpreter"] = dump["started"] - outcome.detail["spawned"]
        layers["import"] = dump["import_s"]
        layers["trace.install"] = dump["install_s"]
        # From the exit hook to the parent reaping the process: interpreter
        # and module teardown.
        layers["exit"] = outcome.detail["spawned"] + outcome.latency - dump["exiting"]
        outcome.detail["imports"] = (dump["import_s"], scipy_import_s(outcome.detail["stderr"]))
        return layers, counts

    def layer_extras(self, system, outcomes):
        imports = [outcome.detail["imports"] for outcome in outcomes if outcome.ok]
        return {
            "import.repro_cli_s": statistics.median(cli for cli, _ in imports),
            "import.scipy_s": statistics.median(scipy for _, scipy in imports),
        }


class ServeWorkload(Workload):
    """A ``repro serve`` subprocess behind two HTTP clients."""

    clients = 2
    daemon_arguments: Tuple[str, ...] = ()
    #: Fixed status-poll interval (``ServiceClient.wait`` backs off to 1 s).
    poll_s = 0.01

    def __init__(self, context: Context) -> None:
        super().__init__(context)
        from repro.service.client import ServiceClient

        self.client_class = ServiceClient

    def setup(self, traced: bool) -> Dict[str, Any]:
        store = self.context.path("store", ".sqlite")
        dump = self.context.path("daemon-trace", ".json") if traced else None
        log = self.context.path("daemon", ".log")
        arguments = ["serve", "--port", "0", "--store", str(store), *self.daemon_arguments]
        with open(log, "wb") as stderr:
            process = self.context.spawn(
                self.context.command(arguments, "serve" if traced else None, dump),
                stdout=subprocess.PIPE, stderr=stderr,
            )
        banner = wait_for_output(process, b"listening on ", 60.0)
        url = banner.split("listening on ", 1)[1].split()[0]
        system = {
            "process": process, "dump": dump, "log": log, "traced": traced,
            "client": self.client_class(url, timeout=REQUEST_TIMEOUT_S),
        }
        self.prepare(system)
        return system

    def prepare(self, system: Dict[str, Any]) -> None:
        pass

    def next_payload(self, system: Dict[str, Any], client: int, index: int) -> Dict[str, Any]:
        raise NotImplementedError

    def run_job(self, client: Any, payload: Dict[str, Any]) -> Outcome:
        """Submit, poll at a fixed interval, fetch rows; latency is client-side."""
        calls = {"submit": 0.0, "status": 0.0, "result": 0.0}
        sent = time.time()
        started = time.perf_counter()
        submitted = client.submit(payload)
        calls["submit"] = time.perf_counter() - started
        polls = 0
        while True:
            begin = time.perf_counter()
            snapshot = client.status(submitted["job_id"])
            calls["status"] += time.perf_counter() - begin
            polls += 1
            if snapshot["status"] in ("done", "error"):
                break
            if begin - started > REQUEST_TIMEOUT_S:
                raise BenchError(f"job {submitted['job_id']} timed out")
            time.sleep(self.poll_s)
        if snapshot["status"] == "error":
            raise BenchError(f"job failed: {snapshot.get('error')}")
        begin = time.perf_counter()
        result = client.result(submitted["job_id"])
        done = time.perf_counter()
        calls["result"] = done - begin
        detail = {
            "sent": sent, "snapshot": snapshot, "calls": calls, "http_calls": polls + 2,
            "key": submitted["key"], "attached": submitted["attached"],
            "rows": result["rows"],
        }
        return Outcome(done - started, done, True, workloads.replicates(payload), detail=detail)

    def request(self, system: Dict[str, Any], client: int, index: int) -> Outcome:
        payload = self.next_payload(system, client, index)
        outcome = self.run_job(system["client"], payload)
        problems = checks.check_rows(payload, outcome.detail["rows"])
        problems.extend(self.compare(payload, outcome.detail["rows"]))
        outcome.detail["rows"] = None
        outcome.ok = not problems
        outcome.error = "; ".join(problems)
        return outcome

    def compare(self, payload: Dict[str, Any], rows: List[Dict[str, Any]]) -> List[str]:
        return []

    def peak_rss_mib(self, system: Dict[str, Any]) -> float:
        return vm_hwm_mib(system["process"].pid)

    def store_counts(self, system: Dict[str, Any]) -> Tuple[int, int]:
        store = system["client"].stats()["store"]
        return int(store["hits"]), int(store["misses"])

    def teardown(self, system: Dict[str, Any]) -> None:
        stop(system["process"])
        self.context.processes.remove(system["process"])
        if system["traced"]:
            system["trace"] = _load_dump(system["dump"])
            system["importtime"] = system["log"].read_text(encoding="utf-8", errors="replace")

    def attribute(self, system, outcome):
        detail = outcome.detail
        if detail["attached"]:
            return None  # shares another request's job; its split is that one's
        snapshot = detail["snapshot"]
        execute, submit = [], []
        for tree in system["trace"]["trees"]:
            if tree["tag"] != detail["key"]:
                continue
            # The daemon stamps started_at/submitted_at just before it calls
            # execute_request/request_from_dict, on the same clock.
            if "requests.execute" in tree["layers"]:
                if snapshot["started_at"] <= tree["start"] <= snapshot["finished_at"]:
                    execute.append(tree)
            elif detail["sent"] <= tree["start"] <= snapshot["submitted_at"]:
                submit.append(tree)
        if len(execute) != 1:
            raise BenchError(f"found {len(execute)} daemon traces for job {snapshot['id']}")
        layers, counts = _merge_trees(execute + submit)
        submit_s = sum(sum(tree["layers"].values()) for tree in submit)
        layers["http"] = outcome.latency - snapshot["total_s"] - submit_s
        layers["jobs.queue"] = snapshot["queue_wait_s"]
        return layers, counts

    def layer_extras(self, system, outcomes):
        kept = [o for o in outcomes if o.ok and not o.detail["attached"]]
        snapshots = [o.detail["snapshot"] for o in kept]
        hits = system["counts_after"][0] - system["counts_before"][0]
        misses = system["counts_after"][1] - system["counts_before"][1]
        trees = system["trace"]["trees"]
        return {
            "import.repro_cli_s": system["trace"]["import_s"],
            "import.scipy_s": scipy_import_s(system["importtime"]),
            "store.open_s": sum(t["layers"].get("store.open", 0.0) for t in trees),
            "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "jobs.queue_wait_p50_s": statistics.median(s["queue_wait_s"] for s in snapshots),
            "jobs.run_p50_s": statistics.median(s["run_s"] for s in snapshots),
            "http.calls_per_request": statistics.fmean(o.detail["http_calls"] for o in kept),
            "http.submit_s": statistics.fmean(o.detail["calls"]["submit"] for o in kept),
            "http.status_s": statistics.fmean(o.detail["calls"]["status"] for o in kept),
            "http.result_s": statistics.fmean(o.detail["calls"]["result"] for o in kept),
            "http.overhead_s": statistics.fmean(
                o.latency - o.detail["snapshot"]["total_s"] for o in kept
            ),
        }


class ServeCompute(ServeWorkload):
    name = "serve-compute"
    daemon_arguments = ("--workers", "2", "--job-workers", "1")
    poll_s = 0.02

    def prepare(self, system):
        system["sequences"] = [
            workloads.compute_requests(self.context.seed, client)
            for client in range(self.clients)
        ]

    def next_payload(self, system, client, index):
        return next(system["sequences"][client])


class ServeReplay(ServeWorkload):
    name = "serve-replay"
    daemon_arguments = ("--workers", "1", "--job-workers", "2")
    poll_s = 0.005

    def __init__(self, context: Context) -> None:
        super().__init__(context)
        self.pool = workloads.replay_pool(context.seed)
        self.cold: Dict[str, str] = {}

    def prepare(self, system):
        # Populate: each pool request computed once, cold.
        for payload in self.pool:
            outcome = self.run_job(system["client"], payload)
            problems = checks.check_rows(payload, outcome.detail["rows"])
            problems.extend(self.compare(payload, outcome.detail["rows"]))
            if problems:
                raise BenchError(f"populate: {'; '.join(problems)}")

    def compare(self, payload, rows):
        # Cold answers are recorded once per run; every later answer, warm
        # or from a fresh daemon's populate, must be bit-identical.
        encoded = json.dumps(rows, sort_keys=True)
        key = json.dumps(payload, sort_keys=True)
        if self.cold.setdefault(key, encoded) != encoded:
            return ["replayed rows differ from the cold rows"]
        return []

    def next_payload(self, system, client, index):
        share = self.pool[client::self.clients]
        return share[index % len(share)]


class CampaignBroker(Workload):
    name = "campaign-broker"

    def __init__(self, context: Context) -> None:
        super().__init__(context)
        import repro.campaign.broker as broker
        import repro.campaign.graph as graph
        import repro.campaign.scheduler as scheduler
        from repro.obs.metrics import get_registry

        self.broker, self.graph, self.scheduler = broker, graph, scheduler
        self.requeues = get_registry().counter("repro_broker_requeues_total")
        self.recorder: Optional[probes.Recorder] = None

    def setup(self, traced: bool) -> Dict[str, Any]:
        if traced and self.recorder is None:
            self.recorder = probes.Recorder()
            probes.install(self.recorder)
        backend = self.broker.BrokerBackend("tcp://127.0.0.1:0", min_brokers=2, timeout=60.0)
        system: Dict[str, Any] = {"backend": backend, "brokers": [], "traced": traced}
        for _ in range(2):
            dump = self.context.path("broker-trace", ".json") if traced else None
            log = self.context.path("broker", ".log")
            with open(log, "wb") as stderr:
                process = self.context.spawn(
                    self.context.command(
                        ["broker", "--coordinator", backend.address],
                        "bare" if traced else None, dump,
                    ),
                    stdout=subprocess.DEVNULL, stderr=stderr,
                )
            system["brokers"].append((process, dump, log))
        # Both brokers have dialled in once a campaign has run: every
        # run_shards call waits for min_brokers before its first dispatch.
        warmup = {
            "name": "warm-up",
            "nodes": [{"id": "simulate", "kind": "simulate", "request": {
                "kind": "sweep", "options": [0.8, 0.5], "populations": [20],
                "horizon": 5, "replications": 2, "seed": 1, "engine": "loop"}}],
        }
        self.run(system, warmup)
        system["specs"] = workloads.campaign_specs(self.context.seed)
        system["requeues"] = self.requeues.value()
        return system

    def run(self, system: Dict[str, Any], spec: Dict[str, Any]) -> Outcome:
        campaign = self.graph.campaign_from_spec(spec)
        began = time.time()
        started = time.perf_counter()
        result = self.scheduler.run_campaign(campaign, backend=system["backend"])
        done = time.perf_counter()
        node_rows = {node_id: list(result[node_id].rows) for node_id in result.order}
        problems = checks.check_campaign(spec, node_rows)
        if problems:
            raise BenchError(f"campaign {spec['name']}: {'; '.join(problems)}")
        replicates = sum(
            workloads.replicates(node["request"])
            for node in spec["nodes"] if node["kind"] == "simulate"
        )
        return Outcome(done - started, done, True, replicates,
                       detail={"began": began, "ended": time.time()})

    def request(self, system, client, index):
        return self.run(system, next(system["specs"]))

    def peak_rss_mib(self, system):
        return vm_hwm_mib(os.getpid())

    def teardown(self, system):
        system["backend"].close()
        imports = []
        for process, dump, log in system["brokers"]:
            try:
                process.wait(20.0)
            finally:
                stop(process)
                self.context.processes.remove(process)
            if dump is not None:
                trace = _load_dump(dump)
                text = log.read_text(encoding="utf-8", errors="replace")
                imports.append((trace["import_s"], scipy_import_s(text)))
        system["imports"] = imports
        system["requeues"] = self.requeues.value() - system["requeues"]

    def attribute(self, system, outcome):
        trees = self.recorder.trees_between(outcome.detail["began"], outcome.detail["ended"])
        return _merge_trees(trees)

    def layer_extras(self, system, outcomes):
        return {
            "import.repro_cli_s": statistics.median(i[0] for i in system["imports"]),
            "import.scipy_s": statistics.median(i[1] for i in system["imports"]),
            "broker.requeues": system["requeues"],
        }


WORKLOADS: Dict[str, Callable[[Context], Workload]] = {
    workload.name: workload
    for workload in (CliSmall, ServeCompute, ServeReplay, CampaignBroker)
}


# -- measurement ---------------------------------------------------------------


def closed_loop(
    workload: Workload, system: Dict[str, Any], seconds: float
) -> Tuple[List[Outcome], float]:
    """Each client sends its next request when the last one returned.

    Returns the outcomes and the window: from the start to the last
    completion (requests in flight at the deadline finish and count).
    """
    start = time.perf_counter()
    deadline = start + seconds
    outcomes: List[List[Outcome]] = [[] for _ in range(workload.clients)]

    def drive(client: int) -> None:
        for index in itertools.count():
            began = time.perf_counter()
            if began >= deadline and index >= workload.min_requests:
                return
            try:
                outcome = workload.request(system, client, index)
            except Exception as error:  # noqa: BLE001 - every failure is a failed request
                now = time.perf_counter()
                outcome = Outcome(now - began, now, False, error=f"{type(error).__name__}: {error}")
            outcomes[client].append(outcome)

    threads = [threading.Thread(target=drive, args=(client,)) for client in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    flat = [outcome for per_client in outcomes for outcome in per_client]
    end = max((outcome.done for outcome in flat), default=deadline)
    return flat, end - start


def end_to_end(
    setups: List[float], outcomes: List[Outcome], window: float, rss: float
) -> Dict[str, float]:
    good = [outcome for outcome in outcomes if outcome.ok]
    if not good:
        raise BenchError("no request succeeded")
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(outcome.latency for outcome in good),
        "requests_per_s": len(good) / window,
        "replicates_per_s": sum(outcome.replicates for outcome in good) / window,
        "peak_rss_mb": rss,
    }


def tail_latency(outcomes: List[Outcome]) -> Optional[float]:
    latencies = sorted(outcome.latency for outcome in outcomes if outcome.ok)
    if len(latencies) < TAIL_SAMPLES:
        return None
    return statistics.quantiles(latencies, n=10, method="inclusive")[-1]


def interpreter_floor(context: Context) -> float:
    """Median wall time of a bare ``python -c pass``."""
    times = [run_to_exit(context, [sys.executable, "-c", "pass"])[0] for _ in range(5)]
    return statistics.median(times)


def path_mismatch(context: Context) -> int:
    """Rows where one batched grid sweep differs between ``repro sweep`` and the daemon."""
    payload = workloads.path_check_request(context.seed)
    workload = ServeWorkload(context)
    system = workload.setup(traced=False)
    try:
        output = context.path("path-check", ".csv")
        _, code, _, stderr = run_to_exit(
            context, context.command(workloads.cli_arguments(payload) + ["--output", str(output)])
        )
        if code != 0:
            raise BenchError(f"path check sweep exited {code}: {stderr[-300:]}")
        cli_rows = checks.read_csv_rows(output)
        daemon_rows = workload.run_job(system["client"], payload).detail["rows"]
    finally:
        workload.teardown(system)
    problems = checks.check_rows(payload, cli_rows) + checks.check_rows(payload, daemon_rows)
    if problems:
        raise BenchError(f"path check: {'; '.join(problems)}")
    return checks.mismatched_rows(cli_rows, daemon_rows)


def per_layer(workload: Workload, system: Dict[str, Any], traced: List[Outcome],
              untraced: List[Outcome], context: Context) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of the traced requests, and attribution problems."""
    attributed = []
    for outcome in traced:
        if outcome.ok:
            split = workload.attribute(system, outcome)
            if split is not None:
                attributed.append((outcome, split[0], split[1]))
    if not attributed:
        raise BenchError("no traced request to attribute")
    count = len(attributed)
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name, layer in _LAYER_METRICS.items():
        metrics[name] = sum(layers.get(layer, 0.0) for _, layers, _ in attributed) / count
    for name in _COUNT_METRICS:
        metrics[name] = sum(counts.get(name, 0) for _, _, counts in attributed) / count
    busy = sum(metrics[f"engine.{family}_s"] for family in ("sweep", "network", "protocol"))
    metrics["engine.agent_steps_per_s"] = metrics["engine.agent_steps"] / busy if busy else 0.0
    latency = sum(outcome.latency for outcome, _, _ in attributed)
    named = sum(sum(layers.values()) for _, layers, _ in attributed)
    metrics["unattributed_share"] = (latency - named) / latency
    metrics["trace.overhead_ratio"] = (
        statistics.median(o.latency for o in traced if o.ok)
        / statistics.median(o.latency for o in untraced if o.ok)
    )
    metrics.update(workload.layer_extras(system, traced))
    metrics["import.interpreter_s"] = interpreter_floor(context)
    metrics["check.path_mismatch"] = path_mismatch(context)

    print(f"attribution over {count} traced requests (mean s per request):")
    totals: Dict[str, float] = {}
    for _, layers, _ in attributed:
        for layer, value in layers.items():
            totals[layer] = totals.get(layer, 0.0) + value
    for layer, value in sorted(totals.items(), key=lambda item: -item[1]):
        print(f"  {layer:<18} {value / count:12.6f}  {value / latency:7.2%}")
    print(f"  {'unattributed':<18} {(latency - named) / count:12.6f}  "
          f"{metrics['unattributed_share']:7.2%}")
    print(f"  {'= latency':<18} {latency / count:12.6f}")
    # The split sums to the latency by construction; it is honest only if no
    # layer was counted twice, which would leave less than nothing over.
    problems = []
    if metrics["unattributed_share"] < 0:
        problems.append("layer self times exceed the measured latency")
    return metrics, problems


# -- reporting -----------------------------------------------------------------


def environment(root: Path) -> Dict[str, Any]:
    """Machine and code facts printed beside the numbers."""
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    commit = "n/a (not a git checkout)"
    if (root / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True)
        commit = result.stdout.strip() or commit
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": util.find_spec("numba") is not None,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_py_lines": lines,
    }


def report(
    metrics: Dict[str, float],
    units: Dict[str, str],
    extra: Sequence[Tuple[str, str, str]],
) -> None:
    print(f"{'metric':<26} {'value':>16}  unit")
    for name, unit in units.items():
        print(f"{name:<26} {metrics[name]:>16.6g}  {unit}")
    for name, value, unit in extra:
        print(f"{name:<26} {value:>16}  {unit}")


def run(arguments: argparse.Namespace, root: Path) -> Dict[str, Any]:
    context = Context(root, arguments.seed)
    try:
        workload = WORKLOADS[arguments.workload](context)
        print(f"workload {workload.name}: seed {arguments.seed}, {arguments.seconds}s, "
              f"trace {arguments.trace}, {workload.clients} client(s), closed loop")
        print("environment: " + json.dumps(environment(root), sort_keys=True))
        if not arguments.trace:
            setups = []
            for repeat in range(SETUP_REPEATS):
                began = time.perf_counter()
                system = workload.setup(traced=False)
                setups.append(time.perf_counter() - began)
                if repeat < SETUP_REPEATS - 1:
                    workload.teardown(system)
            outcomes, window = closed_loop(workload, system, arguments.seconds)
            rss = workload.peak_rss_mib(system)
            workload.teardown(system)
            metrics = end_to_end(setups, outcomes, window, rss)
            units = END_TO_END_UNITS
            tail = tail_latency(outcomes)
            good = sum(outcome.ok for outcome in outcomes)
            extra = [
                ("latency_p90_s", f"{tail:.6g}" if tail is not None
                 else f"n/a ({good} < {TAIL_SAMPLES} samples)", "s"),
                ("error_rate", f"{(len(outcomes) - good) / max(1, len(outcomes)):.6g}", "ratio"),
                ("samples", str(good), "requests"),
            ]
            problems: List[str] = []
        else:
            half = arguments.seconds / 2
            system = workload.setup(traced=False)
            untraced, _ = closed_loop(workload, system, half)
            workload.teardown(system)
            system = workload.setup(traced=True)
            before = workload.store_counts(system)
            traced, _ = closed_loop(workload, system, half)
            system["counts_before"] = before
            system["counts_after"] = workload.store_counts(system)
            workload.teardown(system)
            outcomes = untraced + traced
            metrics, problems = per_layer(workload, system, traced, untraced, context)
            units = PER_LAYER_UNITS
            extra = [("samples", f"{sum(o.ok for o in traced)} traced, "
                      f"{sum(o.ok for o in untraced)} untraced", "requests")]
        report(metrics, units, extra)
        failures = [outcome.error for outcome in outcomes if not outcome.ok]
        for message in failures[:5] + problems:
            print(f"FAILED: {message}", file=sys.stderr)
        return {
            "correct": not failures and not problems,
            "attempted": len(outcomes),
            "failed": len(failures),
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }
    finally:
        context.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no repro checkout (src/repro missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        result = run(arguments, root)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
