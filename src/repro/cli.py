"""Command-line interface for quick simulations and bound calculations.

Eleven subcommands cover the workflows a user reaches for most often without
writing a script::

    python -m repro simulate --options 0.8 0.5 0.5 --population 2000 --horizon 300
    python -m repro run      --options 0.8 0.5 0.5 --population 100000 --replications 100
    python -m repro bounds   --num-options 5 --beta 0.6 --population 5000
    python -m repro coupling --population 10000 --horizon 8
    python -m repro sweep    --populations 100 1000 10000 --horizon 300 --output sweep.csv
    python -m repro network  --topology watts_strogatz --size 10000 --replications 50
    python -m repro protocol --nodes 10000 --loss 0.2 --mass-crash-fraction 0.4
    python -m repro serve    --port 8765 --store results.sqlite
    python -m repro campaign --spec campaign.json --backend pool --store results.sqlite
    python -m repro broker   --coordinator tcp://coordinator-host:5555 --workers 4
    python -m repro trace    summarize trace.jsonl

Every simulation command has two engines: the batched replicate-axis
engine (the default) and ``--engine loop``, the per-seed reference loop.
``run`` executes many independent replications at once on the batched
engine (:class:`repro.core.batched.BatchedDynamics`) and prints their
summary; it runs as a one-point ``sweep``.  ``sweep`` goes further: the
whole ``(N x beta x mu)`` parameter grid times its replications runs as a
*single* batched launch with per-row parameters.  ``network`` runs the
neighbourhood-restricted dynamics on a chosen topology — by default on the
replicate-batched sparse engine
(:class:`repro.network.vectorized.BatchedNetworkDynamics`), with ``--engine
loop`` the per-agent reference loop.  ``protocol`` runs the message-passing
distributed protocol under message loss and crash-stop failures — by
default on the replicate-batched
:class:`repro.distributed.vectorized.BatchedProtocol`; only ``--engine
loop`` models per-message delay (``--delay``).

``sweep``, ``network`` and ``protocol`` additionally accept the parallel
runtime flags (``--workers K --store PATH [--resume]``): the workload is
sharded across ``K`` worker processes and every computed result lands in a
content-addressed sqlite store that serves cache hits on re-runs and lets a
killed run resume shard-by-shard — with bit-identical metrics at any worker
count (see the README's "Scaling out" guide).  They and ``run`` derive their
workload through the shared request layer (:mod:`repro.service.requests`),
the same path ``serve`` — the long-running simulation-as-a-service API
daemon (job submission, polling, cache-first result serving; see the
README's "Serving" guide) — executes for jobs submitted over HTTP, so a CLI
invocation and the equivalent API job produce bit-identical rows.

``campaign`` runs a whole experiment campaign — a typed simulate → analyse
→ report compute DAG (:mod:`repro.campaign`) — on a chosen backend:
``--backend inproc`` (in-process), ``pool`` (worker processes) or ``broker``
(the socket coordinator; point ``repro broker --coordinator tcp://HOST:PORT``
processes, on any machine, at the endpoint given via ``--brokers``).  All
backends produce bit-identical results, and with ``--store`` a killed
campaign resumes from cache.  See the README's "Campaigns" guide.

The runtime-enabled commands (``sweep``/``network``/``protocol``/``campaign``)
and ``serve`` additionally accept ``--trace-out PATH`` (default: the
``REPRO_TRACE_OUT`` environment variable): every span — per-shard execution,
cache lookups, campaign DAG nodes — is appended to a JSONL trace file that
``repro trace summarize PATH`` renders as a per-phase latency breakdown.
See the README's "Observability" guide.

Every command prints an aligned text table; ``--output`` additionally writes
CSV via :func:`repro.experiments.io.write_csv`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from repro import __version__
from repro.backends import PRECISIONS
from repro.experiments import (
    NETWORK_ENGINES,
    PROTOCOL_ENGINES,
    ResultTable,
    run_sweep,
    write_csv,
)
from repro.obs import TRACE_OUT_ENV, JsonlSink, Tracer
from repro.runtime import ExecutionOptions, ParallelExecutor, ResultStore, StoreError
from repro.runtime.options import BACKEND_NAMES as CAMPAIGN_BACKENDS
from repro.service.requests import (
    RequestError,
    execute_request,
    network_request,
    prepare_request,
    protocol_request,
    summary_table,
    sweep_request,
)


def _add_dtype_argument(subparser: argparse.ArgumentParser) -> None:
    """Attach the storage-precision flag shared by sweep/network/protocol."""
    subparser.add_argument(
        "--dtype",
        choices=tuple(PRECISIONS),
        default=None,
        help=(
            "storage precision of the batched engine (default float64/int64; "
            "float32/int32 roughly halves batch memory, statistically "
            "equivalent; needs --engine batched and gets its own "
            "result-store cache entries; see the README's 'Precision' "
            "section)"
        ),
    )


def _add_runtime_arguments(subparser: argparse.ArgumentParser) -> None:
    """Attach the parallel-runtime flags shared by sweep/network/protocol."""
    runtime = subparser.add_argument_group(
        "parallel runtime",
        "shard the workload across worker processes and cache results in a "
        "content-addressed sqlite store (see the README's 'Scaling out' "
        "guide); results are bit-identical at any worker count",
    )
    runtime.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (default 1 = in-process serial execution)",
    )
    runtime.add_argument(
        "--store",
        type=str,
        default=None,
        help=(
            "sqlite result store path: completed shards are flushed as they "
            "finish and matching results are served from cache instead of "
            "recomputed"
        ),
    )
    runtime.add_argument(
        "--resume",
        action="store_true",
        help=(
            "fail fast unless --store already exists (continuing an "
            "interrupted run); with --store, cache reuse itself is always on"
        ),
    )
    _add_trace_argument(runtime)


def _add_trace_argument(target: Any) -> None:
    """Attach the shared ``--trace-out`` flag to a parser or argument group."""
    target.add_argument(
        "--trace-out",
        type=str,
        default=None,
        help=(
            "append structured trace records (spans, shard timings, cache "
            "events) to this JSONL file; defaults to the "
            f"{TRACE_OUT_ENV} environment variable; summarize with "
            "`repro trace summarize PATH`"
        ),
    )


def _open_tracer(args: argparse.Namespace) -> Optional[Tracer]:
    """Build a JSONL tracer from ``--trace-out`` / ``REPRO_TRACE_OUT``."""
    path = args.trace_out or os.environ.get(TRACE_OUT_ENV)
    if not path:
        return None
    try:
        return Tracer(JsonlSink(path))
    except OSError as error:
        print(f"error: cannot open trace file {path}: {error}", file=sys.stderr)
        raise SystemExit(2)


def _open_store(args: argparse.Namespace) -> Optional[ResultStore]:
    """Validate and open the ``--store``/``--resume`` flags (or ``None``)."""
    if args.resume and not args.store:
        print("error: --resume needs --store PATH", file=sys.stderr)
        raise SystemExit(2)
    if not args.store:
        return None
    if args.resume and not Path(args.store).exists():
        print(
            f"error: cannot resume: no result store at {args.store}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    try:
        return ResultStore(args.store)
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2)


def _check_workers(workers: Optional[int]) -> None:
    """Exit with status 2 unless ``--workers`` is unset or at least 1."""
    if workers is not None and workers < 1:
        print(f"error: --workers must be at least 1, got {workers}", file=sys.stderr)
        raise SystemExit(2)


def _runtime_options(args: argparse.Namespace) -> Optional[ExecutionOptions]:
    """Translate --workers/--store/--resume into an :class:`ExecutionOptions`."""
    _check_workers(args.workers)
    store = _open_store(args)
    executor = ParallelExecutor(args.workers) if args.workers > 1 else None
    tracer = _open_tracer(args)
    if store is None and executor is None and tracer is None:
        return None
    return ExecutionOptions(executor=executor, store=store, tracer=tracer)


def _print_store_stats(store: Optional[ResultStore]) -> None:
    """Report cache statistics and release the store, if one was opened."""
    if store is not None:
        print(
            f"store {store.path}: {store.hits} cache hits, "
            f"{store.misses} misses, {len(store)} rows"
        )
        store.close()


def _finish_runtime(options: Optional[ExecutionOptions]) -> None:
    """Print cache stats and close the options' store, if one was opened."""
    if options is not None:
        _print_store_stats(options.store)
        if options.tracer is not None:
            sink = getattr(options.tracer, "sink", None)
            path = getattr(sink, "path", None)
            if path is not None:
                print(
                    f"trace {path}: summarize with `repro trace summarize {path}`"
                )


def _close_runtime(options: Optional[ExecutionOptions]) -> None:
    """Release the pool, store and tracer unconditionally.

    Commands call this from ``finally`` so a failure anywhere between
    :func:`_runtime_options` opening them and the command's end cannot leak
    the worker pool, the sqlite connection or the trace file handle;
    ``ResultStore.close`` and ``Tracer.close`` are idempotent, so the
    success path (which already closed, after printing stats) is unaffected.
    """
    if options is None:
        return
    for resource in (options.executor, options.store, options.tracer):
        if resource is not None:
            resource.close()


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Distributed Learning Dynamics in Social Groups' "
            "(Celis, Krafft, Vishnoi; PODC 2017)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="run the finite-population dynamics on Bernoulli qualities"
    )
    simulate.add_argument(
        "--options",
        type=float,
        nargs="+",
        default=[0.8, 0.5, 0.5],
        help="option qualities eta_j (each in [0, 1])",
    )
    simulate.add_argument("--population", type=int, default=2000, help="group size N")
    simulate.add_argument("--horizon", type=int, default=300, help="number of steps T")
    simulate.add_argument("--beta", type=float, default=0.6, help="adoption probability on a good signal")
    simulate.add_argument("--mu", type=float, default=None, help="exploration rate (default: delta^2/6)")
    simulate.add_argument("--seed", type=int, default=0, help="random seed")
    simulate.add_argument("--replications", type=int, default=3, help="independent replications")
    simulate.add_argument("--infinite", action="store_true", help="also run the infinite-population dynamics")
    simulate.add_argument("--plot", action="store_true", help="print an ASCII plot of the best option's share")
    simulate.add_argument("--output", type=str, default=None, help="write the result table to this CSV path")

    run = subparsers.add_parser(
        "run",
        help="run many replications at once on the batched replicate-axis engine",
    )
    run.add_argument(
        "--options",
        type=float,
        nargs="+",
        default=[0.8, 0.5, 0.5],
        help="option qualities eta_j (each in [0, 1])",
    )
    run.add_argument("--population", type=int, default=2000, help="group size N")
    run.add_argument("--horizon", type=int, default=300, help="number of steps T")
    run.add_argument("--beta", type=float, default=0.6, help="adoption probability on a good signal")
    run.add_argument("--mu", type=float, default=None, help="exploration rate (default: delta^2/6)")
    run.add_argument("--seed", type=int, default=0, help="master seed")
    run.add_argument(
        "--replications", type=int, default=100, help="independent replications R"
    )
    run.add_argument(
        "--engine",
        choices=("batched", "loop"),
        default="batched",
        help="batched replicate-axis engine (default) or the sequential per-seed loop",
    )
    run.add_argument("--output", type=str, default=None, help="write the summary table to this CSV path")

    bounds = subparsers.add_parser(
        "bounds", help="print every paper bound for a parameterisation"
    )
    bounds.add_argument("--num-options", type=int, required=True, help="number of options m")
    bounds.add_argument("--beta", type=float, required=True, help="adoption probability on a good signal")
    bounds.add_argument("--mu", type=float, default=None, help="exploration rate (default: delta^2/6)")
    bounds.add_argument("--population", type=int, default=None, help="group size N (optional)")
    bounds.add_argument("--output", type=str, default=None, help="write the bounds table to this CSV path")

    coupling = subparsers.add_parser(
        "coupling", help="run the Lemma 4.5 coupling and report measured vs bound ratios"
    )
    coupling.add_argument("--options", type=float, nargs="+", default=[0.8, 0.5])
    coupling.add_argument("--population", type=int, default=10_000, help="group size N")
    coupling.add_argument("--horizon", type=int, default=8, help="coupled steps")
    coupling.add_argument("--beta", type=float, default=0.6)
    coupling.add_argument("--seed", type=int, default=0)
    coupling.add_argument("--output", type=str, default=None)

    sweep = subparsers.add_parser(
        "sweep",
        help=(
            "sweep a (N x beta x mu) parameter grid on the fully batched "
            "engine and report regret per point"
        ),
    )
    sweep.add_argument("--options", type=float, nargs="+", default=[0.8, 0.5, 0.5])
    sweep.add_argument("--populations", type=int, nargs="+", default=[100, 1000, 10_000])
    sweep.add_argument("--horizon", type=int, default=300)
    sweep.add_argument(
        "--beta", type=float, default=0.6, help="adoption probability when --betas is not given"
    )
    sweep.add_argument(
        "--betas",
        type=float,
        nargs="+",
        default=None,
        help="sweep axis of adoption probabilities (overrides --beta)",
    )
    sweep.add_argument(
        "--mus",
        type=float,
        nargs="+",
        default=None,
        help="sweep axis of exploration rates (default: the theorem maximum per point)",
    )
    sweep.add_argument("--replications", type=int, default=3)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--engine",
        choices=("batched", "loop"),
        default="batched",
        help=(
            "run the whole grid as one (G*R, m) batched launch (default) or "
            "fall back to the per-point per-seed loop"
        ),
    )
    sweep.add_argument("--output", type=str, default=None)
    _add_dtype_argument(sweep)
    _add_runtime_arguments(sweep)

    network = subparsers.add_parser(
        "network",
        help=(
            "run the neighbourhood-restricted dynamics on a topology using "
            "the batched sparse engine"
        ),
    )
    network.add_argument("--options", type=float, nargs="+", default=[0.8, 0.5, 0.5])
    network.add_argument(
        "--topology",
        choices=(
            "complete",
            "ring",
            "grid",
            "star",
            "erdos_renyi",
            "barabasi_albert",
            "watts_strogatz",
        ),
        default="watts_strogatz",
        help="social graph family (random families are seeded by --graph-seed)",
    )
    network.add_argument("--size", type=int, default=1000, help="number of individuals N")
    network.add_argument("--horizon", type=int, default=300, help="number of steps T")
    network.add_argument("--beta", type=float, default=0.6, help="adoption probability on a good signal")
    network.add_argument("--mu", type=float, default=None, help="exploration rate (default: delta^2/6)")
    network.add_argument("--seed", type=int, default=0, help="master seed")
    network.add_argument("--graph-seed", type=int, default=0, help="seed for random topologies")
    network.add_argument("--replications", type=int, default=20, help="independent replications R")
    network.add_argument(
        "--engine",
        choices=NETWORK_ENGINES,
        default="batched",
        help="batched (R, N) sparse engine (default) or the per-agent reference loop",
    )
    network.add_argument(
        "--stats",
        action="store_true",
        help=(
            "also print the expensive topology statistics (spectral gap, "
            "diameter, clustering) — these are O(N^3)/O(N*E) graph "
            "computations, far slower than the simulation itself at large N"
        ),
    )
    network.add_argument("--output", type=str, default=None, help="write the summary table to this CSV path")
    _add_dtype_argument(network)
    _add_runtime_arguments(network)

    protocol = subparsers.add_parser(
        "protocol",
        help=(
            "run the message-passing distributed protocol under message "
            "loss and crash-stop failures using the batched engine"
        ),
    )
    protocol.add_argument(
        "--options", type=float, nargs="+", default=[0.9, 0.6, 0.6, 0.5]
    )
    protocol.add_argument("--nodes", type=int, default=1000, help="number of devices N")
    protocol.add_argument("--rounds", type=int, default=300, help="number of protocol rounds T")
    protocol.add_argument("--beta", type=float, default=0.6, help="adoption probability on a good signal")
    protocol.add_argument("--mu", type=float, default=None, help="exploration rate (default: delta^2/6)")
    protocol.add_argument("--loss", type=float, default=0.0, help="per-message drop probability")
    protocol.add_argument(
        "--delay",
        type=float,
        default=0.0,
        help="per-message one-round delay probability (loop engine only)",
    )
    protocol.add_argument(
        "--crash", type=float, default=0.0, help="per-round per-node crash probability"
    )
    protocol.add_argument(
        "--mass-crash-round",
        type=int,
        default=None,
        help="round of the one-off mass failure (default: rounds//2 when a fraction is given)",
    )
    protocol.add_argument(
        "--mass-crash-fraction",
        type=float,
        default=0.0,
        help="fraction of surviving nodes killed by the mass failure",
    )
    protocol.add_argument("--seed", type=int, default=0, help="master seed")
    protocol.add_argument("--replications", type=int, default=20, help="independent replications R")
    protocol.add_argument(
        "--engine",
        choices=PROTOCOL_ENGINES,
        default="batched",
        help=(
            "batched (R, N) engine (default) or the per-message reference "
            "loop (required for --delay > 0)"
        ),
    )
    protocol.add_argument("--output", type=str, default=None, help="write the summary table to this CSV path")
    _add_dtype_argument(protocol)
    _add_runtime_arguments(protocol)

    serve = subparsers.add_parser(
        "serve",
        help=(
            "run the simulation-as-a-service API daemon (job submission, "
            "status polling, cache-first result serving)"
        ),
    )
    serve.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address (default loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=8765, help="bind port (0 picks a free port)"
    )
    serve.add_argument(
        "--store",
        type=str,
        default=None,
        help=(
            "shared content-addressed result store: computed tasks are "
            "flushed there and repeat jobs are served from cache (without "
            "one, every job recomputes)"
        ),
    )
    serve.add_argument(
        "--job-workers",
        type=int,
        default=2,
        help="worker threads draining the job queue (default 2)",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=16,
        help=(
            "pending-job bound: submissions beyond it get HTTP 429 "
            "back-pressure (default 16)"
        ),
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker *processes* in one pool shared by every job, started "
            "at the first pooled job (default 1 = in-process execution)"
        ),
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )
    _add_trace_argument(serve)

    campaign = subparsers.add_parser(
        "campaign",
        help=(
            "run an experiment campaign (simulate -> analyse -> report "
            "compute DAG) on a pluggable backend"
        ),
    )
    campaign.add_argument(
        "--spec",
        type=str,
        required=True,
        help="campaign spec JSON file ('-' reads stdin); see the README's "
        "'Campaigns' guide for the format",
    )
    campaign.add_argument(
        "--backend",
        choices=CAMPAIGN_BACKENDS,
        default="inproc",
        help=(
            "execution backend: in-process (default), a local worker-process "
            "pool, or the socket coordinator awaiting `repro broker` "
            "processes — all bit-identical"
        ),
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --backend pool (default: all cores)",
    )
    campaign.add_argument(
        "--brokers",
        type=str,
        default="tcp://127.0.0.1:0",
        help=(
            "coordinator bind endpoint for --backend broker "
            "(tcp://host:port; port 0 picks a free port, printed at start "
            "for brokers to dial)"
        ),
    )
    campaign.add_argument(
        "--min-brokers",
        type=int,
        default=1,
        help="wait for this many connected brokers before dispatching work",
    )
    campaign.add_argument(
        "--broker-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for broker progress before giving up",
    )
    campaign.add_argument(
        "--store",
        type=str,
        default=None,
        help=(
            "sqlite result store: completed shards are flushed as they "
            "finish; a warm store short-circuits whole nodes, so a killed "
            "campaign resumes from cache"
        ),
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="fail fast unless --store already exists (continuing a killed run)",
    )
    campaign.add_argument(
        "--output",
        type=str,
        default=None,
        help="write the collated rows of every report node to this CSV path",
    )
    _add_trace_argument(campaign)

    broker = subparsers.add_parser(
        "broker",
        help=(
            "run a shard-execution broker that dials a campaign coordinator "
            "and executes simulate shards"
        ),
    )
    broker.add_argument(
        "--coordinator",
        type=str,
        required=True,
        help="coordinator endpoint to dial (tcp://host:port, retried while "
        "the coordinator boots)",
    )
    broker.add_argument(
        "--workers",
        type=int,
        default=1,
        help="local worker processes per shard (default 1 = in-process)",
    )
    broker.add_argument(
        "--max-shards",
        type=int,
        default=None,
        help=(
            "drop the connection after this many shards — a deterministic "
            "crash stand-in for fault-tolerance drills"
        ),
    )
    broker.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        help="seconds to keep retrying the initial connection (default 30)",
    )

    trace = subparsers.add_parser(
        "trace",
        help="inspect JSONL trace files recorded via --trace-out",
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_commands.add_parser(
        "summarize",
        help=(
            "render a per-phase latency breakdown (count, total, mean, "
            "p50/p95, max, cpu) of a recorded trace"
        ),
    )
    summarize.add_argument(
        "path",
        type=str,
        help="JSONL trace file written via --trace-out / REPRO_TRACE_OUT",
    )

    return parser


def _finish(table: ResultTable, output: Optional[str]) -> None:
    # General float format: theorem thresholds can be astronomically large,
    # so fixed-point rendering would produce unreadable columns.
    print(table.to_text(float_format="{:.6g}"))
    if output:
        path = write_csv(table, output)
        print(f"\nwrote {len(table)} rows to {path}")


def _command_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.dynamics import simulate_finite_population
    from repro.core.infinite import simulate_infinite_population
    from repro.core.regret import best_option_share, expected_regret
    from repro.environments import BernoulliEnvironment
    from repro.utils.ascii_plot import ascii_line_plot

    qualities = list(args.options)
    table = ResultTable()
    best_series = None
    for replication in range(args.replications):
        env = BernoulliEnvironment(qualities, rng=args.seed + replication)
        trajectory = simulate_finite_population(
            env,
            population_size=args.population,
            horizon=args.horizon,
            beta=args.beta,
            mu=args.mu,
            rng=args.seed + 1000 + replication,
        )
        matrix = trajectory.popularity_matrix()
        table.add_row(
            {
                "process": "finite",
                "replication": replication,
                "regret": expected_regret(matrix, qualities),
                "best_option_share": best_option_share(matrix, int(np.argmax(qualities))),
            }
        )
        if best_series is None:
            best_series = {"finite": matrix[:, int(np.argmax(qualities))]}
        if args.infinite:
            env_inf = BernoulliEnvironment(qualities, rng=args.seed + 2000 + replication)
            inf_trajectory = simulate_infinite_population(
                env_inf, args.horizon, beta=args.beta, mu=args.mu
            )
            inf_matrix = inf_trajectory.distribution_matrix()
            table.add_row(
                {
                    "process": "infinite",
                    "replication": replication,
                    "regret": expected_regret(inf_matrix, qualities),
                    "best_option_share": best_option_share(
                        inf_matrix, int(np.argmax(qualities))
                    ),
                }
            )
            if replication == 0:
                best_series["infinite"] = inf_matrix[:, int(np.argmax(qualities))]
    _finish(table, args.output)
    if args.plot and best_series:
        print()
        print(
            ascii_line_plot(
                best_series, title="Best option share (replication 0)", width=70, height=12
            )
        )
    return 0


def _command_run(args: argparse.Namespace) -> int:
    try:
        request = sweep_request(
            options=args.options,
            populations=[args.population],
            horizon=args.horizon,
            beta=args.beta,
            mus=None if args.mu is None else [args.mu],
            replications=args.replications,
            seed=args.seed,
            engine=args.engine,
        )
    except RequestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    prepared = prepare_request(request)
    (result,), _ = run_sweep(
        f"run-{args.engine}",
        prepared.grid,
        prepared.replication,
        replications=prepared.replications,
        seed=prepared.seed,
        base_parameters=prepared.base_parameters,
    )
    spec = ", ".join(f"{key}={value}" for key, value in sorted(request.spec.items()))
    print(f"run {spec}")
    _finish(summary_table(result), args.output)
    return 0


def _command_bounds(args: argparse.Namespace) -> int:
    from repro.core.theory import TheoryBounds

    delta = TheoryBounds(
        num_options=args.num_options, beta=args.beta, mu=0.0, strict=False
    ).delta
    mu = args.mu if args.mu is not None else delta**2 / 6.0
    bounds = TheoryBounds(
        num_options=args.num_options,
        beta=args.beta,
        mu=mu,
        population_size=args.population,
        strict=False,
    )
    table = ResultTable(
        [{"quantity": key, "value": value} for key, value in bounds.summary().items()]
    )
    if args.population is not None:
        for key, value in bounds.population_size_condition().items():
            table.add_row({"quantity": f"thm4.4:{key}", "value": value})
    _finish(table, args.output)
    return 0


def _command_coupling(args: argparse.Namespace) -> int:
    from repro.core.coupling import run_coupled_dynamics
    from repro.environments import BernoulliEnvironment

    env = BernoulliEnvironment(list(args.options), rng=args.seed)
    run = run_coupled_dynamics(
        env,
        population_size=args.population,
        horizon=args.horizon,
        beta=args.beta,
        rng=args.seed + 1,
    )
    table = ResultTable()
    for step in range(run.horizon):
        row = {
            "t": step + 1,
            "measured_ratio": float(run.ratio_series[step]),
        }
        if run.bound_series is not None:
            row["lemma_bound"] = float(run.bound_series[step])
            row["within_bound"] = bool(run.ratio_series[step] <= run.bound_series[step])
        table.add_row(row)
    _finish(table, args.output)
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    try:
        request = sweep_request(
            options=args.options,
            populations=args.populations,
            horizon=args.horizon,
            beta=args.beta,
            betas=args.betas,
            mus=args.mus,
            replications=args.replications,
            seed=args.seed,
            engine=args.engine,
            dtype=args.dtype,
        )
    except RequestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    options = _runtime_options(args)
    try:
        result = execute_request(request, options=options)
        print(
            result.description
            + (f" on {args.workers} workers" if args.workers > 1 else "")
        )
        _finish(result.table, args.output)
        _finish_runtime(options)
    finally:
        _close_runtime(options)
    return 0


def _command_network(args: argparse.Namespace) -> int:
    try:
        request = network_request(
            options=args.options,
            topology=args.topology,
            size=args.size,
            horizon=args.horizon,
            beta=args.beta,
            mu=args.mu,
            graph_seed=args.graph_seed,
            replications=args.replications,
            seed=args.seed,
            engine=args.engine,
            dtype=args.dtype,
        )
    except RequestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from repro.experiments.network_sweep import build_network

    prepared = prepare_request(request)
    network = build_network(prepared.config.parameters)
    # Only the cheap statistics by default: spectral gap / diameter /
    # clustering are O(N^3)-ish graph computations that would dwarf the
    # simulation this command exists to run fast (opt in with --stats).
    header = (
        f"topology={network.name} N={network.size} "
        f"avg_degree={network.average_degree():.2f} engine={args.engine}"
    )
    if args.stats:
        metrics = network.metrics()
        diameter = metrics["diameter"] if metrics["diameter"] is not None else "inf"
        header += (
            f" spectral_gap={metrics['spectral_gap']:.4f} "
            f"diameter={diameter} clustering={metrics['clustering']:.4f}"
        )
    print(header)
    options = _runtime_options(args)
    try:
        result = execute_request(request, prepared=prepared, options=options)
        print(result.description)
        _finish(result.table, args.output)
        _finish_runtime(options)
    finally:
        _close_runtime(options)
    return 0


def _command_protocol(args: argparse.Namespace) -> int:
    try:
        request = protocol_request(
            options=args.options,
            nodes=args.nodes,
            rounds=args.rounds,
            beta=args.beta,
            mu=args.mu,
            loss=args.loss,
            delay=args.delay,
            crash=args.crash,
            mass_crash_round=args.mass_crash_round,
            mass_crash_fraction=args.mass_crash_fraction,
            replications=args.replications,
            seed=args.seed,
            engine=args.engine,
            dtype=args.dtype,
        )
    except RequestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"nodes={args.nodes} loss={args.loss} delay={args.delay} "
        f"crash={args.crash} mass_crash_fraction={args.mass_crash_fraction} "
        f"engine={args.engine}"
    )
    options = _runtime_options(args)
    try:
        result = execute_request(request, options=options)
        print(result.description)
        _finish(result.table, args.output)
        _finish_runtime(options)
    finally:
        _close_runtime(options)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    _check_workers(args.workers)
    import signal

    from repro.service.daemon import SimulationDaemon, SimulationService

    try:
        store = ResultStore(args.store) if args.store else None
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    service = None
    try:
        service = SimulationService(
            store,
            job_workers=args.job_workers,
            queue_capacity=args.queue_size,
            process_workers=args.workers,
            trace_out=args.trace_out or os.environ.get(TRACE_OUT_ENV),
        )
        server = SimulationDaemon((args.host, args.port), service, verbose=args.verbose)
    except (OSError, ValueError) as error:
        if service is not None:
            service.close()
        if store is not None:
            store.close()
        print(f"error: cannot start daemon: {error}", file=sys.stderr)
        return 2
    # SIGTERM stops the daemon as Ctrl-C does, so the worker pool shuts down too.
    sigterm = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        store_note = (
            f"store {store.path}"
            if store is not None
            else "no result store (every job recomputes)"
        )
        print(f"repro serve listening on {server.url} — {store_note}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        signal.signal(signal.SIGTERM, sigterm)
        server.server_close()
        service.close()
        if store is not None:
            store.close()
    return 0


def _load_campaign_spec(source: str) -> Any:
    """Read the campaign spec JSON from a file path or stdin (``-``)."""
    try:
        if source == "-":
            return json.load(sys.stdin)
        with open(source, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as error:
        print(f"error: cannot read campaign spec: {error}", file=sys.stderr)
        raise SystemExit(2)
    except json.JSONDecodeError as error:
        print(f"error: campaign spec is not valid JSON: {error}", file=sys.stderr)
        raise SystemExit(2)


def _command_campaign(args: argparse.Namespace) -> int:
    _check_workers(args.workers)
    from repro.campaign import (
        BrokerError,
        CampaignError,
        campaign_from_spec,
        make_backend,
        run_campaign,
    )

    try:
        campaign = campaign_from_spec(_load_campaign_spec(args.spec))
    except CampaignError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = _open_store(args)
    tracer = _open_tracer(args)
    backend = None
    try:
        backend = make_backend(
            args.backend,
            workers=args.workers,
            brokers=args.brokers,
            min_brokers=args.min_brokers,
            timeout=args.broker_timeout,
        )
        if args.backend == "broker":
            print(
                f"coordinator listening on {backend.address} — connect "
                f"brokers with `repro broker --coordinator {backend.address}`",
                flush=True,
            )
        print(
            f"campaign {campaign.name}: {len(campaign)} node(s) on "
            f"{args.backend} backend"
        )
        total = len(campaign)
        progress = {"done": 0}

        def on_node(node, node_result):
            progress["done"] += 1
            print(
                f"[{progress['done']}/{total}] {node.kind} {node.id}: "
                f"{node_result.description}"
            )

        campaign_result = run_campaign(
            campaign, backend=backend, store=store, on_node=on_node, tracer=tracer
        )
        for report in campaign_result.reports():
            print()
            print(report.text)
        if args.output:
            table = ResultTable()
            for report in campaign_result.reports():
                for row in report.rows:
                    table.add_row({"report": report.node_id, **row})
            if len(table):
                path = write_csv(table, args.output)
                print(f"\nwrote {len(table)} rows to {path}")
            else:
                print("\nno report rows to write", file=sys.stderr)
        _print_store_stats(store)
        if tracer is not None:
            print(
                f"trace {tracer.sink.path}: summarize with "
                f"`repro trace summarize {tracer.sink.path}`"
            )
    except (BrokerError, CampaignError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if backend is not None and hasattr(backend, "close"):
            backend.close()
        if store is not None:
            store.close()
        if tracer is not None:
            tracer.close()
    return 0


def _command_broker(args: argparse.Namespace) -> int:
    _check_workers(args.workers)
    from repro.campaign import BrokerError, run_broker

    def on_shard(count: int, tasks: int) -> None:
        print(f"shard {count}: {tasks} task(s) done", flush=True)

    print(f"broker dialling {args.coordinator} ({args.workers} worker(s))")
    try:
        executed = run_broker(
            args.coordinator,
            workers=args.workers,
            max_shards=args.max_shards,
            connect_timeout=args.connect_timeout,
            on_shard=on_shard,
        )
    except (BrokerError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("broker interrupted", file=sys.stderr)
        return 130
    print(f"broker done: {executed} shard(s) executed")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs.summary import summarize_trace_file

    try:
        print(summarize_trace_file(args.path))
    except OSError as error:
        print(f"error: cannot read trace file: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "simulate": _command_simulate,
    "run": _command_run,
    "bounds": _command_bounds,
    "coupling": _command_coupling,
    "sweep": _command_sweep,
    "network": _command_network,
    "protocol": _command_protocol,
    "serve": _command_serve,
    "campaign": _command_campaign,
    "broker": _command_broker,
    "trace": _command_trace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
