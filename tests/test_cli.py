"""Tests for the command-line interface."""

import json
import multiprocessing

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.population == 2000
        assert args.beta == pytest.approx(0.6)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])


class TestSimulateCommand:
    def test_runs_and_prints_table(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--options", "0.9", "0.3",
                "--population", "300",
                "--horizon", "60",
                "--replications", "1",
                "--seed", "0",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "regret" in output and "finite" in output

    def test_infinite_flag_adds_rows(self, capsys):
        main(
            [
                "simulate",
                "--options", "0.9", "0.3",
                "--population", "200",
                "--horizon", "40",
                "--replications", "1",
                "--infinite",
            ]
        )
        output = capsys.readouterr().out
        assert "infinite" in output

    def test_plot_flag_draws_chart(self, capsys):
        main(
            [
                "simulate",
                "--options", "0.9", "0.3",
                "--population", "200",
                "--horizon", "40",
                "--replications", "1",
                "--plot",
            ]
        )
        assert "Best option share" in capsys.readouterr().out

    def test_output_writes_csv(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        main(
            [
                "simulate",
                "--options", "0.8", "0.4",
                "--population", "200",
                "--horizon", "30",
                "--replications", "2",
                "--output", str(target),
            ]
        )
        assert target.exists()
        assert "wrote" in capsys.readouterr().out


class TestRunCommand:
    def test_batched_engine_prints_summary(self, capsys):
        exit_code = main(
            [
                "run",
                "--options", "0.85", "0.45",
                "--population", "400",
                "--horizon", "40",
                "--replications", "20",
                "--seed", "1",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "engine=batched" in output
        assert "regret" in output and "best_option_share" in output
        assert "20" in output  # replication count column

    def test_loop_engine_fallback(self, capsys):
        exit_code = main(
            [
                "run",
                "--options", "0.85", "0.45",
                "--population", "200",
                "--horizon", "20",
                "--replications", "3",
                "--engine", "loop",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "engine=loop" in output

    def test_output_writes_csv(self, tmp_path):
        target = tmp_path / "run.csv"
        main(
            [
                "run",
                "--options", "0.8", "0.4",
                "--population", "200",
                "--horizon", "20",
                "--replications", "5",
                "--output", str(target),
            ]
        )
        assert target.exists()

    def test_default_engine_is_batched(self):
        args = build_parser().parse_args(["run"])
        assert args.engine == "batched"
        assert args.replications == 100

    @pytest.mark.parametrize("engine", ("batched", "loop"))
    def test_summary_is_that_of_a_one_point_sweep(self, engine, capsys, tmp_path):
        """run is a one-point sweep: its means are the sweep row, bit for bit."""
        from repro.experiments import read_csv

        common = [
            "--options", "0.85", "0.45", "0.3",
            "--horizon", "50",
            "--replications", "20",
            "--seed", "11",
            "--engine", engine,
        ]
        run_target = tmp_path / "run.csv"
        sweep_target = tmp_path / "sweep.csv"
        assert main(
            ["run", "--population", "2000", "--output", str(run_target), *common]
        ) == 0
        assert main(
            ["sweep", "--populations", "2000", "--output", str(sweep_target), *common]
        ) == 0
        capsys.readouterr()
        means = {row["metric"]: row["mean"] for row in read_csv(run_target).rows}
        (point,) = read_csv(sweep_target).rows
        assert set(means) == {"regret", "best_option_share"}
        assert means == {name: point[name] for name in means}


class TestBoundsCommand:
    def test_prints_paper_quantities(self, capsys):
        exit_code = main(["bounds", "--num-options", "5", "--beta", "0.6"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "delta" in output
        assert "finite_regret_bound" in output

    def test_population_adds_theorem_conditions(self, capsys):
        main(["bounds", "--num-options", "5", "--beta", "0.6", "--population", "1000"])
        output = capsys.readouterr().out
        assert "thm4.4:condition1_holds" in output


class TestCouplingCommand:
    def test_reports_ratio_per_step(self, capsys):
        exit_code = main(
            ["coupling", "--population", "2000", "--horizon", "4", "--seed", "1"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "measured_ratio" in output
        assert "lemma_bound" in output


class TestSweepCommand:
    def test_one_row_per_population(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        exit_code = main(
            [
                "sweep",
                "--options", "0.85", "0.45",
                "--populations", "100", "500",
                "--horizon", "60",
                "--replications", "1",
                "--output", str(target),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert output.count("\n") >= 4
        assert target.exists()
        from repro.experiments import read_csv

        table = read_csv(target)
        assert table.column("N") == [100, 500]

    def test_default_engine_is_batched(self, capsys):
        args = build_parser().parse_args(["sweep"])
        assert args.engine == "batched"
        exit_code = main(
            [
                "sweep",
                "--options", "0.85", "0.45",
                "--populations", "100",
                "--horizon", "20",
                "--replications", "2",
            ]
        )
        assert exit_code == 0
        assert "engine=batched" in capsys.readouterr().out

    def test_beta_and_mu_axes_multiply_the_grid(self, capsys):
        exit_code = main(
            [
                "sweep",
                "--options", "0.85", "0.45",
                "--populations", "100", "200",
                "--betas", "0.6", "0.7",
                "--mus", "0.05", "0.1",
                "--horizon", "15",
                "--replications", "2",
                "--seed", "4",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "8 grid points" in output
        # one table row per grid point (plus headers/summary lines)
        assert output.count("0.85") >= 8

    def test_loop_engine_fallback_matches_grid_seeds(self, capsys, tmp_path):
        """Both engines run the same grid; rows align point for point."""
        tables = {}
        for engine in ("batched", "loop"):
            target = tmp_path / f"{engine}.csv"
            exit_code = main(
                [
                    "sweep",
                    "--options", "0.85", "0.45",
                    "--populations", "150",
                    "--betas", "0.6", "0.7",
                    "--horizon", "15",
                    "--replications", "2",
                    "--seed", "3",
                    "--engine", engine,
                    "--output", str(target),
                ]
            )
            assert exit_code == 0
            from repro.experiments import read_csv

            tables[engine] = read_csv(target)
        assert tables["batched"].column("beta") == tables["loop"].column("beta")
        assert tables["batched"].column("N") == tables["loop"].column("N")
        output = capsys.readouterr().out
        assert "engine=loop" in output


class TestNetworkCommand:
    def test_default_engine_is_batched(self):
        args = build_parser().parse_args(["network"])
        assert args.engine == "batched"
        assert args.topology == "watts_strogatz"

    def test_batched_engine_prints_topology_and_summary(self, capsys):
        exit_code = main(
            [
                "network",
                "--options", "0.85", "0.45",
                "--topology", "ring",
                "--size", "200",
                "--horizon", "30",
                "--replications", "8",
                "--seed", "1",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "topology=ring" in output
        assert "engine=batched" in output
        assert "avg_degree" in output
        # Expensive topology statistics only appear behind --stats.
        assert "spectral_gap" not in output
        assert "regret" in output and "best_option_share" in output

    def test_stats_flag_adds_expensive_topology_statistics(self, capsys):
        exit_code = main(
            [
                "network",
                "--topology", "ring",
                "--size", "40",
                "--horizon", "10",
                "--replications", "2",
                "--stats",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "spectral_gap" in output
        assert "diameter" in output
        assert "clustering" in output

    def test_loop_engine_runs(self, capsys):
        exit_code = main(
            [
                "network",
                "--options", "0.85", "0.45",
                "--topology", "complete",
                "--size", "60",
                "--horizon", "15",
                "--replications", "3",
                "--engine", "loop",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "engine=loop" in output

    def test_output_writes_csv(self, tmp_path):
        target = tmp_path / "network.csv"
        exit_code = main(
            [
                "network",
                "--topology", "erdos_renyi",
                "--size", "80",
                "--horizon", "15",
                "--replications", "4",
                "--graph-seed", "2",
                "--output", str(target),
            ]
        )
        assert exit_code == 0
        assert target.exists()

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["network", "--topology", "moebius"])


class TestProtocolCommand:
    def test_default_engine_is_batched(self):
        args = build_parser().parse_args(["protocol"])
        assert args.engine == "batched"
        assert args.nodes == 1000

    def test_batched_engine_prints_summary(self, capsys):
        exit_code = main(
            [
                "protocol",
                "--options", "0.85", "0.45",
                "--nodes", "200",
                "--rounds", "30",
                "--loss", "0.2",
                "--replications", "8",
                "--seed", "1",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "engine=batched" in output
        assert "loss=0.2" in output
        assert "regret" in output and "best_option_share" in output
        assert "alive_fraction" in output

    def test_loop_engine_runs(self, capsys):
        exit_code = main(
            [
                "protocol",
                "--options", "0.85", "0.45",
                "--nodes", "60",
                "--rounds", "15",
                "--replications", "2",
                "--engine", "loop",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "engine=loop" in output

    def test_mass_crash_defaults_to_midpoint_round(self, capsys):
        exit_code = main(
            [
                "protocol",
                "--options", "0.85", "0.45",
                "--nodes", "100",
                "--rounds", "20",
                "--mass-crash-fraction", "0.4",
                "--replications", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "mass_crash_round=10" in output

    def test_delay_requires_the_loop_engine(self, capsys):
        exit_code = main(
            [
                "protocol",
                "--nodes", "50",
                "--rounds", "5",
                "--delay", "0.1",
                "--engine", "batched",
            ]
        )
        assert exit_code == 2
        assert "loop engine" in capsys.readouterr().err

    def test_delay_runs_on_the_loop_engine(self, capsys):
        exit_code = main(
            [
                "protocol",
                "--options", "0.85", "0.45",
                "--nodes", "50",
                "--rounds", "10",
                "--delay", "0.1",
                "--replications", "2",
                "--engine", "loop",
            ]
        )
        assert exit_code == 0
        assert "engine=loop" in capsys.readouterr().out

    def test_output_writes_csv(self, tmp_path):
        target = tmp_path / "protocol.csv"
        exit_code = main(
            [
                "protocol",
                "--nodes", "80",
                "--rounds", "10",
                "--loss", "0.1",
                "--replications", "4",
                "--output", str(target),
            ]
        )
        assert exit_code == 0
        assert target.exists()


class TestRuntimeFlags:
    SWEEP = [
        "sweep",
        "--options", "0.8", "0.5",
        "--populations", "200", "400",
        "--horizon", "10",
        "--replications", "2",
        "--engine", "loop",
    ]

    def test_workers_and_store_run_and_report_cache_stats(self, capsys, tmp_path):
        store = str(tmp_path / "sweep.sqlite")
        assert main(self.SWEEP + ["--workers", "2", "--store", store]) == 0
        output = capsys.readouterr().out
        assert "on 2 workers" in output
        assert "0 cache hits, 4 misses, 4 rows" in output

    def test_warm_store_serves_every_task(self, capsys, tmp_path):
        store = str(tmp_path / "sweep.sqlite")
        main(self.SWEEP + ["--store", store])
        first = capsys.readouterr().out
        assert main(self.SWEEP + ["--store", store, "--resume"]) == 0
        second = capsys.readouterr().out
        assert "4 cache hits, 0 misses, 4 rows" in second
        # identical metric tables modulo the store-stats line
        assert first.splitlines()[:-1] == second.splitlines()[:-1]

    def test_resume_without_store_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.SWEEP + ["--resume"])
        assert excinfo.value.code == 2
        assert "--resume needs --store" in capsys.readouterr().err

    def test_resume_with_missing_store_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(self.SWEEP + ["--resume", "--store", str(tmp_path / "absent.sqlite")])
        assert excinfo.value.code == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_nonpositive_workers_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.SWEEP + ["--workers", "0"])
        assert excinfo.value.code == 2
        assert "--workers must be at least 1" in capsys.readouterr().err

    def test_corrupt_store_is_a_typed_error(self, capsys, tmp_path):
        store = tmp_path / "corrupt.sqlite"
        store.write_text("not a database, just some text\n" * 64)
        with pytest.raises(SystemExit) as excinfo:
            main(self.SWEEP + ["--store", str(store)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: cannot open result store {store}:" in err

    @pytest.mark.parametrize("command", ["network", "protocol", "campaign"])
    def test_every_store_command_rejects_a_corrupt_store(
        self, command, capsys, tmp_path
    ):
        store = tmp_path / "corrupt.sqlite"
        store.write_text("not a database, just some text\n" * 64)
        spec = tmp_path / "campaign.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "corrupt-store",
                    "nodes": [
                        {
                            "id": "sim",
                            "kind": "simulate",
                            "request": {
                                "kind": "sweep",
                                "options": [0.8, 0.5],
                                "populations": [50],
                                "horizon": 4,
                                "replications": 2,
                                "engine": "loop",
                            },
                        }
                    ],
                }
            )
        )
        arguments = {
            "network": ["network", "--topology", "ring", "--size", "40",
                        "--horizon", "5", "--replications", "2"],
            "protocol": ["protocol", "--nodes", "40", "--rounds", "5",
                         "--replications", "2"],
            "campaign": ["campaign", "--spec", str(spec)],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main(arguments + ["--store", str(store)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"error: cannot open result store {store}:" in err

    def test_store_hot_mb_flag_is_gone(self, capsys, tmp_path):
        store = str(tmp_path / "sweep.sqlite")
        with pytest.raises(SystemExit) as excinfo:
            main(self.SWEEP + ["--store", store, "--store-hot-mb", "8"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --store-hot-mb" in capsys.readouterr().err

    def test_serve_rejects_a_corrupt_store(self, capsys, tmp_path):
        store = tmp_path / "corrupt.sqlite"
        store.write_text("not a database, just some text\n" * 64)
        assert main(["serve", "--port", "0", "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot open result store {store}:" in err

    def test_network_batched_workers_split_the_seeds_silently(self, capsys, tmp_path):
        """--workers 2 splits a batched network run's seeds over both
        workers: no note, and the rows of the plain run."""
        command = [
            "network",
            "--topology", "ring",
            "--size", "100",
            "--horizon", "5",
            "--replications", "2",
        ]
        plain, pooled = tmp_path / "plain.csv", tmp_path / "pooled.csv"
        assert main(command + ["--output", str(plain)]) == 0
        capsys.readouterr()
        assert main(command + ["--workers", "2", "--output", str(pooled)]) == 0
        assert "note:" not in capsys.readouterr().err
        assert pooled.read_bytes() == plain.read_bytes()


class TestPoolLifetimes:
    """A command that starts a worker pool shuts it down before it returns."""

    @pytest.mark.parametrize("command", ["sweep", "network", "protocol", "campaign"])
    def test_no_worker_outlives_the_command(self, command, capsys, tmp_path):
        spec = tmp_path / "campaign.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "pool-lifetime",
                    "nodes": [
                        {
                            "id": "sim",
                            "kind": "simulate",
                            "request": {
                                "kind": "sweep",
                                "options": [0.8, 0.5],
                                "populations": [50, 60],
                                "horizon": 4,
                                "replications": 2,
                                "engine": "loop",
                            },
                        }
                    ],
                }
            )
        )
        arguments = {
            "sweep": TestRuntimeFlags.SWEEP,
            "network": ["network", "--topology", "ring", "--size", "40",
                        "--horizon", "5", "--replications", "2",
                        "--engine", "loop"],
            "protocol": ["protocol", "--nodes", "40", "--rounds", "5",
                         "--replications", "2", "--engine", "loop"],
            "campaign": ["campaign", "--spec", str(spec), "--backend", "pool"],
        }[command]
        # A worker of an earlier test's pool may still be exiting, so it can
        # leave between the two snapshots: only children the command
        # started must not survive it.
        before = set(multiprocessing.active_children())
        assert main(arguments + ["--workers", "2"]) == 0
        assert set(multiprocessing.active_children()) <= before


class TestStoreClosedOnErrorPaths:
    """Regression: a failure after --store opened must still close the store.

    The old commands only closed the store on the success path (inside
    ``_finish_runtime``), so any error between ``ResultStore(args.store)``
    and the final print leaked the sqlite connection.
    """

    def _capture_store(self, monkeypatch):
        import repro.cli as cli_module
        from repro.runtime import ResultStore

        created = []

        class RecordingStore(ResultStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(cli_module, "ResultStore", RecordingStore)
        return created

    @pytest.mark.parametrize("command_args", [
        TestRuntimeFlags.SWEEP,
        ["network", "--topology", "ring", "--size", "60", "--horizon", "5",
         "--replications", "2", "--engine", "loop"],
        ["protocol", "--nodes", "40", "--rounds", "5",
         "--replications", "2", "--engine", "loop"],
    ])
    def test_execution_error_closes_the_store(
        self, command_args, monkeypatch, tmp_path
    ):
        import repro.cli as cli_module

        created = self._capture_store(monkeypatch)

        def explode(*args, **kwargs):
            raise RuntimeError("engine blew up")

        monkeypatch.setattr(cli_module, "execute_request", explode)
        store_path = str(tmp_path / "leak.sqlite")
        with pytest.raises(RuntimeError, match="engine blew up"):
            main(command_args + ["--store", store_path])
        assert len(created) == 1
        assert created[0].closed

    def test_output_write_error_closes_the_store(self, monkeypatch, tmp_path):
        import repro.cli as cli_module

        created = self._capture_store(monkeypatch)

        def refuse(table, output):
            raise OSError("disk full")

        monkeypatch.setattr(cli_module, "_finish", refuse)
        with pytest.raises(OSError, match="disk full"):
            main(
                TestRuntimeFlags.SWEEP
                + ["--store", str(tmp_path / "leak.sqlite")]
            )
        assert len(created) == 1
        assert created[0].closed

    def test_success_path_still_closes_and_reports(self, capsys, tmp_path):
        store_path = str(tmp_path / "ok.sqlite")
        assert main(TestRuntimeFlags.SWEEP + ["--store", store_path]) == 0
        assert "cache hits" in capsys.readouterr().out


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.store is None
        assert args.queue_size == 16
        assert args.job_workers == 2
        assert args.workers == 1

    def test_serve_rejects_nonpositive_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "--workers must be at least 1" in capsys.readouterr().err


class TestServeCommand:
    # `repro serve` imports the daemon module when it runs, so the patches
    # target repro.service.daemon rather than repro.cli.
    def test_serve_runs_and_shuts_down_cleanly(self, capsys, monkeypatch, tmp_path):
        from repro.service import daemon

        # serve_forever blocks; stand in a Ctrl-C so the command exercises
        # its startup banner and graceful-shutdown path end to end.
        monkeypatch.setattr(
            daemon.SimulationDaemon,
            "serve_forever",
            lambda self: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        store_path = str(tmp_path / "serve.sqlite")
        assert main(["serve", "--port", "0", "--store", store_path]) == 0
        captured = capsys.readouterr()
        assert "repro serve listening on http://" in captured.out
        assert store_path in captured.out
        assert "shutting down" in captured.err

    def test_serve_without_store_notes_recomputation(self, capsys, monkeypatch):
        from repro.service import daemon

        monkeypatch.setattr(
            daemon.SimulationDaemon,
            "serve_forever",
            lambda self: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        assert main(["serve", "--port", "0"]) == 0
        assert "no result store" in capsys.readouterr().out

    def test_serve_bind_failure_closes_store_and_returns_2(
        self, capsys, monkeypatch, tmp_path
    ):
        import threading

        import repro.cli as cli_module
        from repro.runtime import ResultStore
        from repro.service import daemon

        created = []

        class RecordingStore(ResultStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(cli_module, "ResultStore", RecordingStore)

        def refuse_bind(address, service, verbose=False):
            raise OSError("address already in use")

        monkeypatch.setattr(daemon, "SimulationDaemon", refuse_bind)
        before = set(threading.enumerate())
        exit_code = main(["serve", "--store", str(tmp_path / "serve.sqlite")])
        assert exit_code == 2
        assert "cannot start daemon" in capsys.readouterr().err
        assert len(created) == 1
        assert created[0].closed
        # The command closes the service it built, so its job threads end.
        leaked = [
            thread.name
            for thread in set(threading.enumerate()) - before
            if thread.name.startswith("repro-job-worker")
        ]
        assert leaked == []


class TestEngineOptionFlags:
    """--dtype threads from the CLI through the shared request layer."""

    def test_parser_defaults_to_no_override(self):
        for command in ("sweep", "network", "protocol"):
            args = build_parser().parse_args([command])
            assert args.dtype is None

    def test_unknown_dtype_rejected_by_the_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--dtype", "float16"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--backend", "numpy"],
            ["network", "--backend", "numpy"],
            ["protocol", "--backend", "numpy"],
            ["network", "--engine", "vectorized"],
            ["protocol", "--engine", "vectorized"],
        ],
    )
    def test_removed_flag_values_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_float32_sweep_rows_match_the_service_request(self, capsys, tmp_path):
        """The CLI and a direct service request produce identical rows."""
        from repro.experiments import read_csv, write_csv
        from repro.service.requests import execute_request, sweep_request

        cli_target = tmp_path / "cli.csv"
        exit_code = main(
            [
                "sweep",
                "--options", "0.85", "0.45",
                "--populations", "100",
                "--horizon", "15",
                "--replications", "2",
                "--seed", "3",
                "--dtype", "float32",
                "--output", str(cli_target),
            ]
        )
        assert exit_code == 0
        capsys.readouterr()

        result = execute_request(
            sweep_request(
                options=[0.85, 0.45],
                populations=[100],
                horizon=15,
                replications=2,
                seed=3,
                dtype="float32",
            )
        )
        service_target = tmp_path / "service.csv"
        write_csv(result.table, service_target)
        assert read_csv(cli_target).rows == read_csv(service_target).rows

    def test_float32_changes_the_recorded_metrics(self, tmp_path):
        """Distinct precisions are distinct workloads, not a relabelling."""
        from repro.experiments import read_csv

        tables = {}
        for label, extra in (("default", []), ("float32", ["--dtype", "float32"])):
            target = tmp_path / f"{label}.csv"
            assert main(
                [
                    "sweep",
                    "--options", "0.85", "0.45",
                    "--populations", "100",
                    "--horizon", "15",
                    "--replications", "2",
                    "--seed", "3",
                    "--output", str(target),
                ]
                + extra
            ) == 0
            tables[label] = read_csv(target)
        assert tables["default"].column("N") == tables["float32"].column("N")

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("sweep", ["--populations", "100"]),
            ("network", ["--size", "40"]),
            ("protocol", ["--nodes", "40"]),
        ],
    )
    def test_overrides_with_per_seed_engines_exit_with_an_error(
        self, command, extra, capsys
    ):
        exit_code = main(
            [
                command,
                "--options", "0.85", "0.45",
                "--engine", "loop",
                "--dtype", "float32",
            ]
            + extra
        )
        assert exit_code == 2
        assert "batched engine" in capsys.readouterr().err

    def test_float32_network_and_protocol_run(self, capsys):
        assert main(
            [
                "network",
                "--options", "0.85", "0.45",
                "--size", "40",
                "--horizon", "6",
                "--replications", "2",
                "--dtype", "float32",
            ]
        ) == 0
        assert main(
            [
                "protocol",
                "--options", "0.85", "0.45",
                "--nodes", "40",
                "--rounds", "6",
                "--replications", "2",
                "--dtype", "float32",
            ]
        ) == 0
        capsys.readouterr()
