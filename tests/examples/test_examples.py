"""Smoke tests for the runnable examples.

CI runs some examples at full scale; these tests import the example modules
and run their ``main()`` at drastically reduced scale inside the regular test
suite, so example drift (renamed APIs, changed signatures, broken imports) is
caught by a plain ``pytest`` run before CI's example step — and locally,
where the example step does not exist.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path

import repro.service.daemon as daemon

EXAMPLES_DIR = Path(__file__).parent.parent.parent / "examples"


def _load_example(name: str):
    """Import ``examples/<name>.py`` as a throwaway module."""
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Register so dataclasses/typing introspection inside the module works.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


class TestNetworkTopologiesExample:
    def test_main_runs_at_reduced_scale(self, capsys, monkeypatch):
        module = _load_example("network_topologies")
        monkeypatch.setattr(module, "POPULATION", 64)
        monkeypatch.setattr(module, "HORIZON", 40)
        monkeypatch.setattr(module, "REPLICATIONS", 1)
        module.main()
        output = capsys.readouterr().out
        assert "Network-restricted social learning" in output
        assert "complete" in output
        assert "spectral gap" in output

    def test_evaluate_reports_all_metrics(self):
        module = _load_example("network_topologies")
        # evaluate() at full module scale is slow; shrink via module constants.
        module.POPULATION, module.HORIZON, module.REPLICATIONS = 40, 20, 1
        metrics = module.evaluate(module.SocialNetwork.ring(40))
        assert {
            "topology",
            "avg degree",
            "diameter",
            "spectral gap",
            "regret",
            "best-option share",
            "steps to 60% dominance",
        } <= set(metrics)
        assert 0.0 <= metrics["best-option share"] <= 1.0


class TestSensorNetworkExample:
    def test_main_runs_at_reduced_scale(self, capsys, monkeypatch):
        module = _load_example("sensor_network")
        monkeypatch.setattr(module, "NUM_SENSORS", 30)
        monkeypatch.setattr(module, "ROUNDS", 20)
        module.main()
        output = capsys.readouterr().out
        assert "sensors agreeing" in output
        assert "perfect network" in output
        assert "best channel" in output

    def test_run_fleet_reports_transport_stats(self, monkeypatch):
        module = _load_example("sensor_network")
        monkeypatch.setattr(module, "NUM_SENSORS", 25)
        monkeypatch.setattr(module, "ROUNDS", 12)
        result = module.run_fleet(loss_rate=0.2, crash_fraction=0.2, seed=0)
        assert result.transport_stats["sent"] > 0
        assert result.transport_stats["dropped"] > 0
        assert 0.0 <= result.best_option_share()[0] <= 1.0
        assert result.alive_matrix[-1, 0] <= 25


class TestServiceDemoExample:
    def test_main_runs_at_reduced_scale(self, capsys, monkeypatch):
        module = _load_example("service_demo")
        monkeypatch.setattr(module, "NODES", 60)
        monkeypatch.setattr(module, "ROUNDS", 10)
        monkeypatch.setattr(module, "REPLICATIONS", 2)
        # At this scale the first loss=0.35 job can finish before its twin
        # is submitted, and then nothing attaches to it.  Hold that job in
        # the daemon until the second identical submission is answered.
        twin_answered = threading.Event()
        twins = []
        submit = daemon.SimulationService.submit
        execute_request = daemon.execute_request

        def counting_submit(service, payload):
            outcome = submit(service, payload)
            if payload.get("loss") == 0.35:
                twins.append(outcome)
                if len(twins) == 2:
                    twin_answered.set()
            return outcome

        def held_execute_request(request, *args, **kwargs):
            if request.to_dict().get("loss") == 0.35:
                assert twin_answered.wait(timeout=30.0), "no second submission"
            return execute_request(request, *args, **kwargs)

        monkeypatch.setattr(daemon.SimulationService, "submit", counting_submit)
        monkeypatch.setattr(daemon, "execute_request", held_execute_request)
        module.main()
        output = capsys.readouterr().out
        assert "daemon up at http://" in output
        assert "0 misses" in output
        assert "rows identical: True" in output
        assert "attached: True" in output
        assert "/stats:" in output
