"""The benchmark's request generators are pure functions of the seed."""

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _requests(seed):
    return {
        "cli-small": workloads.cli_commands(seed),
        "serve-compute": [
            list(itertools.islice(workloads.compute_requests(seed, client), 30))
            for client in range(2)
        ],
        "serve-replay": workloads.replay_pool(seed),
        "campaign-broker": list(itertools.islice(workloads.campaign_specs(seed), 10)),
        "path-check": workloads.path_check_request(seed),
    }


def _encoded(seed):
    return json.dumps(_requests(seed), sort_keys=True).encode("utf-8")


def test_same_seed_gives_byte_identical_requests():
    assert _encoded(7) == _encoded(7)


def test_another_seed_gives_other_requests():
    first, second = _requests(7), _requests(8)
    for name in first:
        assert first[name] != second[name], name


def test_requests_pass_the_request_layer_and_never_repeat():
    from repro.campaign.graph import campaign_from_spec
    from repro.cli import build_parser
    from repro.service.requests import request_from_dict, sweep_request

    requests = _requests(3)
    keys = set()
    for client in requests["serve-compute"]:
        for payload in client:
            keys.add(request_from_dict(payload).key())
    assert len(keys) == 60
    for payload in requests["serve-replay"] + [requests["path-check"]]:
        request_from_dict(payload)
    for spec in requests["campaign-broker"]:
        campaign = campaign_from_spec(spec)
        tasks = sum(
            workloads.replicates(node.request.to_dict())
            for node in campaign.simulate_nodes()
        )
        assert tasks in workloads.CAMPAIGN_TASKS
    for payload in requests["cli-small"]:
        assert workloads.replicates(payload) == workloads.CLI_REPLICATES
        request_from_dict(payload)
    # The generated command line runs the same request as the payload.
    payload = requests["path-check"]
    arguments = build_parser().parse_args(workloads.cli_arguments(payload))
    request = sweep_request(
        options=arguments.options,
        populations=arguments.populations,
        horizon=arguments.horizon,
        replications=arguments.replications,
        seed=arguments.seed,
        engine=arguments.engine,
    )
    assert request.key() == request_from_dict(payload).key()
