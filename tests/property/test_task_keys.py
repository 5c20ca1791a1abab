"""Property tests for one-pass cache-key derivation (``task_keys``).

``task_keys`` encodes and hashes the part of a key payload that precedes the
seed list once per ``(function, parameters object)``, and each task feeds a
copy of that hash state its own seed list, joined directly when every seed
is a plain ``int``.  Whichever tasks share a dict and whatever the seed
types, every key must still be the SHA-256 of the whole payload's canonical
JSON, and a payload that cannot be encoded must fail exactly as the
whole-payload encoding fails.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import ResultStore, Task, canonical_json, task_keys

FUNCTIONS = (
    "repro.experiments.dynamics_sweep:dynamics_point_replication",
    "repro.experiments.network_sweep:network_batched_replication",
)
CODE_VERSIONS = ("1.0.0", "0.9.0-pinned", "vérsion-☃")


def reference_key(task, code_version):
    """The key as the whole-payload encoding defines it."""
    payload = canonical_json(
        {
            "function": task.function_ref,
            "parameters": task.parameters,
            "seeds": list(task.seeds),
            "code_version": code_version,
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def make_task(ordinal, parameters, seeds=(1,), function_ref=FUNCTIONS[0]):
    return Task(
        ordinal=ordinal,
        point_index=ordinal,
        name="task-keys",
        function_ref=function_ref,
        mode="loop",
        parameters=parameters,
        seeds=tuple(seeds),
        replicate_offset=0,
    )


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
numpy_scalars = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=255).map(np.uint8),
    finite_floats.map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite_floats,
    st.text(max_size=8),
    numpy_scalars,
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=10,
)
parameter_dicts = st.dictionaries(st.text(max_size=8), values, max_size=5)
seed_lists = st.lists(
    st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=4
)


@st.composite
def task_lists(draw):
    """Tasks over a few dicts: some share one object, some get an equal copy."""
    dicts = draw(st.lists(parameter_dicts, min_size=1, max_size=3))
    tasks = []
    for ordinal in range(draw(st.integers(min_value=1, max_value=12))):
        parameters = dicts[draw(st.integers(min_value=0, max_value=len(dicts) - 1))]
        if draw(st.booleans()):
            parameters = dict(parameters)
        tasks.append(
            make_task(
                ordinal,
                parameters,
                seeds=draw(seed_lists),
                function_ref=draw(st.sampled_from(FUNCTIONS)),
            )
        )
    return tasks


@given(task_lists(), st.sampled_from(CODE_VERSIONS))
@settings(max_examples=150, deadline=None)
def test_task_keys_equal_the_whole_payload_hash(tasks, code_version):
    expected = [reference_key(task, code_version) for task in tasks]
    assert task_keys(tasks, code_version) == expected
    with ResultStore(code_version=code_version) as store:
        assert store.keys_for(tasks) == expected


@given(task_lists())
@settings(max_examples=40, deadline=None)
def test_put_many_stores_every_entry_of_a_one_shot_generator(tasks):
    with ResultStore() as store:
        keys = store.put_many(
            (task, [{"metric": float(task.ordinal)}]) for task in tasks
        )
        assert keys == [reference_key(task, store.code_version) for task in tasks]
        # Equal tasks share a key; the last write wins.
        last = {key: task.ordinal for key, task in zip(keys, tasks)}
        assert len(store) == len(last)
        found = store.get_many(keys)
        assert found == {
            key: [{"metric": float(ordinal)}] for key, ordinal in last.items()
        }


def canonical_tail_key(task, code_version):
    """The key as the prefix plus ``canonical_json`` of the seed list."""
    head = canonical_json(
        {
            "code_version": code_version,
            "function": task.function_ref,
            "parameters": task.parameters,
            "seeds": [],
        }
    )
    payload = head[: -len("[]}")] + canonical_json(list(task.seeds)) + "}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


int_seeds = st.integers(min_value=0, max_value=2**63 - 1)
seed_tuples = st.one_of(
    st.lists(int_seeds, min_size=1, max_size=8),
    st.lists(int_seeds.map(np.int64), min_size=1, max_size=8),
    st.lists(st.booleans(), min_size=1, max_size=8),
    st.lists(
        st.one_of(int_seeds, int_seeds.map(np.int64), st.booleans()),
        min_size=1,
        max_size=8,
    ),
).map(tuple)


@given(
    st.lists(seed_tuples, min_size=1, max_size=6),
    parameter_dicts,
    st.sampled_from(CODE_VERSIONS),
)
@settings(max_examples=150, deadline=None)
def test_seed_tails_equal_the_canonical_json_encoding(seeds, parameters, version):
    """Plain-int seed lists are joined directly; every other type is encoded."""
    tasks = [make_task(index, parameters, block) for index, block in enumerate(seeds)]
    expected = [canonical_tail_key(task, version) for task in tasks]
    assert expected == [reference_key(task, version) for task in tasks]
    assert task_keys(tasks, version) == expected


def test_bool_and_int_seeds_key_apart():
    tasks = [make_task(0, {"N": 10}, seeds) for seeds in ((1,), (True,), (1, 0))]
    tasks.append(make_task(0, {"N": 10}, (True, False)))
    keys = task_keys(tasks)
    assert len(set(keys)) == len(keys)
    assert task_keys([make_task(0, {"N": 10}, (np.int64(1),))]) == keys[:1]


BAD_TASKS = {
    "nan-parameter": ({"beta": float("nan")}, (3,)),
    "infinite-nested-parameter": ({"qualities": [0.8, float("inf")]}, (3,)),
    "non-string-name": ({1: "x"}, (3,)),
    "object-parameter": ({"payload": object()}, (3,)),
    "nan-seed": ({"beta": 0.5}, (float("nan"),)),
    "object-seed": ({"beta": 0.5}, (object(),)),
}


@pytest.mark.parametrize("bad", BAD_TASKS.values(), ids=list(BAD_TASKS))
def test_a_bad_third_task_fails_as_the_whole_payload_encoding_fails(bad):
    shared = {"N": 10, "qualities": (0.8, 0.5)}
    parameters, seeds = bad
    tasks = [
        make_task(0, shared, seeds=(1,)),
        make_task(1, shared, seeds=(2,)),
        make_task(2, parameters, seeds=seeds),
        make_task(3, shared, seeds=(4,)),
    ]
    with pytest.raises((TypeError, ValueError)) as expected:
        reference_key(tasks[2], "1.0.0")
    with pytest.raises(type(expected.value)) as got:
        task_keys(tasks, "1.0.0")
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
