"""Inputs replay from their seed, and BENCHMARK.json names what the harness prints.

Run with ``python -m pytest perfbench -q``; imports nothing of ``repro``.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from perfbench import load_spec
from perfbench.workloads import (
    K,
    STREAM_OPS,
    Scale,
    ground_truth,
    make_dataset,
    make_ops,
    score,
    stream_bytes,
)

SCALE = Scale.named("smoke")
EXECUTED = list(range(12))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def generate(workload: str, seed: int):
    dataset = make_dataset(seed, SCALE)
    ops = make_ops(workload, seed, dataset)
    return dataset, ops, ground_truth(workload, dataset, ops, EXECUTED)


@pytest.fixture(scope="module")
def spec() -> dict:
    return load_spec()


@pytest.mark.parametrize("workload", STREAM_OPS)
def test_same_seed_same_stream_and_truth(workload):
    _, ops_a, truth_a = generate(workload, 7)
    _, ops_b, truth_b = generate(workload, 7)
    assert stream_bytes(ops_a) == stream_bytes(ops_b)
    assert truth_a.tobytes() == truth_b.tobytes()


@pytest.mark.parametrize("workload", STREAM_OPS)
def test_other_seed_other_stream(workload):
    _, ops_a, truth_a = generate(workload, 7)
    _, ops_b, truth_b = generate(workload, 8)
    assert stream_bytes(ops_a) != stream_bytes(ops_b)
    assert truth_a.tobytes() != truth_b.tobytes()


@pytest.mark.parametrize("workload", STREAM_OPS)
def test_oracle_accepts_truth_and_rejects_a_wrong_row(workload):
    dataset, ops, truth = generate(workload, 7)
    exact = score(workload, dataset, ops, EXECUTED, list(truth), exact=True)
    assert exact.wrong_ops == 0 and exact.recall == 1.0
    # Swap the best neighbour of the first query for a row outside its top K.
    spoiled = truth.copy()
    full = ground_truth(workload, dataset, ops, EXECUTED[:1])[0][0]
    outsider = next(r for r in range(dataset.rows - 1, -1, -1) if r not in set(full.tolist()))
    spoiled[0][0][0] = outsider
    judged = score(workload, dataset, ops, EXECUTED, list(spoiled), exact=True)
    assert judged.wrong_ops == 1
    # A repeated id is malformed whatever its distance.
    spoiled = truth.copy()
    spoiled[1][0][1] = spoiled[1][0][0]
    assert score(workload, dataset, ops, EXECUTED, list(spoiled)).wrong_ops == 1


def test_update_mixed_truth_follows_the_writes():
    dataset, ops, truth = generate("update_mixed", 7)
    for n in EXECUTED:  # the first search asks for the vector written first in the same op
        assert truth[n][0][0] == ops["pks"][n][0]


def test_hybrid_truth_satisfies_the_predicate():
    dataset, ops, truth = generate("hybrid_gsql", 7)
    for n in EXECUTED:
        ids = truth[n][0][truth[n][0] >= 0]
        column, arg = (dataset.owner, ops["arg"][n]) if ops["pattern"][n] else (dataset.bucket, ops["arg"][n])
        assert np.all(column[ids] == arg) if ops["pattern"][n] else np.all(column[ids] < arg)
        assert ids.size == min(K, int(np.sum(column == arg if ops["pattern"][n] else column < arg)))


def test_benchmark_json_matches_the_harness(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(STREAM_OPS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(STREAM_OPS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["unit"] and 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and metric["unit"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
