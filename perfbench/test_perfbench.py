"""Harness checks at the ``--smoke`` sizing; measures nothing.

Run with ``python -m pytest perfbench -q`` (outside tier-1 testpaths).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import compare
from perfbench.layers import LAYERS
from perfbench.workloads import ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def perfbench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One full smoke run plus a second traced-only run."""
    out = tmp_path_factory.mktemp("perfbench")
    first, second = str(out / "a.json"), str(out / "b.json")
    for args in (["--out", first], ["--trace", "1", "--out", second]):
        done = perfbench("--smoke", "--seed", "1", *args)
        assert done.returncode == 0, done.stderr
    with open(first) as a, open(second) as b:
        return first, json.load(a), json.load(b)


def test_every_contract_name_is_emitted_with_its_unit(contract, smoke):
    _, result, _ = smoke
    for workload in contract["workloads"]:
        assert NAME.match(workload["name"])
        sections = result["workloads"][workload["name"]]
        for section in ("end_to_end", "per_layer"):
            record = sections[section]
            assert record["problems"] == []
            assert list(record["metrics"]) == \
                [spec["name"] for spec in contract[section]]
            for spec in contract[section]:
                assert NAME.match(spec["name"])
                metric = record["metrics"][spec["name"]]
                assert metric["unit"] == spec["unit"]
                assert isinstance(metric["value"], (int, float))
        for metric in sections["end_to_end"]["metrics"].values():
            assert metric["value"] > 0


def test_layer_shares_sum_to_one(smoke):
    _, result, _ = smoke
    for sections in result["workloads"].values():
        metrics = sections["per_layer"]["metrics"]
        total = sum(metrics[f"{layer}.host_share"]["value"]
                    for layer in LAYERS)
        assert total == pytest.approx(1.0, abs=0.01)


def test_python_call_counts_repeat_exactly(smoke):
    _, first, second = smoke
    for name, sections in first["workloads"].items():
        again = second["workloads"][name]["per_layer"]["metrics"]
        for layer in LAYERS:
            key = f"{layer}.py_calls_per_op"
            assert sections["per_layer"]["metrics"][key]["value"] \
                == again[key]["value"], (name, key)


def test_compare_of_a_file_with_itself_is_unchanged(contract, smoke, capsys):
    path, result, _ = smoke
    rows = compare.compare(result, result, contract)
    assert len(rows) == len(contract["workloads"]) \
        * len(contract["end_to_end"])
    assert {row[4] for row in rows} == {"unchanged"}
    assert compare.main([path, path]) == 0
    assert "unchanged" in capsys.readouterr().out


def test_compare_flags_a_regression(contract, smoke):
    _, result, _ = smoke
    slower = json.loads(json.dumps(result))
    metric = slower["workloads"]["rtt_active"]["end_to_end"]["metrics"][
        "sim_latency_mean_us"]
    metric["value"] *= 1.5
    rows = compare.compare(result, slower, contract)
    assert [row[:2] for row in rows if row[4] == "worse"] \
        == [("rtt_active", "sim_latency_mean_us")]


def test_contract_line_is_the_last_line(contract):
    done = perfbench("--workload", "rtt_passive", "--seed", "3",
                     "--seconds", "0.2", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == \
        [spec["name"] for spec in contract["end_to_end"]]
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}


def test_fails_without_a_result_where_there_is_no_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = perfbench("--workload", "rtt_active", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
