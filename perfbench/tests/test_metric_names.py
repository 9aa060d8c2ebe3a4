import json
import os
import re

import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = os.path.join(os.path.dirname(workloads.__file__), os.pardir, "BENCHMARK.json")


def test_every_metric_name_is_plain():
    for name in list(workloads.E2E_UNITS) + list(workloads.LAYER_UNITS) + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    with open(BENCHMARK, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.LAYER_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
