import json
from pathlib import Path

from perfbench import workloads
from perfbench.layers import CATALOG

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_the_catalog():
    assert SPEC["per_layer"] == [
        {"name": x.name, "unit": x.unit, "better": x.better} for x in CATALOG
    ]


def test_workloads_match_and_the_whys_state_the_offered_rates():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    whys = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert f"{workloads.SMALL_RATE:g} req/s" in whys["http-lookup-small"]
    assert f"{workloads.MIXED_RATE:g} req/s" in whys["http-mixed-durable"]
    for name, w in workloads.WORKLOADS.items():
        assert whys[name] == w.why
