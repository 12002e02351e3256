"""The committed benchmark artifacts, ``BENCH_<tag>.json`` at the repository root."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_bench_artifact_is_schema_versioned():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        data = json.loads(path.read_text())
        assert (data.get("schema"), data.get("tag"), "claim" in data) == (
            "silverprox.bench/1", path.stem[len("BENCH_"):], True), path.name
