"""Seed determinism: the same seed gives a byte-identical job list, and a
different seed gives different draws."""

import json
from pathlib import Path

import pytest

import torquiv
import torquiv.cli  # noqa: F401  (binds torquiv.cli and torquiv.corpus)
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _encode(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value


def _deck_bytes(name, seed, work):
    workload = WORKLOADS[name](torquiv, ROOT, work, seed)
    deck = workload.build(2)
    jobs = [[job.key, job.kind, _encode(job.args)] for round_ in deck for job in round_]
    files = sorted((p.name, p.read_text()) for p in work.rglob("*.json"))
    return json.dumps([jobs, files], sort_keys=True).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_jobs_other_seed_other_draws(name, tmp_path):
    first = _deck_bytes(name, 11, tmp_path / "a")
    again = _deck_bytes(name, 11, tmp_path / "a")
    other = _deck_bytes(name, 12, tmp_path / "a")
    assert first == again
    assert first != other
