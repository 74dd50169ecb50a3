"""Byte-identical localization reports on fuzz episodes.

Each seed 0..299 of ``episode_fuzz.make_episode`` (two chains joined by a
tie) is localized against its simulation oracle, and the SHA-256 of the
reports' ``to_dict()`` JSON (sorted keys, one document after another) must
equal ``DIGEST``. Seeds 0..199 of ``episode_fuzz.make_mesh`` (3-4 feeder
meshes with ties and DG leaves) must likewise equal ``MESH_DIGEST``; there
a raised error hashes as ``Type: message``. The benchmark's own inputs
at seed 401 (``report_hashes.documents``: 200 mesh and 4 chain
episodes) must equal ``BENCH_DIGEST``. A change that only makes the
planner faster must leave every report alone; one that is meant to alter
reports (a new verdict rule, say) regenerates the digests, as
``tests/golden/`` is regenerated, with

    PYTHONPATH=src python tests/test_report_digest.py

and explains in CHANGES.md which reports changed and why.
"""

import hashlib
import json

import report_hashes
from episode_fuzz import make_episode, make_mesh_case
from gridsleuth.errors import GridSleuthError
from gridsleuth.planner import localize

SEEDS = range(300)
DIGEST = "7d5c65860f63f34da4fdea06c8ef4a92f25887f0963b424080f593d8b1d9b83e"
MESH_SEEDS = range(200)
MESH_DIGEST = "35618e91d17ba8808966f55a56391eebb6f8f0a2ecfb610867d7b34c89de8126"
BENCH_SEEDS = range(401, 402)
BENCH_DIGEST = "2691b021e39258b1fdd6591346f3d4aa08880bc553b378d1469ff9b3f55737ba"


def report_digest(seeds) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        ep = make_episode(seed)
        report = localize(ep.topology, ep.alarm_edge, ep.oracle())
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def mesh_document(seed: int) -> bytes:
    """One ``make_mesh_case`` report's JSON, or ``Type: message`` if it raises."""
    topo, alarm_edge, oracle = make_mesh_case(seed)
    try:
        report = localize(topo, alarm_edge, oracle)
    except GridSleuthError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    return json.dumps(report.to_dict(), sort_keys=True).encode()


def mesh_digest(seeds) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        digest.update(mesh_document(seed))
    return digest.hexdigest()


def bench_digest(seeds) -> str:
    digest = hashlib.sha256()
    for doc in report_hashes.documents(seeds):
        digest.update(doc.encode())
    return digest.hexdigest()


def test_fuzz_reports_match_digest():
    assert report_digest(SEEDS) == DIGEST


def test_mesh_reports_match_digest():
    assert mesh_digest(MESH_SEEDS) == MESH_DIGEST


def test_benchmark_reports_match_digest():
    assert bench_digest(BENCH_SEEDS) == BENCH_DIGEST


if __name__ == "__main__":
    print(f"DIGEST = {report_digest(SEEDS)}")
    print(f"MESH_DIGEST = {mesh_digest(MESH_SEEDS)}")
    print(f"BENCH_DIGEST = {bench_digest(BENCH_SEEDS)}")
