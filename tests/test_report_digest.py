"""Byte-identical localization reports on fuzz episodes.

Each seed 0..299 of ``episode_fuzz.make_episode`` (two chains joined by a
tie) is localized against its simulation oracle, and the SHA-256 of the
reports' ``to_dict()`` JSON (sorted keys, one document after another) must
equal ``DIGEST``. Seeds 0..199 of ``episode_fuzz.make_mesh`` (3-4 feeder
meshes with ties and DG leaves) must likewise equal ``MESH_DIGEST``; there
a raised error hashes as ``Type: message``. A change that only makes the
planner faster must leave every report alone; one that is meant to alter
reports (a new verdict rule, say) regenerates the digests, as
``tests/golden/`` is regenerated, with

    PYTHONPATH=src python tests/test_report_digest.py

and explains in CHANGES.md which reports changed and why.
"""

import hashlib
import json

import numpy as np

from episode_fuzz import BASE_LOAD, make_episode, make_mesh
from gridsleuth.errors import GridSleuthError
from gridsleuth.metering import CustomerMeter, SimulationOracle, Tamper, TamperKind
from gridsleuth.planner import localize

SEEDS = range(300)
DIGEST = "7d5c65860f63f34da4fdea06c8ef4a92f25887f0963b424080f593d8b1d9b83e"
MESH_SEEDS = range(200)
MESH_DIGEST = "35618e91d17ba8808966f55a56391eebb6f8f0a2ecfb610867d7b34c89de8126"


def report_digest(seeds) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        ep = make_episode(seed)
        report = localize(ep.topology, ep.alarm_edge, ep.oracle())
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def mesh_document(seed: int) -> bytes:
    """One mesh episode's report JSON, or ``Type: message`` if it raises.

    Every load has one meter of ``BASE_LOAD`` kWh, and one or two of them
    report zero. The alarm is the breaker that covers the lowest dead
    node at the normal state.
    """
    topo = make_mesh(seed)
    rng = np.random.default_rng([983, seed])
    loads = sorted(topo.load_ids)
    dead = sorted(int(n) for n in rng.choice(loads, size=int(rng.integers(1, 3)),
                                             replace=False))
    meters = [
        CustomerMeter(f"M-{n:02d}", n, BASE_LOAD,
                      Tamper(TamperKind.SCALE, 0.0) if n in dead else None)
        for n in loads
    ]
    coverage = topo.tree(topo.normal_states()).coverage
    frtu = next(f for f, nodes in coverage.items() if dead[0] in nodes)
    oracle = SimulationOracle(topo, meters, seed, threshold=0.1 / len(meters))
    try:
        report = localize(topo, topo.frtu_edges[frtu], oracle)
    except GridSleuthError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    return json.dumps(report.to_dict(), sort_keys=True).encode()


def mesh_digest(seeds) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        digest.update(mesh_document(seed))
    return digest.hexdigest()


def test_fuzz_reports_match_digest():
    assert report_digest(SEEDS) == DIGEST


def test_mesh_reports_match_digest():
    assert mesh_digest(MESH_SEEDS) == MESH_DIGEST


if __name__ == "__main__":
    print(f"DIGEST = {report_digest(SEEDS)}")
    print(f"MESH_DIGEST = {mesh_digest(MESH_SEEDS)}")
