"""Byte-identical localization reports on 300 fuzz episodes.

Each seed 0..299 of ``episode_fuzz.make_episode`` is localized against its
simulation oracle, and the SHA-256 of the reports' ``to_dict()`` JSON
(sorted keys, one document after another) must equal ``DIGEST``. A change
that only makes the planner faster must leave every report alone; one
that is meant to alter reports (a new verdict rule, say) regenerates the
digest, as ``tests/golden/`` is regenerated, with

    PYTHONPATH=src python tests/test_report_digest.py

and explains in CHANGES.md which reports changed and why.
"""

import hashlib
import json

from episode_fuzz import make_episode
from gridsleuth.planner import localize

SEEDS = range(300)
DIGEST = "7d5c65860f63f34da4fdea06c8ef4a92f25887f0963b424080f593d8b1d9b83e"


def report_digest(seeds) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        ep = make_episode(seed)
        report = localize(ep.topology, ep.alarm_edge, ep.oracle())
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def test_fuzz_reports_match_digest():
    assert report_digest(SEEDS) == DIGEST


if __name__ == "__main__":
    print(report_digest(SEEDS))
