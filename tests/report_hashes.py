"""SHA-256 of the benchmark's localization reports at seeds 401-410.

Runs the 2,000 ``mesh_episodes(seed, 200)`` and 40 ``chain_episodes(seed)``
inputs of ``perfbench`` (per seed, mesh then chain) and hashes each
report's sorted JSON, or a raised ``GridSleuthError`` as ``Type: message``.
The documents are concatenated in that order. Two versions of the planner
that print the same hash produced byte-identical reports. ``main`` prints
the count and the hash and exits 1 unless the hash is ``EXPECTED``. A
change that only makes the planner faster or smaller must leave it alone;
one that is meant to alter reports (a new verdict rule, say) updates
``EXPECTED`` and explains in CHANGES.md which reports changed and why, as
``tests/test_report_digest.py`` asks of its digests. Run from the
repository root (about 5 s):

    PYTHONPATH=src python tests/report_hashes.py
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import episodes  # noqa: E402
import inputs  # noqa: E402

from gridsleuth.errors import GridSleuthError  # noqa: E402

SEEDS = range(401, 411)
EXPECTED = "86a5c087cd9ca43b133804f990766dc76c9275d8b31d396d9889365088c5e595"


def results(seeds=SEEDS):
    """(prepared input, report or raised ``GridSleuthError``) of each
    episode, in the order the module docstring gives."""
    workloads = (episodes.LocalizeWorkload(lambda seed: inputs.mesh_episodes(seed, 200)),
                 episodes.LocalizeWorkload(inputs.chain_episodes))
    for seed in seeds:
        for workload in workloads:
            for prep in workload.prepare(seed):
                result = workload.run(prep)
                if isinstance(result, Exception) and not isinstance(result, GridSleuthError):
                    raise result
                yield prep, result


def documents(seeds=SEEDS):
    """Each report's document, in the order the module docstring gives."""
    for _, result in results(seeds):
        if isinstance(result, GridSleuthError):
            yield f"{type(result).__name__}: {result}"
        else:
            yield json.dumps(result.to_dict(), sort_keys=True)


def main() -> int:
    digest, count = hashlib.sha256(), 0
    for doc in documents():
        digest.update(doc.encode())
        count += 1
    print(f"{count} reports")
    print(digest.hexdigest())
    if digest.hexdigest() != EXPECTED:
        print(f"reports changed: expected {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
