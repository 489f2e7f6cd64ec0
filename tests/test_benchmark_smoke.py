"""The benchmark still runs against the package: a few ops of each workload.

``perfbench/run.py`` drives its workloads through their own ``run`` and
``check``.  Here 30 ops of each library workload go through them the way
the worker does (an op that raises is an output the oracle judges), with
seed 1 and no pre-made pool, so a change of the package's API that would
break the benchmark fails here first.  ``probes.known_wrong``, which every
end-to-end run records, is pinned as well.
"""

import sys
from pathlib import Path

import pytest

import ncmoduli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import probes  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OPS = 30


@pytest.mark.parametrize("name", ["covering", "orbits", "counts"])
def test_workload_ops_pass_their_oracles(name):
    wl = workloads.WORKLOADS[name](ncmoduli, 1, ROOT, pool=0)
    failed = []
    for i in range(OPS):
        op = wl.op(i)
        try:
            out = wl.run(op, NullTracer())
        except Exception as exc:
            out = exc
        ok, record = wl.check(op, out)
        if not ok:
            failed.append((i, record))
    assert failed == []


def test_known_wrong_answers_are_pinned():
    assert probes.known_wrong(ncmoduli) == {"quintuple.known_wrong": 0, "elliptic.known_wrong": 1}
