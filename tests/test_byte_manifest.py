"""One SHA-256 per operation of the four benchmark workloads at one seed.

The workloads in perfbench/ run every suite, the norm requests, about a
thousand classifications and the order evidence, and serialize each result
as the CLI would.  This test reruns every operation at ``SEED``, hashes its
output (an operation that raises is hashed by its exception type and
message), and compares the digests with ``byte_manifest.txt``, one
``workload digest label`` line per operation.  The harness is imported
read-only: nothing is written under perfbench/.

A change that moves bytes on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_byte_manifest.py

and names each operation whose digest moved (the failure message lists them).
"""

import hashlib
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("byte_manifest.txt")
SEED = 601


def _import_workloads():
    # the harness imports its sibling ``oracles`` by bare name
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
        sys.dont_write_bytecode = saved


def digests(workload) -> list:
    """(label, sha256) for each operation of the workload, in op order."""
    rows = []
    for op in workload.make_ops(SEED):
        try:
            text = workload.run(op)
        except Exception as exc:
            text = f"raised {type(exc).__name__}: {exc}"
        rows.append((op.label, hashlib.sha256(text.encode()).hexdigest()))
    return rows


WORKLOADS = _import_workloads().WORKLOADS


@pytest.fixture(scope="module")
def manifest():
    head, *lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in lines:
        name, digest, label = line.split(" ", 2)
        rows.setdefault(name, []).append((label, digest))
    return int(head.removeprefix("seed ")), rows


def test_manifest_covers_every_workload(manifest):
    seed, rows = manifest
    assert seed == SEED
    assert sorted(rows) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_bytes(manifest, name):
    want = manifest[1][name]
    got = digests(WORKLOADS[name])
    assert [label for label, _ in got] == [label for label, _ in want], \
        f"the {name} operations at seed {SEED} changed"
    moved = [label for (label, a), (_, b) in zip(got, want) if a != b]
    assert not moved, f"{len(moved)} {name} outputs changed: {moved}"


if __name__ == "__main__":
    lines = [f"seed {SEED}"]
    for name, w in WORKLOADS.items():
        lines += [f"{name} {digest} {label}" for label, digest in digests(w)]
    MANIFEST.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines) - 1} digests to {MANIFEST}")
