"""Shared fixtures: one synthetic corpus per session plus CLI helpers."""
import dataclasses
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from talkover import synth


@pytest.fixture(scope="session")
def fixtures_dir(tmp_path_factory):
    """All four fixture families, generated once. Tests must treat this
    directory as read-only; outputs belong in each test's tmp_path."""
    out = tmp_path_factory.mktemp("fixtures")
    synth.write_all_fixtures(str(out), seed=0, profile_name="tiny",
                             telemetry_n=4000)
    return out


def run_cli(argv):
    """Invoke the CLI in-process; returns the exit code."""
    from talkover import cli
    return cli.main([str(a) for a in argv])


def traced_peak(fn, *args):
    """Peak bytes numpy and Python allocate while fn(*args) runs, above
    what was traced when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def tree_digest(root):
    """Digest of a directory tree: relative paths and content bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def same_telemetry(a, b):
    """Whether two Telemetry tables hold equal columns and equal extras
    in the same order."""
    names = [f.name for f in dataclasses.fields(a) if f.name != "extras"]
    return (all(np.array_equal(getattr(a, n), getattr(b, n)) for n in names)
            and list(a.extras) == list(b.extras)
            and all(np.array_equal(a.extras[k], b.extras[k]) for k in a.extras))
