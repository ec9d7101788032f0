"""The benchmark wraps package names from outside; each must still exist.

``kgebench/bench.py`` patches attributes found in a module's or class's own
``__dict__`` and raises ``KeyError`` on a missing one, which would crash
every traced benchmark run. This test runs its patch list against a
recorder instead of the real tracer.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "kgebench"


class RecordingTracer:
    def __init__(self):
        self.patched = []

    def patch(self, owner, attr, name_of):
        self.patched.append((owner, attr))


def test_every_traced_name_exists():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import bench
    finally:
        sys.path.remove(str(BENCH_DIR))
    tracer = RecordingTracer()
    bench.install_spans(tracer)
    assert tracer.patched
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a in tracer.patched if a not in vars(o)]
    assert not missing, f"names the benchmark traces are gone: {missing}"
