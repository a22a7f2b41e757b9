"""A control verb recompiles the path it changed, not the table: the
machine-independent form of ``aiu.compile_ms`` (docs/PERFORMANCE.md,
"Control-op stall").  Both sides are best-of-N on the same interpreter,
so the ratio holds on a slow or busy box (tier-1, so
scripts/ci_check.sh runs it)."""

from time import perf_counter

import pytest

from repro.aiu import AIU

REPEATS = 3


def _timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


@pytest.mark.parametrize("filters", [256, 1024])
def test_recompile_after_one_filter_is_a_tenth_of_the_first_compile(filters):
    full, after_one = [], []
    for _ in range(REPEATS):
        aiu = AIU(("g",))
        for i in range(filters):
            aiu.create_filter("g", f"10.{i % 16}.{i // 16}.0/24, 20.*, UDP")
        full.append(_timed(aiu.ensure_compiled))
        aiu.create_filter("g", "10.200.0.0/16, 20.*, UDP")
        after_one.append(_timed(aiu.ensure_compiled))
        (table,) = aiu._tables.values()
        assert table.nodes_compiled_last == 7 < table.node_count() // 100
    assert min(after_one) <= 0.1 * min(full), (min(after_one), min(full))
