"""Design-choice benchmark: space-saving vs Count-Min top-k tracking.

The paper adopts space-saving for CoT's tracker; the standard
alternative is a Count-Min Sketch with a candidate heap. This bench
compares :class:`~repro.core.tracker.CoTTracker` with no cached keys
(plain space-saving) and ``CMSTopK`` at equal counter memory on the
paper's workload family, and records recall of the true top-k plus
per-op cost — the quantitative grounds for the paper's (and this
reproduction's) choice.
"""

from __future__ import annotations

from collections import Counter

from repro.core.countmin import CMSTopK
from repro.core.tracker import CoTTracker
from repro.workloads.zipfian import ZipfianGenerator

K = 16
BUDGET_CELLS = 256
STREAM = 60_000
KEY_SPACE = 20_000
THETA = 0.9


def _recall(found, truth) -> float:
    return len(set(found) & set(truth)) / len(truth)


def bench_tracker_recall_comparison(benchmark):
    stream = list(ZipfianGenerator(KEY_SPACE, theta=THETA, seed=11).keys(STREAM))
    true_top = [key for key, _ in Counter(stream).most_common(K)]

    def run_both() -> tuple[float, float]:
        tracker: CoTTracker[int] = CoTTracker(BUDGET_CELLS // 2, 0)
        cms: CMSTopK[int] = CMSTopK(
            K, width=(BUDGET_CELLS - K) // 4, depth=4, seed=12
        )
        for key in stream:
            tracker.track(key)
            cms.offer(key)
        return (
            _recall([key for key, _ in tracker.top(K)], true_top),
            _recall([key for key, _ in cms.top(K)], true_top),
        )

    ss_recall, cms_recall = benchmark.pedantic(run_both, rounds=1, iterations=1)
    benchmark.extra_info["spacesaving_recall"] = round(ss_recall, 3)
    benchmark.extra_info["cms_recall"] = round(cms_recall, 3)
    benchmark.extra_info["budget_cells"] = BUDGET_CELLS
    # The paper's choice holds: per unit memory at tracker-typical sizes,
    # space-saving recalls the true heavy hitters at least as well.
    assert ss_recall >= cms_recall


def bench_tracker_op(benchmark):
    stream = list(ZipfianGenerator(KEY_SPACE, theta=THETA, seed=13).keys(20_000))
    tracker: CoTTracker[int] = CoTTracker(BUDGET_CELLS // 2, 0)
    cursor = [0]

    def run():
        start = cursor[0] % (len(stream) - 2000)
        for key in stream[start:start + 2000]:
            tracker.track(key)
        cursor[0] += 2000

    benchmark(run)


def bench_cms_topk_op(benchmark):
    stream = list(ZipfianGenerator(KEY_SPACE, theta=THETA, seed=13).keys(20_000))
    tracker: CMSTopK[int] = CMSTopK(K, width=(BUDGET_CELLS - K) // 4, depth=4)
    cursor = [0]

    def run():
        start = cursor[0] % (len(stream) - 2000)
        for key in stream[start:start + 2000]:
            tracker.offer(key)
        cursor[0] += 2000

    benchmark(run)
