#!/usr/bin/env bash
# One-shot verification: lint, the full test suite, an engine smoke run
# and the perf-regression gate, exactly what CI runs. Extra arguments are
# forwarded to the perf gate (e.g. --threshold 0.10 or --against fastpath).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== hygiene =="
# Committed bytecode / tool caches are repo rot: fail fast if any sneak in.
if git ls-files | grep -E '(^|/)__pycache__/|\.py[cod]$|(^|/)\.pytest_cache/|(^|/)\.benchmarks/|\.egg-info(/|$)|^benchmarks/output/' ; then
    echo "tracked build/bytecode/benchmark-output artifacts found (see above); git rm them" >&2
    exit 1
fi
echo "(no tracked bytecode, tool-cache, or benchmark-output artifacts)"

echo "== lint =="
if python -m ruff --version >/dev/null 2>&1; then
    python -m ruff check src tests benchmarks
else
    echo "(ruff not installed; falling back to a compile check plus an ast pass"
    echo " for what a deletion leaves behind: unused imports, dangling __all__)"
    python -m compileall -q src tests benchmarks
    python scripts/lint_unused.py src tests benchmarks scripts
fi
# The wire stays closed and small (ROADMAP item 1): nothing in repro/net
# names pickle, and the package stays under its line cap.
if grep -rn --include='*.py' pickle src/repro/net; then
    echo "pickle is named in src/repro/net (see above): values are opaque at the shard" >&2
    exit 1
fi
net_lines="$(cat src/repro/net/*.py | wc -l)"
if [ "$net_lines" -gt 2133 ]; then
    echo "src/repro/net is $net_lines lines, over its 2,133-line cap" >&2
    exit 1
fi
echo "(repro/net: no pickle, $net_lines lines <= 2,133)"
# One client protocol (ROADMAP item 3): a storage read is the miss body's
# signature call, and cluster/client.py is the only place that makes it.
if grep -rn --include='*.py' -E 'storage\.get\(|storage_get\(' src/repro \
        | grep -v '^src/repro/cluster/client\.py:'; then
    echo "a storage read outside cluster/client.py (see above): the miss protocol exists once" >&2
    exit 1
fi
protocol_lines="$(cat src/repro/cluster/*.py src/repro/sim/*.py src/repro/policies/*.py | wc -l)"
echo "(storage is read in cluster/client.py only; cluster/ + sim/ + policies/ is" \
     "$protocol_lines lines against item 3's <= 5,726)"

echo "== tests =="
python -m pytest -x -q

echo "== fuzz =="
# Bounded model-based fuzz: the stateful hypothesis machine drives random
# get/set/delete/get_many/kill/revive/add/remove/epoch/refresh
# interleavings against the dict oracle (tests/test_cluster_stateful.py).
# Derandomized here so CI is reproducible; for a deeper randomized soak,
# drop CLUSTER_FUZZ_DERANDOMIZE and raise the budgets. Replay a specific
# run with:  python -m pytest tests/test_cluster_stateful.py --hypothesis-seed=<N>
CLUSTER_FUZZ_EXAMPLES=200 CLUSTER_FUZZ_STEPS=60 CLUSTER_FUZZ_DERANDOMIZE=1 \
    python -m pytest tests/test_cluster_stateful.py -q

echo "== engine smoke =="
python -m repro.experiments --list
metrics_out="$(mktemp)"
python -m repro.experiments all --scale smoke --metrics-out "$metrics_out"
# The exported page must round-trip through the strict parser.
python - "$metrics_out" <<'PY'
import sys
from repro.obs.export import parse_prometheus
series = parse_prometheus(open(sys.argv[1], encoding="utf-8").read())
assert any(name.endswith("_total") for name in series), "no counters exported"
print(f"(metrics page OK: {len(series)} series)")
PY
rm -f "$metrics_out"

echo "== parallel smoke =="
# One fabric-routed sweep at --parallel 2 must render the sequential
# golden bytes: parallelism is allowed to change wall-clock, never output.
# (A real script, not a heredoc: spawned workers re-import __main__.)
python scripts/parallel_smoke.py

echo "== hot-key smoke =="
# The adversarial ext-hotkey pair (classic vs replicated tier) must keep
# its headline win at smoke scale: >= 2x modeled cluster throughput and
# <= 0.5x hottest-shard spread. Runs the same measurement the full perf
# gate chains, but as a named stage so a tier regression is immediately
# attributable in CI output.
python benchmarks/run_perf_gate.py --hot-key

echo "== write smoke =="
# The write-path strategy layer's default must be free: an explicitly
# attached cache-aside strategy is observation-identical to the inline
# write body, and write-behind's chaos loss stays within dirty_limit.
python scripts/write_smoke.py

echo "== net smoke =="
# The socket data plane must carry real traffic: 2 asyncio shard servers
# + pipelined clients on ephemeral localhost ports, pipelining beating
# lockstep, and a 10k-request stream making byte-identical cache
# decisions on both planes. Hard 60s ceiling: a hung socket is a bug,
# not a slow test.
timeout 60 python scripts/net_smoke.py

echo "== ladder tests =="
# The ladder benchmark drives repro.net through its public surface
# (ShardServer/ShardEndpoint/LoopThread/ShardProxy, the proto frames) and
# checks every value read against an oracle: a transport change that
# breaks its oracle or its teardown must fail here, not in the next
# benchmark run. ~45 s.
python -m pytest benchmarks/ladder/tests -q

echo "== adaptive smoke =="
# The adaptive arbiter must keep its price and its tracking: the shadow
# machinery costs <= 15% on the serving hot path with the live policy
# pinned, and the arbiter converges to the best fixed policy on every
# ext-adaptive scenario at smoke scale. Same measurement the full perf
# gate chains, surfaced as a named stage for attributable CI failures.
python benchmarks/run_perf_gate.py --adaptive

echo "== perf gate =="
python benchmarks/run_perf_gate.py --check "$@"

echo "== OK =="
