#!/usr/bin/env bash
# One-shot verification, exactly what CI runs, each gate once: hygiene,
# lint, the full test suite, the bounded fuzz, an engine smoke run (whose
# experiments raise on their own deterministic verdicts), the ladder's
# tests and the perf-regression gate.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# stage NAME: report the wall seconds of the stage that just ended, then
# open the next one; the last call closes the run with the total.
stage_name=""
stage() {
    if [ -n "$stage_name" ]; then
        echo "-- $stage_name: $((SECONDS - stage_started))s"
    fi
    stage_name="$1"
    stage_started=$SECONDS
    echo "== $1 =="
}

stage hygiene
# Committed bytecode / tool caches are repo rot: fail fast if any sneak in.
if git ls-files | grep -E '(^|/)__pycache__/|\.py[cod]$|(^|/)\.pytest_cache/|(^|/)\.benchmarks/|\.egg-info(/|$)' ; then
    echo "tracked build/bytecode artifacts found (see above); git rm them" >&2
    exit 1
fi
echo "(no tracked bytecode or tool-cache artifacts)"

stage lint
# The linter is stdlib: a compile check plus an ast pass for what a
# deletion leaves behind (unused imports, dangling __all__) and for
# src/repro modules no experiment, __main__, example, benchmark or script
# reaches: what only tests call lives under tests/.
python -m compileall -q src tests benchmarks
python scripts/lint_unused.py src tests benchmarks scripts
# Each paper claim is checked once, by its experiment's run(): the only
# bench file is the frame counter a tier-1 test loads (the perf gate's
# probes live in run_perf_gate.py), so an assert that no stage runs cannot
# grow back beside it.
if ls benchmarks/bench_*.py | grep -vxF 'benchmarks/bench_miss_frames.py'; then
    echo "a bench file beyond bench_miss_frames.py (see above):" \
         "check a paper shape in its experiment's run(), which the goldens and the" \
         "engine smoke stage run" >&2
    exit 1
fi
# The wire stays closed and small: nothing in repro/net names pickle, and
# the package stays under its line cap.
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
# Each frame layout exists once: a request verb's or a reply kind's bytes are
# spelled only in net/proto.py, whose formatters and reply layouts the client
# verbs, the server and the frames all use.
proto=src/repro/net/proto.py
if grep -rnE --include='*.py' \
        'b"((get|gets|set|delete|touch) |(VALUE|END|STORED|DELETED|NOT_FOUND|ERROR|CLIENT_ERROR|SERVER_ERROR)[ \\])' \
        src/repro | grep -v "^$proto:"; then
    echo "a request-verb or reply-kind bytes literal outside $proto (see above):" \
         "format frames with its *_frame functions and *_REPLY / value_reply layouts" >&2
    exit 1
fi
echo "($proto: the only request and reply layouts, $(wc -l < "$proto") lines; repro/net $net_lines)"
# The package serves and connects; load generation is the ladder's. (The
# names are bracketed so a repo-wide grep for them does not find this line.)
if grep -rn --include='*.py' -E 'run_network_[l]oad|measure_[p]ipelining|^\s*(import|from)\s+multiprocessing' src/repro/net; then
    echo "a load generator is back under src/repro/net (see above): socket-plane timing belongs to benchmarks/ladder" >&2
    exit 1
fi
# The shard server exists once, and it is blocking: one thread per
# connection, no event loop under it, and the plane starts no loop thread.
if grep -nE 'asyncio\.Protocol|create_server|transport' src/repro/net/server.py \
        || grep -n 'LoopThread(' src/repro/net/plane.py; then
    echo "an asyncio server or loop thread is back in src/repro/net (see above):" \
         "ShardServer serves on blocking threads and NetworkPlane runs no loop" >&2
    exit 1
fi
echo "(src/repro/net/server.py: blocking threads only; plane.py starts no LoopThread)"
# One client protocol: a storage read is the miss body's signature call,
# and cluster/client.py is the only place that makes it.
if grep -rn --include='*.py' -E 'storage\.get\(|storage_get\(' src/repro \
        | grep -v '^src/repro/cluster/client\.py:'; then
    echo "a storage read outside cluster/client.py (see above): the miss protocol exists once" >&2
    exit 1
fi
# One write path: a delete has one body, and a shard write's loss is
# counted where the shard write is made, both in cluster/client.py.
if grep -rn --include='*.py' -E 'storage\.delete\(|lost_invalidations \+=' src/repro \
        | grep -v '^src/repro/cluster/client\.py:'; then
    echo "a storage delete or a lost-invalidation count outside cluster/client.py" \
         "(see above): the write path exists once" >&2
    exit 1
fi
storage_deletes="$(grep -c 'storage\.delete(' src/repro/cluster/client.py || true)"
if [ "$storage_deletes" -ne 1 ]; then
    echo "cluster/client.py deletes storage in $storage_deletes places; it must be 1:" \
         "a delete has one body" >&2
    exit 1
fi
protocol_lines="$(cat src/repro/cluster/*.py src/repro/sim/*.py src/repro/policies/*.py | wc -l)"
src_lines="$(find src/repro -name '*.py' -print0 | xargs -0 cat | wc -l)"
# One arbiter access path: an access only taps its key, and the sampling
# memo is written in one place, the function the drain samples through.
adaptive=src/repro/policies/adaptive.py
memo_writes="$(grep -cE 'memo\[[^]]*\] *=' "$adaptive" || true)"
if [ "$memo_writes" -ne 1 ]; then
    echo "$adaptive writes the sampling memo in $memo_writes places; it must be 1:" \
         "the arbiter samples in one function" >&2
    exit 1
fi
# One record of a hot key's possibly-stale shards: the router derives a
# route's read set from it in one place, so nothing else assigns it.
replication=src/repro/cluster/replication.py
eligible_writes="$(grep -rn --include='*.py' -E '\.eligible *=[^=]' src/repro || true)"
if [ "$(printf '%s' "$eligible_writes" | grep -c .)" -ne 1 ] \
        || ! printf '%s' "$eligible_writes" | grep -q "^$replication:"; then
    echo "${eligible_writes:-no .eligible assignment found}" >&2
    echo "a route's read set (.eligible) must be assigned once, in $replication:" \
         "the router derives it from its pending record" >&2
    exit 1
fi
echo "(storage is read, deleted and a lost invalidation counted in cluster/client.py" \
     "only; cluster/ + sim/ + policies/ is" \
     "$protocol_lines lines, $replication $(wc -l < "$replication") with one read-set write," \
     "$adaptive $(wc -l < "$adaptive") with one memo write, src/repro $src_lines)"
# One ring build: every (server, replica) point is placed by one sort,
# in the memoised helper that construction and add_server share. A lookup
# bisects only its bucket of the index, never the whole ring.
hashring=src/repro/cluster/hashring.py
ring_sorts="$(grep -cE '\.sort\(|sorted\(' "$hashring" || true)"
if [ "$ring_sorts" -ne 1 ]; then
    echo "$hashring sorts in $ring_sorts places; it must be 1:" \
         "the ring is built by one sort, once per member set" >&2
    exit 1
fi
unbounded="$(grep -nE 'bisect_left\(' "$hashring" \
    | grep -vE 'bisect_left\(points, point, starts\[b\], starts\[b \+ 1\]\)' || true)"
if [ -n "$unbounded" ]; then
    echo "$unbounded" >&2
    echo "$hashring must call bisect_left on the ring's points within the" \
         "key's bucket: bisect_left(points, point, starts[b], starts[b + 1])" >&2
    exit 1
fi
echo "($hashring: one ring sort, bucket-bounded lookups)"
# I_t is the only input: the elastic controller takes the target imbalance,
# the cost-aware one its hit value and line cost, and all other tuning is a
# module constant (DESIGN.md section 5, item 4). The fault path keeps the
# four settings a run sets: the guard's attempts, the breaker's threshold and
# cooldown, the injector's flaky-coin seed. A retry is immediate, so the
# guard draws no random numbers (DESIGN.md section 7). The arbiter, its
# engine axis, the registry, the router and the histogram keep only what an
# experiment, benchmark, example or the fuzz grid sets: the ledger's line
# cost, two choices and the bucket layout are module constants (DESIGN.md
# section 14, section 10 and obs/hist.py). CoT's cache and tracker take
# only the sizes C and K: Equation 1's weights and the half-life are module
# constants (hotness.READ_WEIGHT, UPDATE_WEIGHT, decay.HALF_LIFE), and
# Algorithm 1's inheritance is not a setting (the space-saving bounds need
# it). The elastic front end takes I_t, its starting sizes, the epoch, its
# controller and decay policy, its id and its guard; the decay layer's only
# setting is the exponential rate; the router takes its cluster and config.
python - <<'PY'
import ast
import sys

#: (path, class) -> its __init__ parameters after self
inits = {
    ("src/repro/core/resizing.py", "ResizingController"): ["target_imbalance"],
    ("src/repro/core/costaware.py", "CostAwareController"): ["hit_value", "line_cost"],
    ("src/repro/cluster/retry.py", "ClusterGuard"): ["servers", "max_attempts", "breaker"],
    ("src/repro/cluster/faults.py", "FaultInjector"): ["seed"],
    ("src/repro/policies/adaptive.py", "AdaptiveArbiter"): [
        "capacity", "candidates", "tracker_capacity", "epoch_length",
        "sample_shift", "switch_margin", "min_samples", "initial",
    ],
    ("src/repro/obs/hist.py", "LatencyHistogram"): [],
    ("src/repro/core/cache.py", "CoTCache"): ["capacity", "tracker_capacity"],
    ("src/repro/core/tracker.py", "CoTTracker"): ["tracker_capacity", "cache_capacity"],
    ("src/repro/core/elastic.py", "ElasticCoTClient"): [
        "cluster", "target_imbalance", "initial_cache", "initial_tracker",
        "base_epoch", "controller", "decay", "client_id", "guard",
    ],
    ("src/repro/core/decay.py", "HalfLifeDecay"): [],
    ("src/repro/core/decay.py", "ExponentialDecay"): ["rate"],
    ("src/repro/cluster/replication.py", "HotKeyRouter"): ["cluster", "config"],
}
#: (path, dataclass) -> its fields
fields = {
    ("src/repro/cluster/retry.py", "BreakerConfig"): ["failure_threshold", "cooldown"],
    ("src/repro/engine/spec.py", "ArbitrationSpec"): [
        "epoch_length", "sample_shift", "switch_margin", "min_samples",
    ],
    ("src/repro/cluster/replication.py", "ReplicationConfig"): [
        "degree", "top_n", "max_keys", "min_share", "refresh_every",
    ],
}
#: (path, module-level function) -> its parameters
functions = {
    ("src/repro/policies/registry.py", "make_policy"): [
        "name", "capacity", "tracker_capacity", "hot_keys",
    ],
}


def module(path: str) -> list:
    return ast.parse(open(path, encoding="utf-8").read()).body


def body(path: str, name: str) -> list:
    return next(
        (c.body for c in module(path) if isinstance(c, ast.ClassDef) and c.name == name), []
    )


def function(nodes: list, name: str):
    return next(
        (n for n in nodes if isinstance(n, ast.FunctionDef) and n.name == name), None
    )


def params(node: ast.FunctionDef) -> list:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return names + [f"*{a.arg}" for a in (args.vararg, args.kwarg) if a is not None]


wrong = []
for (path, name), want in inits.items():
    init = function(body(path, name), "__init__")
    if init is None:
        wrong.append(f"{path}: no {name}.__init__")
        continue
    have = params(init)[1:]
    print(f"({name}.__init__(self{''.join(', ' + p for p in have)}))")
    if have != want:
        wrong.append(f"{path}: {name}.__init__ takes {have}, not {want}")
for (path, name), want in functions.items():
    node = function(module(path), name)
    if node is None:
        wrong.append(f"{path}: no {name}")
        continue
    have = params(node)
    print(f"({name}({', '.join(have)}))")
    if have != want:
        wrong.append(f"{path}: {name} takes {have}, not {want}")
for (path, name), want in fields.items():
    have = [
        n.target.id for n in body(path, name)
        if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
    ]
    print(f"({name} fields: {', '.join(have)})")
    if have != want:
        wrong.append(f"{path}: {name} has the fields {have}, not {want}")
retry = "src/repro/cluster/retry.py"
for node in ast.walk(ast.parse(open(retry, encoding="utf-8").read())):
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        continue
    if any(module.split(".")[0] == "random" for module in modules):
        wrong.append(f"{retry}:{node.lineno}: imports random")
if wrong:
    print("\n".join(wrong), file=sys.stderr)
    print("a controller, the fault path, the arbiter, the registry, the router,"
          " the histogram, CoT's cache, tracker or elastic front end or a decay"
          " policy takes a setting no run varies"
          " (see above): what a run sets is the only parameter, the rest are"
          " module constants",
          file=sys.stderr)
    sys.exit(1)
PY
# One drive loop: the cadence tick and the cluster are each built in one
# place in the engine's runners.
runners=src/repro/engine/runners.py
ticks="$(grep -c '% refresh_every' "$runners" || true)"
clusters="$(grep -c 'CacheCluster(' "$runners" || true)"
if [ "$ticks" -ne 1 ] || [ "$clusters" -ne 1 ]; then
    echo "$runners has $ticks '% refresh_every' ticks and $clusters 'CacheCluster(' calls;" \
         "each must be 1: the drive loop exists once" >&2
    exit 1
fi
# Every metric is named once: a catalogued name is a string literal only in
# engine/telemetry.py (reporters read its kept constants), and the runners
# share one publish tail.
telemetry=src/repro/engine/telemetry.py
names="$(python -c 'from repro.engine.telemetry import CATALOGUE
print("|".join(sorted({m.name.replace(".", "[.]") for m in CATALOGUE})))')"
if grep -rn --include='*.py' -E "[\"']($names)[\"']" src/repro | grep -v "^$telemetry:"; then
    echo "a catalogued metric name is spelled outside $telemetry (see above): use its constant" >&2
    exit 1
fi
tails="$(grep -c 'def _publish' "$runners" || true)"
if [ "$tails" -ne 1 ]; then
    echo "$runners defines $tails _publish functions; the publish tail exists once" >&2
    exit 1
fi
# A run's telemetry is frozen once: only that tail builds a TelemetrySnapshot
# and notifies the listeners, which the parallel fabric's _replay also does
# for snapshots frozen in a worker.
python - <<'PY'
import ast
import pathlib
import sys

allowed = {
    "TelemetrySnapshot": {("src/repro/engine/runners.py", "_publish")},
    "notify_snapshot_listeners": {
        ("src/repro/engine/runners.py", "_publish"),
        ("src/repro/engine/parallel.py", "_replay"),
    },
}
found = []


def visit(node, path, scope):
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        elif isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in allowed and (path, scope) not in allowed[name]:
                found.append(f"{path}:{child.lineno}: {name}( in {scope or 'module scope'}")
        visit(child, path, inner)


for file in sorted(pathlib.Path("src/repro").rglob("*.py")):
    visit(ast.parse(file.read_text(encoding="utf-8")), file.as_posix(), None)
if found:
    print("\n".join(found), file=sys.stderr)
    print("a snapshot is frozen or announced outside engine/runners.py's _publish"
          " (see above): a run's telemetry is frozen once", file=sys.stderr)
    sys.exit(1)
PY
echo "($runners: one cadence tick, one cluster construction, one _publish that alone" \
     "freezes and announces a snapshot, $(wc -l < "$runners") lines; metric names only" \
     "in $telemetry, $(wc -l < "$telemetry") lines)"
# One cluster builder: the fuzz steps what engine/runners.py's build_cluster
# assembles, so it constructs and wires none of the parts itself.
fuzz_files="tests/_cluster_oracle.py tests/test_cluster_stateful.py"
# shellcheck disable=SC2086
if grep -nE '(CacheCluster|HotKeyRouter|NetworkPlane|make_write_policy|attach_router|attach_write_policy)\(' $fuzz_files; then
    echo "the cluster fuzz builds a part itself (see above): it builds only through" \
         "repro.engine.runners.build_cluster" >&2
    exit 1
fi
echo "($fuzz_files: built only through build_cluster," \
     "$(cat $fuzz_files | wc -l) lines)"

stage tests
python -m pytest -x -q

stage fuzz
# Bounded model-based fuzz: the stateful hypothesis machine drives random
# get/set/delete/get_many/kill/revive/add/remove/epoch/refresh
# interleavings against the dict oracle in tests/_cluster_oracle.py
# (tests/test_cluster_stateful.py), once per row of its generated
# pairwise grid. The 200 examples are split evenly over the rows, rounded
# up, at 60 steps each: at least 12,000 steps. `-s` shows each
# arbitrated row's live-policy switch count.
# Derandomized here so CI is reproducible; for a deeper randomized soak,
# drop CLUSTER_FUZZ_DERANDOMIZE and raise the budgets. Replay a specific
# run with:  python -m pytest tests/test_cluster_stateful.py --hypothesis-seed=<N>
rows="$(python -c 'from tests.test_cluster_stateful import FLOOR; print(len(FLOOR))')"
echo "(fuzz grid: $rows rows)"
CLUSTER_FUZZ_EXAMPLES=200 CLUSTER_FUZZ_STEPS=60 CLUSTER_FUZZ_DERANDOMIZE=1 \
    python -m pytest tests/test_cluster_stateful.py -q -s

stage "engine smoke"
# Every registered experiment at smoke scale. Each of fig3, fig4, table2,
# fig5, fig6, figA, ycsb-bug, ext-decay, ext-dists and ext-edge-rtt raises
# ExperimentError when the paper shape it reproduces does not hold, and
# ext-hotkey, ext-write, ext-adaptive and ext-chaos on their own verdicts
# (replication targets, write-behind loss bound, arbiter convergence,
# correct and degraded reads under churn), so this stage is where those
# are enforced. fig7 and fig8 check their shapes at default and paper
# scale only, where both searches complete; tests/test_experiments.py
# holds them at 400k accesses.
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

stage "ladder tests"
# The ladder benchmark drives repro.net through its public surface
# (ShardServer/ShardEndpoint/LoopThread/ShardProxy, the proto frames) and
# checks every value read against an oracle: a transport change that
# breaks its oracle or its teardown must fail here, not in the next
# benchmark run. ~45 s.
python -m pytest benchmarks/ladder/tests -q

stage "perf gate"
# The one perf stage: one table of rows, each measured once, no retry.
# 13 calibrated rates (policy lookup+admit x5, tracker, ring, replica ring,
# zipfian, request mix, scrambled zipfian, engine stream, resize cycle),
# each >= 0.75x its value in the latest BENCH_ops.json entry; fig4-grid
# speedup@4 >= 2.0 (on >= 4 CPUs; identical hit rates on every host);
# write-through <= 1.5x cache-aside; write-behind >= 1.3x write-through
# modeled at S = 10, no lost write, peak dirty <= 64; tracing <= 5%; arbiter
# shadows <= 15%. The socket plane's timing is the ladder's (BENCHMARK.json).
python benchmarks/run_perf_gate.py --check

stage OK
echo "total: ${SECONDS}s"
