#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
#
# Usage: scripts/ci.sh [--golden]
#   (no flag)  tier-1: build + tests + clippy + rustdoc
#   --golden   tier-2: the golden-artifact regression suite on the
#              reduced-cycle golden profile. Re-runs the full experiment
#              catalogue, diffs it against goldens/*.jsonl under
#              goldens/tolerances.json and then byte-for-byte (less the
#              wall-time `stages` line), asserts every EXPERIMENTS.md
#              headline claim, checks sweep determinism across worker
#              counts, round-trips `sweep --resume` through the real binary
#              against injected damage, diffs the fault-injection
#              campaign byte-for-byte against goldens/fault_campaign.jsonl,
#              diffs the dse Pareto frontier against
#              goldens/dse_frontier.jsonl under the shared tolerances and
#              then byte-for-byte, and runs the timing guards in
#              benches/perf.rs (per-lane batched solve cost falling from
#              1 to 8 lanes, disabled telemetry overhead, disabled
#              executor tracing overhead).
#              Leaves the suite manifest at target/sweep/ as the uploadable
#              artifact.
#
# Runs from the repository root regardless of the caller's cwd.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--golden" ]]; then
    echo "== golden suite (tier-2) =="
    cargo build --release -p vs-bench
    cargo test --release -q -p vs-bench --test golden -- --ignored
    echo "== sweep artifact =="
    cargo run --release -q -p vs-bench --bin sweep -- \
        run --profile golden --out target/sweep --diff goldens
    # Byte for byte too: each experiment artifact, less its wall-time
    # `stages` line, is its golden.
    n_bytes=0
    for golden in goldens/*.jsonl; do
        name=$(basename "$golden")
        case "$name" in
            manifest.jsonl | dse_frontier.jsonl | fault_campaign.jsonl) continue ;;
        esac
        [[ -f "target/sweep/$name" ]] \
            || { echo "sweep golden: target/sweep/$name missing" >&2; exit 1; }
        grep -v '^{"type":"stages"' "target/sweep/$name" | cmp -s - "$golden" \
            || { echo "sweep golden: $name differs from its golden" >&2; exit 1; }
        n_bytes=$((n_bytes + 1))
    done
    echo "sweep golden: $n_bytes artifact(s) byte-identical"
    echo "== dse frontier artifact =="
    # Deterministic tiny-grid frontier at the golden profile, diffed
    # against the blessed artifact under the shared tolerances.
    cargo run --release -q -p vs-bench --bin dse -- \
        --profile golden --deterministic --out target/dse-golden \
        --progress off --diff goldens/dse_frontier.jsonl \
        --tolerances goldens/tolerances.json > /dev/null
    cmp goldens/dse_frontier.jsonl target/dse-golden/dse_frontier.jsonl \
        || { echo "dse frontier golden: artifact differs" >&2; exit 1; }
    echo "dse frontier golden: OK (byte-identical)"
    echo "== fault-campaign artifact =="
    # The campaign artifact carries no wall-time events, so the golden is
    # compared byte-for-byte at the golden profile.
    VS_BENCH_SCALE=0.04 VS_BENCH_MAX_CYCLES=250000 \
        cargo run --release -q -p vs-bench --bin fault_campaign -- \
        --json target/fault_campaign.jsonl > /dev/null
    diff goldens/fault_campaign.jsonl target/fault_campaign.jsonl \
        || { echo "fault-campaign golden: artifact differs" >&2; exit 1; }
    echo "fault-campaign golden: OK"
    echo "== perf guards =="
    cargo bench -p vs-bench --bench perf
    echo "suite manifest artifact: target/sweep/manifest.jsonl"
    echo "tier-2 golden gate: OK"
    exit 0
fi

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== benchmark unit tests (builds against the vs-bench API) =="
cargo test -q --manifest-path benchmark/Cargo.toml

echo "== pooled workspace reuse + sharded-sweep determinism =="
cargo test --release -q -p vs-core --test workspace_reuse
cargo test --release -q -p vs-bench --test sweep_shard

echo "== sparse LU vs dense oracle + batched SoA solving + GPU trunks: differential + property + mask-fuzz + lockstep-lane + trunk-fork + trunk-group suites =="
cargo test --release -q -p vs-core --test sparse_vs_dense
cargo test --release -q -p vs-circuit --test batched_vs_scalar
cargo test --release -q -p vs-core --test lockstep_lanes
cargo test --release -q -p vs-core --test trunk_fork
cargo test --release -q -p vs-core --test trunk_group
cargo test --release -q -p vs-circuit --test lane_permutation
cargo test --release -q -p vs-circuit --test batched_mask_fuzz

echo "== zero-allocation guards: solver, rig, GPU and group hot paths, optimized =="
cargo test --release -q -p vs-core --test zero_alloc

echo "== chaos smoke: panic/stall/torn-write survival + journaled resume =="
cargo test --release -q -p vs-bench --test chaos
cargo test --release -q -p vs-bench --test resume
cargo test --release -q -p vs-bench --test campaign_jobs

echo "== observability: traced chaos sweep, run report, baseline diff, stage profile =="
cargo test --release -q -p vs-bench --test trace_report
# What the benchmark's stage probe assumes, on the optimized build it runs:
# telemetry leaves a run's report untouched and records one stages event.
cargo test --release -q -p vs-core --test telemetry

echo "== dse: determinism matrix, torn-write resume, shared-run oracle, frontier claims =="
cargo test --release -q -p vs-bench --test dse
# Tiny grid: the frontier claims (paper cell non-dominated) must pass.
rm -rf target/dse-smoke
cargo run --release -q -p vs-bench --bin dse -- \
    --profile tiny --out target/dse-smoke --progress off > /dev/null
# Resume the journaled run through the binary: every point replays, the
# trace counts the replays, and the frontier (less its wall-time `stages`
# line) comes out byte-identical.
SMOKE_FRONTIER=$(grep -v '^{"type":"stages"' target/dse-smoke/dse_frontier.jsonl)
DSE_RESUME=$(target/release/dse --profile tiny --resume target/dse-smoke \
    --trace --progress off 2>&1 > /dev/null)
grep -qF '(0 computed, 12 replayed)' <<< "$DSE_RESUME" \
    || { echo "dse resume smoke: expected 12 replayed points: $DSE_RESUME" >&2; exit 1; }
grep -qF '"executor.replays":12' target/dse-smoke/trace.json \
    || { echo "dse resume smoke: trace.json does not count 12 replays" >&2; exit 1; }
diff <(echo "$SMOKE_FRONTIER") \
    <(grep -v '^{"type":"stages"' target/dse-smoke/dse_frontier.jsonl) \
    || { echo "dse resume smoke: resumed frontier differs" >&2; exit 1; }
# Full 1728-point grid at the tiny profile, once on one worker and once on
# every core: the shared runs must land the same frontier bytes, and the
# plan the same run, lane and trunk counters, whatever the schedule.
DSE_J1=$(cargo run --release -q -p vs-bench --bin dse -- \
    --grid full --profile tiny --deterministic --jobs 1 \
    --out target/dse-full-j1 --progress off 2>&1 > /dev/null)
DSE_J0=$(cargo run --release -q -p vs-bench --bin dse -- \
    --grid full --profile tiny --deterministic --jobs 0 \
    --out target/dse-full --progress off 2>&1 > /dev/null)
cmp target/dse-full-j1/dse_frontier.jsonl target/dse-full/dse_frontier.jsonl
dse_counters() { grep -E '^\[dse\] (runs|lanes|trunks):' <<< "$1" || true; }
[[ $(dse_counters "$DSE_J1" | wc -l) -eq 3 ]] \
    || { echo "dse smoke: missing [dse] counter lines" >&2; exit 1; }
diff <(dse_counters "$DSE_J1") <(dse_counters "$DSE_J0") \
    || { echo "dse smoke: counters differ between jobs 1 and all cores" >&2; exit 1; }
echo "dse smoke (tiny grid, its journaled resume, full grid at jobs 1 and all cores; identical frontiers and counters): OK"

echo "== diff-baseline self-check =="
# The regression gate must accept a store (or one artifact file) against
# itself and reject a tolerance-violating perturbation with a nonzero exit.
SWEEP=target/release/sweep
"$SWEEP" diff-baseline goldens goldens > /dev/null \
    || { echo "diff-baseline rejected goldens against themselves" >&2; exit 1; }
echo "diff-baseline goldens vs goldens: OK (exit 0)"
PERTURBED=$(mktemp -d)
trap 'rm -rf "$PERTURBED"' EXIT
cp goldens/*.jsonl "$PERTURBED"/
sed -i 's/"pde_avg{pds=ivr}":0\./"pde_avg{pds=ivr}":9./' "$PERTURBED/fig8.jsonl"
if "$SWEEP" diff-baseline goldens "$PERTURBED" > /dev/null 2>&1; then
    echo "diff-baseline accepted a perturbed candidate" >&2
    exit 1
fi
echo "diff-baseline perturbed candidate: OK (nonzero exit)"
"$SWEEP" diff-baseline goldens/fig8.jsonl goldens/fig8.jsonl > /dev/null 2>&1 \
    || { echo "diff-baseline rejected fig8.jsonl against itself" >&2; exit 1; }
echo "diff-baseline fig8.jsonl vs itself: OK (exit 0)"
if "$SWEEP" diff-baseline goldens/fig8.jsonl "$PERTURBED/fig8.jsonl" > /dev/null 2>&1; then
    echo "diff-baseline accepted a perturbed candidate file" >&2
    exit 1
fi
echo "diff-baseline perturbed candidate file: OK (nonzero exit)"

echo "== serve smoke: stdio session, content-addressed cache hit =="
# Two cold processes against one store: the first computes and journals,
# the second must answer `cached` and a byte-identical `done` line (the
# concurrency and torn-entry halves of the contract live in the serve and
# cli_contract test suites above; the TCP transport's warm latency,
# connection cap and hostile lines in serve_tcp).
cargo test --release -q -p vs-bench --test serve
cargo test --release -q -p vs-bench --test serve_tcp
cargo test --release -q -p vs-bench --test cli_contract
SERVE=target/release/serve
SERVE_STORE=$(mktemp -d)
SERVE_REQ='{"id":"s1","kind":"experiment","experiment":"table1"}
{"id":"s2","kind":"shutdown"}'
FIRST=$(printf '%s\n' "$SERVE_REQ" | "$SERVE" --stdio --profile tiny \
    --store "$SERVE_STORE" --progress off 2> /dev/null)
SECOND=$(printf '%s\n' "$SERVE_REQ" | "$SERVE" --stdio --profile tiny \
    --store "$SERVE_STORE" --progress off 2> /dev/null)
rm -rf "$SERVE_STORE"
grep -q '"name":"running"' <<< "$FIRST" \
    || { echo "serve smoke: first run did not compute" >&2; exit 1; }
grep -q '"name":"cached"' <<< "$SECOND" \
    || { echo "serve smoke: second run missed the store" >&2; exit 1; }
diff <(grep '"name":"done"' <<< "$FIRST") <(grep '"name":"done"' <<< "$SECOND") \
    || { echo "serve smoke: responses diverged" >&2; exit 1; }
echo "serve smoke (cold-store cache hit, byte-identical response): OK"

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "tier-1 gate: OK"
