#!/usr/bin/env bash
# Repo-wide quality gate. Run from anywhere; exits non-zero on the first
# failure. This is what CI (and reviewers) should run before merging:
#
#   1. rustfmt          — formatting must be canonical (`--check`, no writes)
#   2. clippy           — whole workspace incl. tests and examples, warnings fatal
#   3. tier-1 gate      — release build + full test suite
#   3b. benchmark build  — the repository benchmark (`perfbench/`, its own
#                         Cargo package outside the workspace) builds
#                         against the current crates and passes its
#                         self-tests, so a crate change that breaks the
#                         benchmark fails here
#   4. examples         — every example must build *and* run to completion
#   5. determinism      — the portfolio engine's worker-count-invariance
#                         suite, the default line-up's guard (min-max
#                         winner without MC ≡ the five-member race's),
#                         the batch-evaluation suite (eval_many ≡
#                         scratch evaluate bitwise + pinned solver goldens,
#                         plus the goldens for SSS windows 2/3/5/6, MC on
#                         spare tiles and 2 workers, SA restarts, the SSS
#                         telemetry goldens, and the differential oracles:
#                         window kernel ≡ apply→revert search, BnB ≡ brute
#                         force, MaxMinBalance and failed-link latencies
#                         ≡ naive recomputations),
#                         the simulator's golden-report suite
#                         (Bernoulli + geometric injection, the 48
#                         fingerprinted random configurations, the
#                         16 deferred-transfer corners, the
#                         torus heatmap's wrap-link accounting) plus
#                         the vendored rand's Bernoulli coin ≡ the
#                         float gen_bool test on boundary words, the
#                         online-remap controller's pinned decision
#                         sequence, the placement search's pinned
#                         exhaustive win + TM-vs-simulator agreement
#                         and the allocation budgets of one SSS pass
#                         and one 4×4 placement candidate,
#                         the simulation bridge every experiment
#                         shares (probed ≡ plain, observed runs
#                         reconcile with their report),
#                         and the compact-trace suite (bitset epoch
#                         series ≡ the materialising generator on
#                         C1–C8 at three seeds: per-epoch values,
#                         bitwise means, Table 3 statistics, window
#                         means; golden workload-rate fingerprints),
#                         all in release mode (optimizations change
#                         f64 codegen timing, never the pinned bit
#                         patterns)
#   6. CLI smoke        — `obm gen` honors every seed (the output
#                         for --seed 18446744073709551615 differs
#                         from the default seed's), and
#                         the observability subcommands (`experiments
#                         heatmap --json`, `experiments trace --chrome`)
#                         run on a generated C1 instance; the emitted
#                         JSON is arithmetic-checked (heatmap link
#                         conservation, chrome measured-event count =
#                         delivered) and the heatmap output must be
#                         byte-identical across two same-seed runs;
#                         the metrics surface (`--metrics` on simulate/
#                         solve + `obm status`) is smoke-tested the same
#                         way: family grep on the Prometheus text
#                         (sim_router_steps_total included) and
#                         byte-determinism across two same-seed runs
#                         under OBM_METRICS_CLOCK=logical, of the
#                         snapshots and of the printed stdout of the
#                         default `obm solve` race and `obm experiments
#                         validate --fast` (every printed rate is read
#                         from spans, which that clock zeroes); the removed
#                         `experiments --shards` option must exit 2
#                         with a usage error, not panic or run;
#                         robustness smoke: `obm solve` on a one-tile
#                         chip finishes under `timeout 20`, `obm exact`
#                         on it prints no NaN or inf, and a spec
#                         with a zero-volume app and `obm latency
#                         --mesh 0` exit 2
#   6a. resume smoke     — `obm solve --checkpoint` writes a checkpoint,
#                         one of its mappings gets a repeated tile, and
#                         `obm solve --resume` must exit 0, re-running
#                         the damaged task and resuming the intact one;
#                         line-up smoke: the default `obm solve` race
#                         follows the objective — 4 tasks and no MC row
#                         under min-max-apl on one seed, 5 tasks with
#                         one MC row under `--objective energy`;
#                         shared-pass smoke: the default four-seed
#                         race runs one SSS pass
#                         (portfolio_sss_passes_total = 1)
#   7. panic gate       — no new unwrap()/assert!/panic! in the non-test
#                         portions of noc-sim's config/network/traffic
#                         constructor paths (typed ConfigError), the
#                         portfolio engine (typed RequestError/
#                         CheckpointError), the CLI spec parser (typed
#                         SpecError), noc-telemetry's histogram/
#                         heatmap observers (probes must never abort a
#                         simulation), the batched evaluation engine
#                         (the parallel path must degrade, not abort),
#                         the fork–join pool every parallel solve runs
#                         through (obm_core::pool: an item's panic is
#                         re-raised as is, never replaced by a new one),
#                         the Objective implementations and the
#                         online remap controller (typed RemapError;
#                         a mid-run controller must never abort a
#                         simulation), the ChipLayout/placement
#                         constructors and the outer placement search
#                         (typed PlacementError), or the
#                         noc-metrics registry (a metrics write must
#                         never abort the run it observes — poisoned
#                         locks are recovered, snapshot parsing
#                         returns SnapshotError)
#
# The tier-1 commands match ROADMAP.md; `--workspace` matters because the
# root package is a facade crate and a bare `cargo build` would silently
# skip obm-bench and the vendored crates.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release --workspace

echo "==> tier-1: cargo test -q"
cargo test -q --workspace

echo "==> benchmark build + self-tests (perfbench)"
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "==> examples: build and run every example"
cargo build --release --workspace --examples
for ex in quickstart simulate_mapping app_consolidation custom_chip \
    np_reduction qos_priorities portfolio_solve noc_observability \
    online_remap placement_search runtime_metrics; do
    echo "--> example: $ex"
    cargo run --quiet --release --example "$ex" >/dev/null
done
echo "--> example: report_dump (noc-sim)"
cargo run --quiet --release -p noc-sim --example report_dump >/dev/null

echo "==> portfolio determinism suite (release)"
# The engine's contract — bit-identical outcome for any worker count — is
# pinned by unit tests in obm-portfolio and by the facade integration
# tests (proptest 1-worker == sequential best-of; pinned 1/2/4-worker
# equality on the 8x8 paper instance). Run them in release too: the f64
# codegen that optimizations pick must not change the pinned bits.
cargo test -q --release -p obm-portfolio
cargo test -q --release --test portfolio
# The objective-aware default line-up: without MC the min-max race keeps
# the five-member race's winner bit for bit (release adds workload seeds).
cargo test -q --release --test portfolio_lineup

echo "==> batch-evaluation determinism suite (release)"
# The batched SoA engine's contract — eval_many bit-identical to the
# scratch evaluator, worker-count-invariant parallel path, and solver
# goldens pinned to their pre-rewire bits — must hold under release
# codegen (the autovectorized kernel is only emitted there). So must the
# SSS window kernel's bit-identity to the apply→revert search it
# replaced, which the differential oracles check on random instances.
cargo test -q --release --test eval_batch
cargo test -q --release --test solver_goldens
cargo test -q --release --test oracles

echo "==> simulator determinism suite (release)"
# The pinned golden SimReports — the default Bernoulli stream (unchanged
# since PR 1) and the geometric-injection goldens with their exact
# window spans across fast-forwarded regions — must hold under release
# codegen too, as must the fingerprints of 48 random configurations
# (sleeping routers, threshold-table arrivals), the 16 deferred-transfer
# corners (zero-cycle links and zero router stages, where applying a
# delivery or credit mid-pass would show) and the torus heatmap's
# wrap-link accounting. The Bernoulli coin behind the arrival tables
# must match the float gen_bool test it replaced, word for word.
cargo test -q --release --test sim_determinism
cargo test -q --release -p rand

echo "==> simulation bridge suite (release)"
# The bridge helpers every experiment shares: a probed run bit-identical
# to the plain run of the same seed, observed runs reconciling with their
# report, geometric injection agreeing with Bernoulli on C1.
cargo test -q --release -p obm-bench sim_bridge

echo "==> compact-trace suite (release)"
# Epoch traces are stored one bit per epoch; the suite replays the
# materialising generator they replaced on C1–C8 at the default seeds and
# seeds 1 and 2014 (plus the 4×4 place mix) and requires identical
# per-epoch values, bitwise-equal means, Table 3 statistics and
# RateMonitor window means, a ≤ 1 MB heap per trace set, and the pinned
# workload-rate fingerprints.
cargo test -q --release --test traces

echo "==> online-remap determinism suite (release)"
# The closed-loop controller's decision sequence (remap cycles + final
# mapping for the pinned seed) and the headline drifting-workload win
# must replay bit-identically under release codegen.
cargo test -q --release --test remap

echo "==> placement determinism suite (release)"
# The outer placement search's contract — pinned exhaustive win over the
# corner default, D4 canonical-orbit count, bit-identical reruns from a
# fixed seed, and the analytic-vs-simulator TM agreement for arbitrary
# layouts — must hold under release codegen too.
cargo test -q --release --test placement
# The allocation budgets of one SSS pass and of one exhaustive 4×4
# placement candidate (DESIGN.md §13.7), counted by a global allocator;
# the release figures are the ones users' builds run.
cargo test -q --release --test alloc_budget

echo "==> metrics purity suite (release)"
# The noc-metrics registry's contract — metrics-on runs bit-identical to
# metrics-off (simulator report + portfolio mapping), lossless snapshot
# round-trips through both export formats, and byte-deterministic
# logical-clock exports — must hold under release codegen too.
cargo test -q --release --test metrics
cargo test -q --release -p noc-metrics

echo "==> CLI observability smoke: heatmap + chrome-trace JSON"
# Run the spatial-observability subcommands end to end on a generated C1
# instance and re-derive the invariants the test suite pins — in shell,
# against the actual shipped JSON, so a serialization regression that
# unit tests cannot see (key renames, float formatting) still fails CI.
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
obm=target/release/obm
cargo build --release -q -p obm-cli
# Every u64 is a seed: the largest must not fall back to the default.
"$obm" gen C1 > "$smokedir/c1_default.spec"
"$obm" gen C1 --seed 18446744073709551615 > "$smokedir/c1_max.spec"
! cmp -s "$smokedir/c1_default.spec" "$smokedir/c1_max.spec" \
    || { echo "obm gen --seed 18446744073709551615 printed the default-seed spec"; exit 1; }
echo "--> gen: the largest seed is honored"
"$obm" gen C1 --seed 1 > "$smokedir/c1.spec"
"$obm" experiments heatmap "$smokedir/c1.spec" --cycles 2000 --json \
    --out "$smokedir/heat.json"
"$obm" experiments heatmap "$smokedir/c1.spec" --cycles 2000 --json \
    --out "$smokedir/heat2.json"
cmp -s "$smokedir/heat.json" "$smokedir/heat2.json" \
    || { echo "heatmap JSON differs across two same-seed runs"; exit 1; }
# Link conservation: the heatmap's per-link sum must equal the report's
# global traversal counter, both present at fixed keys in the JSON.
total=$(grep -o '"link_flit_traversals":[0-9]*' "$smokedir/heat.json" | cut -d: -f2)
heat=$(grep -o '"total_link_flits":[0-9]*' "$smokedir/heat.json" | cut -d: -f2)
[[ -n "$total" && "$total" == "$heat" ]] \
    || { echo "heatmap link conservation broken: report=$total heatmap=$heat"; exit 1; }
echo "--> heatmap: deterministic, $total flit traversals conserved"
"$obm" experiments trace "$smokedir/c1.spec" --chrome --cycles 2000 \
    --window 500 --out "$smokedir/c1.trace.json"
grep -q '"traceEvents"' "$smokedir/c1.trace.json" \
    || { echo "chrome trace missing traceEvents"; exit 1; }
# Every delivered (measured) packet is exactly one chrome "X" event with
# "measured":true — the counter in the metadata block must agree.
delivered=$(grep -o '"delivered":[0-9]*' "$smokedir/c1.trace.json" | cut -d: -f2)
measured=$(grep -o '"measured":true' "$smokedir/c1.trace.json" | wc -l)
[[ -n "$delivered" && "$delivered" -eq "$measured" ]] \
    || { echo "chrome trace drift: metadata delivered=$delivered, measured X events=$measured"; exit 1; }
echo "--> chrome trace: $measured measured packet events = delivered"

echo "==> CLI metrics smoke: --metrics export + obm status"
# Drive the metrics surface end to end against the shipped binary: a
# seeded simulate and a seeded solve export Prometheus snapshots under
# the logical clock (all wall-derived values zeroed), which must be
# byte-identical across two same-seed runs; the expected metric
# families from both subsystems must be present; and `obm status` must
# merge and render the snapshots.
OBM_METRICS_CLOCK=logical "$obm" simulate "$smokedir/c1.spec" --cycles 2000 \
    --metrics "$smokedir/sim.prom" >/dev/null
OBM_METRICS_CLOCK=logical "$obm" simulate "$smokedir/c1.spec" --cycles 2000 \
    --metrics "$smokedir/sim2.prom" >/dev/null
cmp -s "$smokedir/sim.prom" "$smokedir/sim2.prom" \
    || { echo "metrics snapshot differs across two same-seed logical-clock runs"; exit 1; }
for family in sim_runs_total sim_cycles_total sim_injected_packets_total \
    sim_delivered_packets_total sim_link_flit_traversals_total \
    sim_router_steps_total; do
    grep -q "^$family " "$smokedir/sim.prom" \
        || { echo "metrics family $family missing from simulate snapshot"; exit 1; }
done
# Every sampled phase span counts each executed cycle, as its sum
# `sim/serial/cycle` does.
span_count() {
    sed -n "s|^obm_span_nanos_count{span=\"$1\"} ||p" "$smokedir/sim.prom"
}
cycles=$(span_count sim/serial/cycle)
[[ -n "$cycles" && "$cycles" -gt 0 ]] \
    || { echo "sim/serial/cycle span missing from simulate snapshot"; exit 1; }
for phase in generate inject route traverse telemetry; do
    [[ "$(span_count "sim/$phase")" == "$cycles" ]] \
        || { echo "sim/$phase span count differs from sim/serial/cycle ($cycles)"; exit 1; }
done
OBM_METRICS_CLOCK=logical "$obm" solve "$smokedir/c1.spec" --algos sss,greedy \
    --seeds 0 --metrics "$smokedir/solve.prom" >/dev/null
for family in portfolio_solves_total portfolio_tasks_total \
    portfolio_evals_total portfolio_sss_passes_total portfolio_workers; do
    grep -q "^$family " "$smokedir/solve.prom" \
        || { echo "metrics family $family missing from solve snapshot"; exit 1; }
done
# Printed rates are work ÷ span time read from the registry, so under the
# logical clock two same-seed runs print the same bytes too.
for run in 1 2; do
    OBM_METRICS_CLOCK=logical "$obm" solve "$smokedir/c1.spec" \
        --metrics "$smokedir/race$run.prom" > "$smokedir/race$run.txt"
    OBM_METRICS_CLOCK=logical "$obm" experiments validate --fast \
        --metrics "$smokedir/validate$run.prom" > "$smokedir/validate$run.txt"
done
cmp "$smokedir/race1.txt" "$smokedir/race2.txt" \
    || { echo "obm solve stdout differs across two same-seed logical-clock runs"; exit 1; }
cmp "$smokedir/validate1.txt" "$smokedir/validate2.txt" \
    || { echo "experiments validate stdout differs across two logical-clock runs"; exit 1; }
"$obm" status "$smokedir/sim.prom" "$smokedir/solve.prom" > "$smokedir/status.txt"
grep -q "2 snapshots merged" "$smokedir/status.txt" \
    || { echo "obm status did not merge both snapshots"; exit 1; }
grep -q "sim_cycles_total" "$smokedir/status.txt" \
    || { echo "obm status dashboard missing sim counters"; exit 1; }
echo "--> metrics: deterministic logical-clock snapshots and printouts, status renders $(wc -l < "$smokedir/status.txt") lines"

echo "==> CLI usage smoke: experiments --shards is rejected"
# The row-band shard engine and its knobs are gone (DESIGN.md §16.5); the
# old flag must be a usage error (exit 2), never a panic or a silent run.
experiments=target/release/experiments
set +e
"$experiments" validate --fast --shards 2 >"$smokedir/shards.out" 2>"$smokedir/shards.err"
status=$?
set -e
[[ "$status" -eq 2 ]] \
    || { echo "experiments --shards 2 exited $status, expected 2"; exit 1; }
grep -q "^usage: experiments" "$smokedir/shards.err" \
    || { echo "experiments --shards 2 printed no usage line"; exit 1; }
[[ ! -s "$smokedir/shards.out" ]] \
    || { echo "experiments --shards 2 ran an experiment"; exit 1; }
echo "--> usage: --shards exits 2 with the usage line"

echo "==> CLI robustness smoke: degenerate inputs end or exit 2"
# A one-tile chip leaves SA no pair of tiles to swap; the default race
# (SA and SSS+SA included) must still finish. A spec whose app has only
# zero-rate threads and a zero-sized latency grid are usage errors
# (exit 2), not panics (exit 101).
printf 'mesh 1 1\napp solo 1\nthread 1.0 0.1\n' > "$smokedir/one.spec"
timeout 20 "$obm" solve "$smokedir/one.spec" > "$smokedir/one.txt" \
    || { echo "obm solve on a one-tile chip did not finish in 20 s (exit $?)"; exit 1; }
grep -q "termination: completed" "$smokedir/one.txt" \
    || { echo "obm solve on a one-tile chip did not complete its race"; exit 1; }
# Its proven optimum is 0, so `obm exact` has no relative gap to print.
"$obm" exact "$smokedir/one.spec" > "$smokedir/one_exact.txt"
! grep -qiE 'nan|inf' "$smokedir/one_exact.txt" \
    || { echo "obm exact on a one-tile chip printed NaN or inf"; cat "$smokedir/one_exact.txt"; exit 1; }
printf 'mesh 2 2\napp busy 1\nthread 1 0.1\napp idle 2\nthread 0 0\nthread 0 0\n' \
    > "$smokedir/zero.spec"
expect_exit_2() {
    local what=$1
    shift
    set +e
    "$@" >/dev/null 2>"$smokedir/usage.err"
    local status=$?
    set -e
    [[ "$status" -eq 2 ]] \
        || { echo "$what exited $status, expected 2"; cat "$smokedir/usage.err"; exit 1; }
}
expect_exit_2 "obm solve on a zero-volume app" "$obm" solve "$smokedir/zero.spec"
grep -q "'idle'" "$smokedir/usage.err" \
    || { echo "zero-volume error does not name the app"; exit 1; }
expect_exit_2 "obm latency --mesh 0" "$obm" latency --mesh 0
echo "--> robustness: one-tile solve and exact finished, zero-volume spec and --mesh 0 exit 2"

echo "==> CLI resume smoke: a damaged checkpoint entry is re-run"
# A checkpoint mapping that repeats a tile must be rejected entry by
# entry (typed Mapping::try_new) and re-run, never abort the solve.
"$obm" solve "$smokedir/c1.spec" --algos sss,greedy --seeds 0 \
    --checkpoint "$smokedir/cp.json" >/dev/null
sed -E 's/"mapping":\[([0-9]+),[0-9]+/"mapping":[\1,\1/' "$smokedir/cp.json" \
    > "$smokedir/cp_dup.json"
! cmp -s "$smokedir/cp.json" "$smokedir/cp_dup.json" \
    || { echo "resume smoke: failed to damage the checkpoint"; exit 1; }
"$obm" solve "$smokedir/c1.spec" --algos sss,greedy --seeds 0 \
    --resume "$smokedir/cp_dup.json" > "$smokedir/resume.txt" \
    || { echo "obm solve --resume exited $? on a repeated-tile checkpoint"; exit 1; }
resumed=$(grep -c '(resumed)' "$smokedir/resume.txt" || true)
[[ "$resumed" -eq 1 ]] \
    || { echo "resume smoke: expected 1 resumed task, got $resumed"; exit 1; }
echo "--> resume: damaged entry re-ran, intact entry resumed"

echo "==> CLI line-up smoke: the default portfolio follows the objective"
# Monte Carlo never wins a min-max race, so the default min-max line-up
# leaves it out; max-min-balance and energy keep it (DESIGN.md §10.5).
lineup_check() {
    local want_tasks=$1 want_mc=$2 out=$3
    grep -q "^portfolio: $want_tasks task(s)" "$out" \
        || { echo "line-up smoke: expected $want_tasks tasks in $out"; exit 1; }
    local mc
    mc=$(grep -cE '^ +[0-9]+ +MC ' "$out" || true)
    [[ "$mc" -eq "$want_mc" ]] \
        || { echo "line-up smoke: expected $want_mc MC rows in $out, got $mc"; exit 1; }
}
"$obm" solve "$smokedir/c1.spec" --seeds 0 > "$smokedir/lineup_minmax.txt"
lineup_check 4 0 "$smokedir/lineup_minmax.txt"
"$obm" solve "$smokedir/c1.spec" --seeds 0 --objective energy > "$smokedir/lineup_energy.txt"
lineup_check 5 1 "$smokedir/lineup_energy.txt"
echo "--> line-up: min-max races 4 tasks without MC, energy 5 with MC"

echo "==> CLI shared-pass smoke: one SSS pass per default race"
# SSS ignores its seed, so the default four-seed race runs one SSS pass
# and hands it to the SSS task and all four SSS+SA hybrids (DESIGN.md
# §10.6); portfolio_sss_passes_total counts the passes that ran.
"$obm" solve "$smokedir/c1.spec" --metrics "$smokedir/shared.prom" \
    > "$smokedir/shared.txt"
hybrids=$(grep -cE '^ +[0-9]+ +SSS\+SA ' "$smokedir/shared.txt" || true)
[[ "$hybrids" -eq 4 ]] \
    || { echo "shared-pass smoke: expected 4 SSS+SA rows, got $hybrids"; exit 1; }
passes=$(grep -E '^portfolio_sss_passes_total ' "$smokedir/shared.prom" | cut -d' ' -f2)
[[ "$passes" == "1" ]] \
    || { echo "shared-pass smoke: expected 1 SSS pass, got '$passes'"; exit 1; }
echo "--> shared pass: 1 SSS pass served the SSS task and $hybrids hybrids"

echo "==> panic gate: error-typed constructor and solver paths"
# SimConfig::validate(), TrafficSpec::new() and Network::new() report bad
# input through typed ConfigError values; the portfolio engine reports
# through RequestError/CheckpointError and degrades to its greedy
# fallback instead of panicking; the CLI spec parser returns SpecError;
# the ChipLayout/MemoryControllers constructors and the outer placement
# search report through PlacementError.
# Reintroducing unwrap()/assert!/panic! in the non-test portions of these
# files would silently bring panicking paths back, so fail on any
# occurrence outside the #[cfg(test)] module and doc comments
# (debug_assert! is fine). Files without a test module are scanned whole.
for f in crates/noc-sim/src/config.rs crates/noc-sim/src/network.rs \
    crates/noc-sim/src/traffic.rs \
    crates/noc-telemetry/src/histogram.rs crates/noc-telemetry/src/heatmap.rs \
    crates/portfolio/src/*.rs crates/cli/src/spec.rs \
    crates/obm-core/src/batch.rs crates/obm-core/src/pool.rs \
    crates/obm-core/src/objective.rs crates/obm-core/src/remap.rs \
    crates/noc-model/src/layout.rs crates/noc-model/src/placement.rs \
    crates/obm-core/src/placement.rs crates/noc-metrics/src/*.rs; do
    cut=$(grep -n '#\[cfg(test)\]' "$f" | head -1 | cut -d: -f1 || true)
    cut=${cut:-$(( $(wc -l < "$f") + 1 ))}
    if hits=$(head -n $((cut - 1)) "$f" \
        | grep -vE '^[[:space:]]*//[/!]' \
        | grep -E '\.unwrap\(\)|(^|[^_.[:alnum:]])(assert!|assert_eq!|assert_ne!|panic!)'); then
        echo "panicking call in non-test portion of $f:"
        echo "$hits"
        exit 1
    fi
done

echo "All checks passed."
