#!/usr/bin/env bash
# Snapshot the criterion benchmarks into a machine-readable JSON file.
#
#   scripts/bench_snapshot.sh [BENCH]... [-o OUT.json]
#   BENCH_PR=7 scripts/bench_snapshot.sh        # writes BENCH_PR7.json
#
# Runs `cargo bench -p obm-bench` for the named bench targets (default:
# noc_sim, the simulator hot loop) and parses the vendored criterion
# output — lines of the form
#
#   group/name    time:   12345 ns/iter (10 samples)
#
# into a flat JSON object mapping benchmark label to median ns/iter:
#
#   { "noc_sim/c1_8x8_10k_cycles": 12345, ... }
#
# The output path defaults to BENCH_PR${BENCH_PR}.json (the per-PR
# snapshot the PR description cites for before/after numbers); override
# with -o or the BENCH_PR env var. When the run contains both
# c1_8x8_10k_cycles and its _probed twin, a derived
# "probed_delta_pct/c1_8x8_10k_cycles" key records the observability
# overhead as a percentage of the unprobed median. When the run contains
# the eval_batch group, derived "speedup/eval_many_vs_scratch" (the
# buffer-recycling eval_many_into steady state) and
# "speedup/objectives_vs_scratch" keys record batched-vs-scratch
# evaluation throughput (×). When the run contains the remap_loadcurve
# group, a derived "controlled_delta_pct/steady_4x4_10k" key records
# the overhead of running under an armed-but-quiet RemapController as a
# percentage of the plain run's median. When the run contains the
# placement_outer_4x4 group, a derived "placement_gain_pct/outer_4x4"
# key records how far the exhaustive placement search's best layout
# undercuts the corner default's max-APL (the bench emits both as
# millicycle quality lines in the same label format as the timings).
# When the run contains load_48 (the saturated-load router hot loop), a
# derived "speedup/load_48_vs_pr8" key records the single-thread gain
# over the PR 8 baseline median (override the baseline with
# LOAD48_PR8_NS). When the run contains
# c1_8x8_10k_cycles and its _metrics twin, a derived
# "metrics_delta_pct/enabled" key prices the enabled metrics registry
# against the unprobed median, and "metrics_delta_pct/disabled" holds
# the unprobed median itself against the PR 9 baseline (override with
# C1_PR9_NS) — the disabled path is never-taken branches and must stay
# within noise (DESIGN.md §17 budgets: disabled <= 1%, enabled <= 10%).
# Every snapshot also records the host's core count under "meta/nproc"
# so pool numbers can be read in context.
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_PR${BENCH_PR:-10}.json"
benches=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    -o) out="$2"; shift 2 ;;
    *) benches+=("$1"); shift ;;
  esac
done
[[ ${#benches[@]} -gt 0 ]] || benches=(noc_sim)

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
for b in "${benches[@]}"; do
  echo "==> cargo bench -p obm-bench --bench $b" >&2
  cargo bench -p obm-bench --bench "$b" 2>&1 | tee -a "$raw" >&2
done

# criterion's stub prints:  <label>  time:  <ns> ns/iter (<n> samples)
awk -v nproc="$(nproc 2>/dev/null || echo 1)" \
    -v load48_pr8="${LOAD48_PR8_NS:-208283461}" \
    -v c1_pr9="${C1_PR9_NS:-19650431}" '
  / time: +[0-9]+ ns\/iter / {
    label = $1
    for (i = 2; i <= NF; i++) if ($i == "time:") { ns = $(i + 1); break }
    medians[label] = ns
    if (count++) printf ",\n"
    printf "  \"%s\": %s", label, ns
  }
  BEGIN { printf "{\n  \"meta/nproc\": %d", nproc; count = 1 }
  END {
    base = medians["noc_sim/c1_8x8_10k_cycles"]
    probed = medians["noc_sim/c1_8x8_10k_cycles_probed"]
    if (base > 0 && probed > 0)
      printf ",\n  \"probed_delta_pct/c1_8x8_10k_cycles\": %.2f",
        100.0 * (probed - base) / base
    scratch = medians["eval_batch/evaluate_scratch_1024"]
    batched = medians["eval_batch/eval_many_into_1024"]
    if (scratch > 0 && batched > 0)
      printf ",\n  \"speedup/eval_many_vs_scratch\": %.2f",
        scratch / batched
    objs = medians["eval_batch/objectives_into_1024"]
    if (scratch > 0 && objs > 0)
      printf ",\n  \"speedup/objectives_vs_scratch\": %.2f",
        scratch / objs
    plain = medians["remap_loadcurve/steady_4x4_10k_plain"]
    watched = medians["remap_loadcurve/steady_4x4_10k_watched"]
    if (plain > 0 && watched > 0)
      printf ",\n  \"controlled_delta_pct/steady_4x4_10k\": %.2f",
        100.0 * (watched - plain) / plain
    load48 = medians["noc_sim_uniform_8x8_10k/load_48"]
    if (load48 > 0 && load48_pr8 > 0)
      printf ",\n  \"speedup/load_48_vs_pr8\": %.2f",
        load48_pr8 / load48
    metered = medians["noc_sim/c1_8x8_10k_cycles_metrics"]
    if (base > 0 && metered > 0)
      printf ",\n  \"metrics_delta_pct/enabled\": %.2f",
        100.0 * (metered - base) / base
    if (base > 0 && c1_pr9 > 0)
      printf ",\n  \"metrics_delta_pct/disabled\": %.2f",
        100.0 * (base - c1_pr9) / c1_pr9
    corner = medians["placement_outer_4x4/corner_maxapl_millicycles"]
    best = medians["placement_outer_4x4/best_maxapl_millicycles"]
    if (corner > 0 && best > 0)
      printf ",\n  \"placement_gain_pct/outer_4x4\": %.2f",
        100.0 * (corner - best) / corner
    printf "\n}\n"
  }
' "$raw" > "$out"

echo "wrote $(grep -c ':' "$out") benchmark medians to $out" >&2
