#!/usr/bin/env bash
# Tensor-op benchmark driver: runs the tensor_ops microbenchmarks at
# TYXE_NUM_THREADS=1 and =N (default 4, override with TYXE_BENCH_THREADS)
# and collects per-case min/median/mean wall-clock times into
# results/BENCH_TENSOR.json:
#
#   { "date": …, "nproc": …, "threads": {
#       "1": { "<case>": {"min_ns":…, "median_ns":…, "mean_ns":…}, … },
#       "4": { … } } }
#
# Then re-runs just the full-SVI-step cases (TYXE_BENCH_FILTER=svi_step,
# from both the tensor_ops and inference bench binaries) at
# TYXE_NUM_THREADS=1 with the buffer pool off and on, and writes the
# pool-off/pool-on comparison — steps/sec, allocation counters, hit
# ratio, and the off→on speedup per case — to results/BENCH_SVI.json:
#
#   { "date": …, "nproc": …,
#     "pool_off": { "<case>": {"steps_per_sec":…, "median_ns":…,
#                              "pool_hit":…, "pool_miss":…, …}, … },
#     "pool_on":  { … },
#     "speedup":  { "<case>": <off_min / on_min>, … },
#     "speedup_vs_prev_commit": { "<case>": <HEAD min / on_min>, … },
#     "per_dtype": { "f64": { "<case>": <steps_per_sec>, … },
#                    "f32": { … }, "mixed": { … } },
#     "f32_speedup_vs_f64":   { "<base case>": <f64_min / f32_min>, … },
#     "mixed_speedup_vs_f64": { "<base case>": <f64_min / mixed_min>, … } }
#
# The per-dtype sections come from the benches' `_f32`/`_mixed` SVI-step
# variants (grouped by the harness's "dtype" JSON tag); the dtype
# speedups are same-run, same-commit ratios of the base (f64) case's
# min_ns to the reduced-precision variant's. BENCH_TENSOR.json likewise
# gains "f32_speedup_vs_f64" from every single-thread `<base>`/`<base>_f32`
# case pair in the tensor_ops run (the gemm_256x256x256 pair and the
# SVI-step cases).
#
# "speedup" isolates the allocator (both sides run this tree's fused
# kernels); "speedup_vs_prev_commit" compares the pool-on run against the
# single-thread times committed at HEAD in results/BENCH_TENSOR.json —
# the end-to-end effect of the PR that produced the run. Both ratios use
# min-of-samples: on the shared runner, medians absorb co-tenant noise
# that minima shrug off.
#
# The per-run JSON lines come from the in-tree harness's TYXE_BENCH_JSON
# hook (see crates/bench/src/harness.rs). The kernels are bit-identical
# at every thread count and with the pool on or off (see crates/tensor
# docs), so every comparison here measures scheduling and allocation
# only, never numerics.
#
# Usage: scripts/bench.sh [--fast]
#   --fast   TYXE_BENCH_FAST=1: one iteration per case, smoke-testing the
#            pipeline without producing meaningful timings.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fast" ]]; then
    export TYXE_BENCH_FAST=1
fi

threads_hi="${TYXE_BENCH_THREADS:-4}"
out="results/BENCH_TENSOR.json"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

CARGO_NET_OFFLINE=true cargo build --release --offline -p tyxe-bench --benches

runs=(1)
[[ "$threads_hi" != 1 ]] && runs+=("$threads_hi")
for t in "${runs[@]}"; do
    echo "== tensor_ops @ TYXE_NUM_THREADS=$t =="
    TYXE_NUM_THREADS="$t" TYXE_BENCH_JSON="$tmp/t$t.jsonl" CARGO_NET_OFFLINE=true \
        cargo bench --offline -p tyxe-bench --bench tensor_ops
done

# Reshape the harness's JSON lines ({"name":…,"min_ns":…,…} per case) into
# one nested object keyed by thread count, then by case name.
jsonl_to_members() {
    awk '
        NR > 1 { printf ",\n" }
        {
            match($0, /"name":"[^"]*"/)
            name = substr($0, RSTART + 7, RLENGTH - 7)
            rest = $0
            sub(/^\{"name":"[^"]*",/, "", rest)
            sub(/\}[[:space:]]*$/, "", rest)
            printf "      %s: {%s}", name, rest
        }
        END { printf "\n" }
    ' "$1"
}

# Per-dtype speedup: for every case named "<base>_<suffix>" (e.g.
# gemm_256x256x256_f32), the ratio of the base case's min_ns to the
# suffixed case's — both measured in the same run, so the ratio is a
# genuine same-commit, same-machine comparison.
dtype_speedups() {
    awk -v sfx="$2" '
        /\/pool"/ { next }
        /"min_ns":/ {
            match($0, /"name":"[^"]*"/)
            name = substr($0, RSTART + 8, RLENGTH - 9)
            match($0, /"min_ns":[0-9]+/)
            m[name] = substr($0, RSTART + 9, RLENGTH - 9) + 0
        }
        END {
            sep = ""
            for (name in m) {
                if (substr(name, length(name) - length(sfx) + 1) != sfx) continue
                base = substr(name, 1, length(name) - length(sfx))
                if (!(base in m) || m[name] == 0) continue
                printf "%s    \"%s\": %.3f", sep, base, m[base] / m[name]
                sep = ",\n"
            }
            printf "\n"
        }
    ' "$1"
}

mkdir -p results
{
    echo '{'
    echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"nproc\": $(nproc),"
    echo '  "threads": {'
    sep=''
    for t in "${runs[@]}"; do
        printf '%s' "$sep"
        sep=',
'
        echo "    \"$t\": {"
        jsonl_to_members "$tmp/t$t.jsonl"
        printf '    }'
    done
    echo
    echo '  },'
    echo '  "f32_speedup_vs_f64": {'
    dtype_speedups "$tmp/t1.jsonl" "_f32"
    echo '  }'
    echo '}'
} > "$out"

echo "bench: wrote $out"

# ---------------------------------------------------------------------------
# Full-SVI-step pool comparison: the same binaries, filtered down to the
# svi_step cases, once with the buffer pool disabled and once enabled.
# Single-threaded so the comparison isolates allocator behaviour.

svi_out="results/BENCH_SVI.json"
for pool in 0 1; do
    echo "== svi_step @ TYXE_NUM_THREADS=1 TYXE_POOL=$pool =="
    for bin in tensor_ops inference; do
        TYXE_NUM_THREADS=1 TYXE_POOL="$pool" TYXE_BENCH_FILTER=svi_step \
            TYXE_BENCH_JSON="$tmp/pool$pool.jsonl" CARGO_NET_OFFLINE=true \
            cargo bench --offline -p tyxe-bench --bench "$bin"
    done
done

# Group the pool-on "<case>/pool" lines by their dtype tag into
# per-dtype sections: { "f64": {"<case>": <steps_per_sec>, …}, "f32": …,
# "mixed": … }. Lines without a tag (older binaries) count as f64.
svi_per_dtype() {
    awk '
        /"name":"[^"]*\/pool"/ {
            match($0, /"name":"[^"]*"/)
            name = substr($0, RSTART + 8, RLENGTH - 9)
            sub(/\/pool$/, "", name)
            dt = "f64"
            if (match($0, /"dtype":"[^"]*"/))
                dt = substr($0, RSTART + 9, RLENGTH - 10)
            if (!match($0, /"steps_per_sec":[0-9.]+/)) next
            sps = substr($0, RSTART + 16, RLENGTH - 16)
            if (!(dt in seen)) { seen[dt]; dts[++k] = dt }
            cases[dt] = cases[dt] sprintf("%s      \"%s\": %s", \
                (cases[dt] ? ",\n" : ""), name, sps)
        }
        END {
            sep = ""
            for (i = 1; i <= k; i++) {
                dt = dts[i]
                printf "%s    \"%s\": {\n%s\n    }", sep, dt, cases[dt]
                sep = ",\n"
            }
            printf "\n"
        }
    ' "$1"
}

# Keep only the harness's "<case>/pool" report lines (steps/sec + pool
# counters; see bench_with_pool_stats) and re-key them by bare case name.
svi_members() {
    awk '
        !/"name":"[^"]*\/pool"/ { next }
        n++ { printf ",\n" }
        {
            match($0, /"name":"[^"]*"/)
            name = substr($0, RSTART + 7, RLENGTH - 7)
            sub(/\/pool"$/, "\"", name)
            rest = $0
            sub(/^\{"name":"[^"]*",/, "", rest)
            sub(/\}[[:space:]]*$/, "", rest)
            printf "    %s: {%s}", name, rest
        }
        END { printf "\n" }
    ' "$1"
}

# Per-case speedup vs the previous commit. Baseline preference per case:
# the single-thread min_ns committed at HEAD in results/BENCH_TENSOR.json
# (same min-of-samples statistic as this run's timing lines); cases the
# tensor record never carries — the inference bench's svi_step_full —
# fall back to the pool_on median_ns committed at HEAD in
# results/BENCH_SVI.json against this run's pool-on /pool median
# (median-vs-median, so the statistics still match). A case with no
# usable baseline, or a zero/absent measurement, emits an explicit
# null: consumers must see "no comparison", never a silently missing
# key.
prev_json="$(git show HEAD:results/BENCH_TENSOR.json 2>/dev/null || true)"
prev_svi_json="$(git show HEAD:results/BENCH_SVI.json 2>/dev/null || true)"
svi_vs_prev() {
    awk -v prev="$prev_json" -v prevsvi="$prev_svi_json" '
        BEGIN {
            n = split(prev, lines, "\n")
            for (i = 1; i <= n; i++) {
                line = lines[i]
                if (!match(line, /"[A-Za-z0-9_\/]+": \{"min_ns"/)) continue
                name = substr(line, RSTART + 1)
                sub(/": .*/, "", name)
                # First occurrence is the threads="1" section.
                if (name in base) continue
                if (match(line, /"min_ns":[0-9]+/))
                    base[name] = substr(line, RSTART + 9, RLENGTH - 9) + 0
            }
            # Fallback baselines: pool_on medians from the HEAD SVI record.
            m = split(prevsvi, slines, "\n")
            inpool = 0
            for (i = 1; i <= m; i++) {
                line = slines[i]
                if (line ~ /^  "pool_on": \{/) { inpool = 1; continue }
                if (inpool && line ~ /^  \}/) inpool = 0
                if (!inpool) continue
                if (!match(line, /"[A-Za-z0-9_]+": \{/)) continue
                name = substr(line, RSTART + 1, RLENGTH - 5)
                if (match(line, /"median_ns":[0-9]+/))
                    svibase[name] = substr(line, RSTART + 12, RLENGTH - 12) + 0
            }
        }
        # The /pool report lines carry this runs pool-on medians.
        /"name":"[^"]*\/pool"/ {
            match($0, /"name":"[^"]*"/)
            name = substr($0, RSTART + 8, RLENGTH - 9)
            sub(/\/pool$/, "", name)
            if (!(name in seen)) { seen[name]; names[++k] = name }
            if (match($0, /"median_ns":[0-9]+/))
                cur_med[name] = substr($0, RSTART + 12, RLENGTH - 12) + 0
            next
        }
        # The plain timing lines carry min_ns.
        /"min_ns":/ {
            match($0, /"name":"[^"]*"/)
            name = substr($0, RSTART + 8, RLENGTH - 9)
            if (!(name in seen)) { seen[name]; names[++k] = name }
            match($0, /"min_ns":[0-9]+/)
            cur_min[name] = substr($0, RSTART + 9, RLENGTH - 9) + 0
        }
        END {
            sep = ""
            for (i = 1; i <= k; i++) {
                name = names[i]
                if ((name in base) && cur_min[name] > 0)
                    printf "%s    \"%s\": %.3f", sep, name, base[name] / cur_min[name]
                else if ((name in svibase) && cur_med[name] > 0)
                    printf "%s    \"%s\": %.3f", sep, name, svibase[name] / cur_med[name]
                else
                    printf "%s    \"%s\": null", sep, name
                sep = ",\n"
            }
            printf "\n"
        }
    ' "$1"
}

# Per-case speedup: pool-off min over pool-on min.
svi_speedups() {
    awk '
        /"name":"[^"]*\/pool"/ { next }
        /"min_ns":/ {
            match($0, /"name":"[^"]*"/)
            name = substr($0, RSTART + 8, RLENGTH - 9)
            match($0, /"min_ns":[0-9]+/)
            min = substr($0, RSTART + 9, RLENGTH - 9) + 0
            if (FILENAME == ARGV[1]) off[name] = min
            else on[name] = min
        }
        END {
            sep = ""
            for (name in on) {
                if (!(name in off) || on[name] == 0) continue
                printf "%s    \"%s\": %.3f", sep, name, off[name] / on[name]
                sep = ",\n"
            }
            printf "\n"
        }
    ' "$1" "$2"
}

{
    echo '{'
    echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"nproc\": $(nproc),"
    echo '  "pool_off": {'
    svi_members "$tmp/pool0.jsonl"
    echo '  },'
    echo '  "pool_on": {'
    svi_members "$tmp/pool1.jsonl"
    echo '  },'
    echo '  "speedup": {'
    svi_speedups "$tmp/pool0.jsonl" "$tmp/pool1.jsonl"
    echo '  },'
    echo '  "speedup_vs_prev_commit": {'
    svi_vs_prev "$tmp/pool1.jsonl"
    echo '  },'
    echo '  "per_dtype": {'
    svi_per_dtype "$tmp/pool1.jsonl"
    echo '  },'
    echo '  "f32_speedup_vs_f64": {'
    dtype_speedups "$tmp/pool1.jsonl" "_f32"
    echo '  },'
    echo '  "mixed_speedup_vs_f64": {'
    dtype_speedups "$tmp/pool1.jsonl" "_mixed"
    echo '  }'
    echo '}'
} > "$svi_out"

echo "bench: wrote $svi_out"

# ---------------------------------------------------------------------------
# Distributed-SVI scaling: the elastic data-parallel runtime's steps/sec
# at 0 (in-process reference), 1, 2 and 4 worker processes, at a fixed
# logical shard count. The fit is bit-identical across the whole row
# (tests/determinism.rs), so the ratios measure pure transport and
# scheduling cost/benefit, never numerics. Written to
# results/BENCH_DIST.json:
#
#   { "date": …, "nproc": …, "steps": …,
#     "workers": { "0": {"shards":…, "steps_per_sec":…, "elapsed_ns":…}, … },
#     "speedup_vs_single_process": { "1": …, "2": …, "4": … },
#     "telemetry": { "workers": 4, "steps": …, "reps": 3,
#                    "off_steps_per_sec": …, "on_steps_per_sec": …,
#                    "overhead_pct": … } }
#
# The "telemetry" section re-runs the largest worker count with the full
# cross-process telemetry plane active (TYXE_OBS=1, merged trace +
# interval-batched span/metric shipping + flight recorder — DESIGN.md
# §14) and records the steps/sec cost against a telemetry-off twin,
# best-of-3 each side, at 4x the scaling runs' step count so worker
# spawn/shutdown fixed costs amortize out of the per-step comparison.
# The contract is <=5% overhead of steady-state step rate; the number
# is recorded, not asserted, so a noisy shared runner can't fail the
# bench.

dist_out="results/BENCH_DIST.json"
dist_steps=80
[[ -n "${TYXE_BENCH_FAST:-}" ]] && dist_steps=12
dist_workers=(0 1 2 4)

CARGO_NET_OFFLINE=true cargo build --release --offline -p tyxe --example distributed_svi

for w in "${dist_workers[@]}"; do
    echo "== distributed_svi --bench @ workers=$w =="
    # One {"name":"dist_svi_step",…} timing line plus the run's report
    # summaries; the assembly below keys on the JSON line only.
    TYXE_NUM_THREADS=1 target/release/examples/distributed_svi \
        --bench --workers "$w" --shards 4 --steps "$dist_steps" > "$tmp/dist$w.out"
    sed 's/^/  /' "$tmp/dist$w.out"
done

# Telemetry overhead: the largest worker count again, with the whole
# cross-process telemetry plane on — spans traced in every process,
# interval-batched span + metric shipping to the coordinator, flight
# recorder armed, and the merged artifacts actually written. Both arms
# run 3× and keep their best steps/sec (same min-of-samples reasoning
# as above: multi-process wall-clock on a shared box is noisy, minima
# are stable), at 4× the scaling runs' steps so spawn/shutdown fixed
# costs amortize out.
tel_workers="${dist_workers[-1]}"
tel_steps=$((dist_steps * 4))
tel_reps=3
[[ -n "${TYXE_BENCH_FAST:-}" ]] && tel_reps=1
for rep in $(seq "$tel_reps"); do
    echo "== distributed_svi --bench @ workers=$tel_workers, telemetry off vs on (rep $rep/$tel_reps) =="
    TYXE_NUM_THREADS=1 target/release/examples/distributed_svi \
        --bench --workers "$tel_workers" --shards 4 --steps "$tel_steps" \
        | grep '^{"name"' >> "$tmp/dist-tel-off.out"
    TYXE_NUM_THREADS=1 TYXE_OBS=1 target/release/examples/distributed_svi \
        --bench --workers "$tel_workers" --shards 4 --steps "$tel_steps" \
        --trace "$tmp/dist-tel.json" --metrics "$tmp/dist-tel.jsonl" \
        | grep '^{"name"' >> "$tmp/dist-tel-on.out"
done
paste -d' ' <(sed 's/^/  off: /' "$tmp/dist-tel-off.out") <(sed 's/^/on: /' "$tmp/dist-tel-on.out") || true

{
    echo '{'
    echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo "  \"nproc\": $(nproc),"
    echo "  \"steps\": $dist_steps,"
    echo '  "workers": {'
    sep=''
    for w in "${dist_workers[@]}"; do
        printf '%s' "$sep"
        sep=',
'
        awk -v w="$w" '
            /^\{"name":"dist_svi_step"/ {
                rest = $0
                sub(/^\{"name":"dist_svi_step","workers":[0-9]+,/, "", rest)
                sub(/\}[[:space:]]*$/, "", rest)
                printf "    \"%s\": {%s}", w, rest
            }
        ' "$tmp/dist$w.out"
    done
    echo
    echo '  },'
    echo '  "speedup_vs_single_process": {'
    awk '
        /^\{"name":"dist_svi_step"/ {
            match($0, /"workers":[0-9]+/)
            w = substr($0, RSTART + 10, RLENGTH - 10) + 0
            match($0, /"steps_per_sec":[0-9.]+/)
            sps[w] = substr($0, RSTART + 16, RLENGTH - 16) + 0
        }
        END {
            sep = ""
            for (w = 1; w <= 4; w++) {
                if (!(w in sps) || sps[0] == 0) continue
                printf "%s    \"%d\": %.3f", sep, w, sps[w] / sps[0]
                sep = ",\n"
            }
            printf "\n"
        }
    ' "$tmp"/dist[0-9]*.out
    echo '  },'
    echo '  "telemetry": {'
    awk -v w="$tel_workers" -v steps="$tel_steps" -v reps="$tel_reps" '
        /^\{"name":"dist_svi_step"/ {
            match($0, /"steps_per_sec":[0-9.]+/)
            sps = substr($0, RSTART + 16, RLENGTH - 16) + 0
            if (FILENAME ~ /dist-tel-on\.out$/) { if (sps > on) on = sps }
            else if (sps > off) off = sps
        }
        END {
            printf "    \"workers\": %d,\n", w
            printf "    \"steps\": %d,\n", steps
            printf "    \"reps\": %d,\n", reps
            printf "    \"off_steps_per_sec\": %.3f,\n", off
            printf "    \"on_steps_per_sec\": %.3f,\n", on
            if (on > 0)
                printf "    \"overhead_pct\": %.2f\n", (off / on - 1) * 100
            else
                printf "    \"overhead_pct\": null\n"
        }
    ' "$tmp/dist-tel-off.out" "$tmp/dist-tel-on.out"
    echo '  }'
    echo '}'
} > "$dist_out"

echo "bench: wrote $dist_out"
