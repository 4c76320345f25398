#!/usr/bin/env bash
# Tier-1 verification, hermetically: build and test the whole workspace
# with cargo forbidden from touching any registry or network.
#
# Usage: scripts/verify.sh [--fresh]
#   --fresh   wipe target/ first, proving a clean checkout builds offline.
#
# The workspace has zero external dependencies by policy (see DESIGN.md);
# any attempt to resolve a registry crate fails immediately under
# --offline + --frozen rather than hanging on an unreachable index.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fresh" ]]; then
    rm -rf target
fi

# Every public function has a caller. A `pub fn`, `pub const` or `pub
# static` under crates/*/src, or a method declared in a `pub trait`
# there, must be named by non-unit-test code: each crates/*/src file up
# to its first `#[cfg(test)]`, and examples/, tests/, crates/*/tests/ and
# benchmark/src/ whole. `//` comments and `use` statements are dropped,
# and a definition (`fn NAME`, an impl's method included, `const NAME:`,
# `static NAME:`) is not a use. It is a name rule: a dead item whose name
# is common slips through, a live one is never flagged. Text only, so it
# runs before the build.
#
# The allow-list is the public API the paper names that only unit tests
# reach, `path:name` and the reason, one a line. It stays under 30
# entries, and an entry the scan no longer flags fails the step too.
echo "verify: every public function, constant and trait method has a non-test caller"
reach_allow='
crates/core/src/bnn.rs:with_estimator  TyXe fit(closed_form_kl=False): the pathwise Trace ELBO in place of the closed-form-KL default
crates/core/src/vcl.rs:bayesian_sample_sites  tyxe.util.pyro_sample_sites: the site names Sec. 5 (VCL) walks
crates/core/src/mc_dropout.rs:fixed_dropout  Sec. D: MC dropout with one mask fixed across the batch and passes, as a handler
'
reach_src() {
    for f in $(find crates/*/src -name '*.rs' | sort); do
        sed '/^[[:space:]]*#\[cfg(test)\]/,$d' "$f" | sed "s|^|$f\t|"
    done
}
# Candidates, `path:line:name`: public items, and the methods of a public
# trait (a `fn` at the trait body's top level, found by brace depth).
reach_cands=$(reach_src | awk -F'\t' '
    $1 != file { file = $1; n = 0; intrait = 0; depth = 0 }
    {
        n++; line = substr($0, length($1) + 2)
        if (match(line, /^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+|extern[[:space:]]+"[^"]*"[[:space:]]+)*fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH); sub(/.*fn[[:space:]]+/, "", name); print file ":" n ":" name
        } else if (match(line, /^[[:space:]]*pub[[:space:]]+(const|static)[[:space:]]+(mut[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*[[:space:]]*:/)) {
            name = substr(line, RSTART, RLENGTH); sub(/[[:space:]]*:$/, "", name); sub(/.*[[:space:]]/, "", name); print file ":" n ":" name
        }
        if (!intrait && line ~ /^[[:space:]]*pub[[:space:]]+(unsafe[[:space:]]+)?trait[[:space:]]/) { intrait = 1; depth = 0; opened = 0 }
        if (intrait) {
            if (opened && depth == 1 && match(line, /^[[:space:]]*(unsafe[[:space:]]+)?fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
                name = substr(line, RSTART, RLENGTH); sub(/.*fn[[:space:]]+/, "", name); print file ":" n ":" name
            }
            code = line; sub(/\/\/.*/, "", code)
            o = gsub(/\{/, "{", code); c = gsub(/\}/, "}", code)
            if (o > 0) opened = 1
            depth += o - c
            if (opened && depth <= 0) intrait = 0
        }
    }')
# Every word non-unit-test code uses.
reach_words=$({ reach_src | cut -f2-; find examples tests crates/*/tests benchmark/src -name '*.rs' -exec awk 1 {} +; } |
    sed -E 's#//.*##' |
    awk '/^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?use[[:space:]]/ { skip = ($0 !~ /;/); next }
         skip { skip = ($0 !~ /;/); next }
         { print }' |
    sed -E 's/\bfn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*//g; s/\b(const|static)[[:space:]]+(mut[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*[[:space:]]*:/:/g' |
    grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
reach_flagged=$(awk -F: 'NR == FNR { used[$0] = 1; next } !($3 in used)' \
    <(printf '%s\n' "$reach_words") <(printf '%s\n' "$reach_cands"))
reach_keys=$(printf '%s\n' "$reach_allow" | awk 'NF { print $1 }')
reach_fail=0
if [[ $(printf '%s\n' "$reach_keys" | wc -l) -ge 30 ]]; then
    echo "verify: the reachability allow-list has 30 or more entries" >&2
    reach_fail=1
fi
while IFS=: read -r f line name; do
    [[ -z "$name" ]] && continue
    if grep -qxF "$f:$name" <<< "$reach_keys"; then
        echo "  allowed: $f:$line: $name ($(awk -v k="$f:$name" '$1 == k { $1 = ""; print substr($0, 2) }' <<< "$reach_allow"))"
    else
        echo "verify: $f:$line: $name is reached by no non-unit-test code" >&2
        reach_fail=1
    fi
done <<< "$reach_flagged"
while read -r key; do
    [[ -z "$key" ]] && continue
    if ! cut -d: -f1,3 <<< "$reach_flagged" | grep -qxF "$key"; then
        echo "verify: allow-list entry $key is not flagged by the scan; drop it" >&2
        reach_fail=1
    fi
done <<< "$reach_keys"
if [[ "$reach_fail" -ne 0 ]]; then
    exit 1
fi

# --frozen = --offline + --locked: no network, and Cargo.lock must already
# agree with the manifests, so resolution is fully deterministic.
CARGO_NET_OFFLINE=true cargo build --release --frozen

# The committed experiment outputs are what the release binaries print
# (DESIGN.md §4): re-run the seven and fail on any byte of drift, naming
# the file and its first differing line. A change that moves an output
# commits the new file and names the shape checks that moved. The files
# are an FMA host's output: on a CPU without FMA (`Isa::Base`) the GEMM's
# multiply-adds are unfused, so the outputs differ there.
echo "verify: results/*.txt match the experiment binaries byte for byte"
drift_dir=$(mktemp -d)
trap 'rm -rf "$drift_dir"' EXIT
for b in fig1_regression tab1_resnet fig2_calibration tab2_gnn fig3_nerf fig4_vcl ablation_gradvar; do
    "target/release/$b" > "$drift_dir/$b.txt"
    if ! cmp -s "results/$b.txt" "$drift_dir/$b.txt"; then
        line=$(cmp "results/$b.txt" "$drift_dir/$b.txt" 2>&1 | awk '{print $NF}' || true)
        echo "verify: results/$b.txt drifted from target/release/$b's output at line $line:" >&2
        echo "  committed: $(sed -n "${line}p" "results/$b.txt")" >&2
        echo "  now:       $(sed -n "${line}p" "$drift_dir/$b.txt")" >&2
        exit 1
    fi
done
rm -rf "$drift_dir"

# One run of the suite, at the defaults users get (the library has no
# behaviour switches to sweep: the thread-count, cold/warm-pool,
# replay/no-replay and per-dtype bit-identity pins build their own
# references inside the tests — DESIGN.md §10–§12). --no-fail-fast so
# one red binary cannot hide the ones after it.
echo "verify: test suite"
CARGO_NET_OFFLINE=true cargo test -q --frozen --no-fail-fast

# benchmark/ is a workspace of its own (path deps on crates/*), so
# nothing above notices a library change that stops it compiling — and
# it implements `tyxe_prob::mcmc::Kernel` and calls `potential_and_grad`,
# `LatentLayout::{discover, initial_values}` and `divergence_counter`
# from outside. Build it against this checkout, run its contract test
# (a smoke run emits exactly the metrics BENCHMARK.json declares) and
# the five workloads at CI size with their output checks.
echo "verify: benchmark package builds, keeps its contract and passes --smoke"
CARGO_NET_OFFLINE=true cargo build --release --offline --manifest-path benchmark/Cargo.toml
CARGO_NET_OFFLINE=true cargo test -q --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke | tail -n 8 | sed 's/^/  /'
# The SVI workloads train on the compiled path — Fig. 1 with shared
# samples and under local reparameterization, and the Tab. 2 GCN on its
# (Graph, Tensor) input. The smoke run just wrote why each BNN's step
# plan fell back, if it did: anything but the empty string means a
# change knocked one of them off the fast path.
for w in fig1_svi_shared fig1_svi_lr tab2_gcn_mf; do
    if ! grep -q '"step_plan_unsupported_reason": ""' "benchmark/out/$w.json"; then
        echo "verify: $w does not replay a step plan:" >&2
        grep -o '"step_plan_unsupported_reason": "[^"]*"' "benchmark/out/$w.json" >&2 \
            || echo "  benchmark/out/$w.json has no step_plan_unsupported_reason" >&2
        exit 1
    fi
done

# Fault-injection + observability smoke run: a short supervised fit with
# 5% NaN-gradient injection (and pool panics, on a forced 4-thread pool)
# must complete all its steps and report the recoveries it performed —
# while tracing everything through tyxe-obs. This exercises the
# supervisor's detect/rollback/retry pipeline AND the whole span/metrics
# pipeline end to end on every verification run, not just in the test
# suite.
echo "verify: fault-injection + observability smoke run"
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
smoke=$(TYXE_FAULT_NAN_PROB=0.05 TYXE_FAULT_PANIC_PROB=0.01 \
        TYXE_FAULT_SEED=17 TYXE_NUM_THREADS=4 TYXE_OBS=1 CARGO_NET_OFFLINE=true \
        cargo run --release --frozen --example fault_injection -- \
        --trace "$obs_dir/trace.json" --metrics "$obs_dir/metrics.jsonl")
echo "$smoke" | sed 's/^/  /'
recovered=$(echo "$smoke" | awk '/faults recovered:/ {print $3}')
if [[ -z "$recovered" || "$recovered" -eq 0 ]]; then
    echo "verify: fault injection smoke run reported no recovered faults" >&2
    exit 1
fi

# Same smoke fit inside the f32 autocast scope (f64 masters, f32
# compute — DESIGN.md §12): recovery must work across the precision
# boundary, and this run's metrics snapshot must carry
# the per-dtype pool counters for BOTH dtypes, which the validation
# below requires.
echo "verify: mixed-precision fault-injection smoke run"
smoke32=$(TYXE_FAULT_NAN_PROB=0.05 TYXE_FAULT_PANIC_PROB=0.01 \
        TYXE_FAULT_SEED=17 TYXE_NUM_THREADS=4 TYXE_OBS=1 CARGO_NET_OFFLINE=true \
        cargo run --release --frozen --example fault_injection -- \
        --precision mixed \
        --trace "$obs_dir/trace-mixed.json" --metrics "$obs_dir/metrics-mixed.jsonl")
echo "$smoke32" | sed 's/^/  /'
recovered32=$(echo "$smoke32" | awk '/faults recovered:/ {print $3}')
if [[ -z "$recovered32" || "$recovered32" -eq 0 ]]; then
    echo "verify: mixed-precision smoke run reported no recovered faults" >&2
    exit 1
fi

# Structurally validate the emitted chrome trace and metrics snapshot
# with the in-tree validator (no jq): the supervised fit must decompose
# into nested step → svi-phase → kernel spans across at least two pool
# threads, and the snapshot must carry the pool/fault/divergence
# counters the observability contract (DESIGN.md §9) promises.
echo "verify: observability artifact validation"
CARGO_NET_OFFLINE=true cargo run --release --frozen -q -p tyxe-obs \
    --bin tyxe-obs-validate -- \
    --trace "$obs_dir/trace.json" --metrics "$obs_dir/metrics.jsonl" \
    --require-span-names core.supervisor.step,prob.svi.guide,prob.svi.model,core.svi.backward,prob.optim.step,tensor.gemm.block,par.task \
    --require-threads 2 --require-depth 3 \
    --require-metrics par.pool.tasks_queued,par.worker.tasks,par.fault.injected_panics,prob.mcmc.divergences,core.supervisor.steps,core.site.sample_ns,tensor.gemm.flops,tensor.alloc.pool_hit,tensor.alloc.pool_miss,tensor.alloc.bytes_recycled,tensor.alloc.pool_size,plan.hit,plan.invalidated,predict.samples,predict.cache_hit

# The mixed-precision run's artifacts must additionally carry the
# per-dtype pool accounting (free lists are byte-denominated, so f32
# and f64 recycle each other's buffers, but hits/misses are tallied per
# dtype — DESIGN.md §12): both dtypes' counters must be present, since
# mixed steps allocate f32 activations AND f64 master/optimizer state.
CARGO_NET_OFFLINE=true cargo run --release --frozen -q -p tyxe-obs \
    --bin tyxe-obs-validate -- \
    --trace "$obs_dir/trace-mixed.json" --metrics "$obs_dir/metrics-mixed.jsonl" \
    --require-span-names core.supervisor.step,prob.svi.guide,prob.svi.model,core.svi.backward,prob.optim.step,tensor.gemm.block,par.task \
    --require-threads 2 --require-depth 3 \
    --require-metrics tensor.alloc.pool_hit.f32,tensor.alloc.pool_miss.f32,tensor.alloc.pool_hit.f64,tensor.alloc.pool_miss.f64,tensor.alloc.pool_hit,tensor.alloc.pool_miss,plan.hit,plan.invalidated

# Lint every crate at deny-warnings strictness: the unsafe-heavy pool
# (scope lifetime erasure), the buffer-recycling tensor substrate, the
# `#[target_feature]` kernels of tyxe-rand and tyxe-tensor, the
# serialization substrate and the supervisor should stay free of even
# stylistic lint debt.
if command -v cargo-clippy >/dev/null 2>&1; then
    CARGO_NET_OFFLINE=true cargo clippy --workspace --frozen --all-targets -- -D warnings
else
    echo "verify: cargo-clippy unavailable, skipping lint step" >&2
fi

# Formatting, scoped: the tree as a whole is not rustfmt-clean, so the
# check covers the files that are — the CPU check, the SIMD kernels (the
# normal fill, f64 tanh) with the normal fill's oracle test, and the RNG
# golden test. A file joins the list once it is clean.
echo "verify: rustfmt on the fmt-clean files"
rustfmt --check --edition 2021 \
    crates/rand/src/isa.rs crates/rand/src/fill.rs crates/tensor/src/ops/tanh_kernel.rs \
    crates/tensor/tests/f64_box_muller.rs crates/rand/tests/golden.rs

# Belt and braces: fail if any crate manifest regrew an external
# registry dependency (path-only deps are the policy).
if grep -rn "extern crate rand\|^rand =\|proptest\|criterion" crates/*/Cargo.toml; then
    echo "verify: external registry dependency found in a crate manifest" >&2
    exit 1
fi
# A registry dependency in a crate manifest looks like `foo = "1.2"` or
# carries a `version = "…"` key; path-only crates have neither.
if grep -En '^[a-z0-9_-]+ *= *"[0-9]|version *= *"' crates/*/Cargo.toml; then
    echo "verify: versioned (registry) dependency found — only path deps are allowed" >&2
    exit 1
fi

# Prediction has one path and no switches (DESIGN.md §15), neither the
# pool nor step plans have one (§10, §11), benchmark/ is the only thing
# that times code (§6), the supervisor's recovery policy is constants
# (§8), every fit runs in one process (§13–§14) and library surface no
# caller reached is gone:
# fail if the deleted forward-plan layer, legacy bodies, options, the
# timing harness, the session counter, the tuning knobs, the recurrent
# layers, the in-process flight recorder (its ring, periodic flush, env
# var and span-id de-dup), the dead span exports, the unreached
# Gamma/Beta/Student-t family, the second SVI driver (`svi::Svi`), the
# uncalled `Tensor` methods, the unreached `AvgPool2d`/`LayerNorm` layers
# (`extra.rs`), `Tensor::cholesky`, `LogNormal` or `Dropout`'s own mask
# freeze (the `fixed_dropout` handler is the one) or the per-element
# `Element::tanh_e` (the slice recipe `tanh_slice` is the one tanh
# definition), the second fit loop beside `Supervisor::fit` with the
# loss-spike rule and its gradient-clip fallback, or the write-only dist
# checkpoint entries (shard cursor, live ranks) and the heartbeat knobs,
# the libm tiers of f64 tanh and the normal fill, or the uncalled
# log-factorial, normal CDF and scalar erf, or the unreached statistics
# ops (`ops/stats.rs`: var/std, cumsum, outer, tril/triu, top-k), the
# min reductions, `logsumexp_axis`, the test-only `max_axis`, the Brier
# score and AUPRC metrics, the f32 scalar madd and the uncalled metrics
# reset, image-shape and observation-scale accessors, the multi-process
# runtime (its crate, the sharded fit and estimator, their config, spawn
# modes, environment variables and process-kill faults, the remote span
# parent, the post-mortem dumps, the rank-merged trace and the one-caller
# epoch loop), or the test-only weight init, slot comparison, batch-norm
# mode getter, graph neighbours, RNG jump, span JSONL codec, renderer
# jitter, fixed-mask predict, latent log-prob sum, raw-bytes codec and
# metrics JSONL parser, or the surface only unit tests reached (a site's
# prior by name, the k-tied scale count, the factory/method/dict prior
# constructors, SGLD's decay schedule, `Distribution::has_rsample`, the
# parameter count, `Rng::shuffle`, `Element::to_bits_u64`, the untagged
# gauge, `Tensor::permute`, the SGD optimizer and the step "generator"),
# or the string parser of the variance schemes, or the fused variants no
# caller reached (the conv's activation epilogue, the sigmoid activation,
# the softplus scale map) and the second storage type beside `Tensor`
# that the predictive cache copied every draw through, grow back. The
# filter drops this guard's own line.
if grep -rnE "TYXE_PREDICT|fwd_record|ForwardPlan|predict_samples_legacy|set_predict_refresh|sequential_scope|TYXE_POOL|TYXE_PLAN|pool::set_enabled|plan::set_enabled|bench_with_pool_stats|tyxe_bench::harness|criterion_group|TYXE_BENCH_|claim_session|spike_factor|lr_backoff|RnnCell|GruCell|FLIGHT_RING_CAP|FLIGHT_MIN_SPAN_NS|flush_if_stale|TYXE_DIST_FLIGHT_DIR|ENV_FLIGHT_DIR|extend_dedup_by_span_id|flight::configure|write_spans_jsonl|struct (Gamma|Beta|StudentT)\b|mod gamma|struct Svi\b|fn (arange|ones_like|zeros_dtype|grad_tensor|erf)\(|struct (AvgPool2d|LayerNorm|LogNormal)\b|mod extra\b|fn (cholesky|freeze_mask|unfreeze_mask)\(|fn tanh_e\(|fit_supervised|fn is_spike|SPIKE_FACTOR|SPIKE_WINDOW|MIN_WINDOW|GRAD_CLIP|LossSpike|GradClipped|fn clip_grad_norm|PAYLOAD_SHARD_CURSOR|PAYLOAD_LIVE_RANKS|dist\.shard_cursor|dist\.live_ranks|heartbeat_interval_ms|heartbeat_timeout_ms|fn (tanh_base|ln_base|sin_cos_base)\b|ln_factorial|std_normal_cdf|erf_scalar|fn (var|std|var_axis|cumsum|outer|tril|triu|topk_indices|min_axis|max_value|min_value|logsumexp_axis|max_axis)\(|fn max_axis_t\b|brier_score|auprc|mod stats|madd_runtime_f32|fn (image_shape|obs_scale)\(|pub fn reset\(|tyxe_dist|tyxe-dist|fit_distributed|SviShardCompute|DistConfig|SpawnMode|TYXE_DIST_|TYXE_FAULT_KILL|enter_remote_child|FlightDump|merged_chrome_trace|run_epochs|fn (normal_init|same_slot|is_training|neighbors|jump|dropped_events_jsonl|spans_from_jsonl|epoch_unix_ns|with_jitter|predict_fixed_mask|latent_log_prob_sum|put_bytes|get_bytes|records_from_jsonl)\b|fn (site_prior|num_scale_parameters|from_factory|from_method|dict_normal_prior|with_decay|current_step_size|has_rsample|num_parameters|shuffle|to_bits_u64|gauge|permute)\b|struct (Sgd|StepRng)\b|mod mock\b|fn parse\(name: &str\) -> Result<VarianceScheme|RawData|fn raw_data\b|fn from_raw\(|conv2d_act|Activation::Sigmoid|ScaleMap::Softplus" crates tests examples scripts | grep -v "^scripts/verify.sh:.*grep -rnE"; then
    echo "verify: a deleted layer, option, harness or hook reappeared" >&2
    exit 1
fi
# One compiled-step driver (§11): only `plan::Compiled` starts and ends a
# recording and holds a plan slot.
if grep -rnE "begin_record\(|end_record\(|enum PlanSlot" crates tests examples | grep -v "^crates/tensor/src/plan.rs:"; then
    echo "verify: a plan driver outside crates/tensor/src/plan.rs" >&2
    exit 1
fi
# Broadcasting and permuting index through one allocation-free walk
# (`shape::StridedWalk`, §7): the per-element index helpers it replaced
# stay gone.
if grep -rnE "unravel_index|broadcast_source_index" crates tests examples; then
    echo "verify: a per-element index helper reappeared beside StridedWalk" >&2
    exit 1
fi
# One Normal log-density and one Normal‖Normal KL (§10): the fused kernels
# of `ops/normal.rs`. The op chains they replaced live on only as the
# oracle in `crates/tensor/tests/normal_kernels.rs`.
if grep -rnE "var_ratio|const LOG_SQRT_2PI" crates | grep -vE "^crates/tensor/(src/ops/normal|tests/normal_kernels)\.rs:" \
    || grep -rlPz "\.square\(\)\s*\.mul_scalar\(-0\.5\)" crates | grep -vx "crates/tensor/tests/normal_kernels.rs"; then
    echo "verify: a second Normal log-density or KL body reappeared beside the fused kernels" >&2
    exit 1
fi
# GEMM has one output contract, overwrite (§10): the accumulating entry
# points (`C += A·B`), their forced-blocked twins and references, and
# their store modes stay gone. Definitions only: `probe::gemm(` is a call.
if grep -rnE "Acc::(FromC|AddDot)|fn gemm(_at|_bt)?(_blocked|_ref)?<|def_ref!\(gemm(_at|_bt)?_ref," crates tests examples; then
    echo "verify: an accumulating GEMM entry point reappeared beside the overwrite contract" >&2
    exit 1
fi
# Mixed precision is the caller's autocast scope (§12): no per-BNN
# precision policy and no in-place parameter dtype conversion.
if grep -rnE "Precision::|set_precision|with_precision|convert_dtype_inplace" crates tests examples; then
    echo "verify: a precision policy or parameter dtype conversion reappeared beside the autocast scope" >&2
    exit 1
fi
# One fault plan (§8): `tyxe_par::fault::Faults`, replaced whole by
# `set_faults`. The per-knob setters and their sentinel statics, the
# scope-sequence reset, the checkpointed NaN stream and the probabilistic
# worker kill stay gone.
if grep -rnE "TYXE_FAULT_KILL_PROB|FaultStream|reset_scope_seq|fn set_(panic|nan|kill)_|fn set_fault_seed|const UNSET" crates tests examples; then
    echo "verify: a per-knob fault setting reappeared beside the one fault plan" >&2
    exit 1
fi
# One definition per transcendental (§12): the normal stream and f64 tanh
# are glibc's algorithms on every tier, so their production code calls no
# libm `ln`/`sin`/`cos`/`tanh` (libm is the tests' oracle only), and the
# normal fill is defined once.
for f in crates/rand/src/fill.rs crates/tensor/src/ops/tanh_kernel.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE "\.(ln|sin|cos|tanh)\(\)"; then
        echo "verify: $f calls libm" >&2
        exit 1
    fi
done
defs=$(grep -rhE "fn fill_standard_normal\b" crates/*/src | wc -l)
if [[ "$defs" -ne 1 ]]; then
    echo "verify: fn fill_standard_normal is defined $defs times under crates/*/src, not once" >&2
    exit 1
fi
# One unfold (§7): `conv2d`'s row-copy im2col and col2im are each defined
# once; the per-element unfold lives on only as the tests' oracle.
for f in im2col col2im; do
    defs=$(grep -rhE "fn $f\b" crates/tensor/src | wc -l)
    if [[ "$defs" -ne 1 ]]; then
        echo "verify: fn $f is defined $defs times under crates/tensor/src, not once" >&2
        exit 1
    fi
done
# One local-reparameterized conv (§10): `Tensor::conv2d_lr`. The chain it
# fused (two convs, the second over `x.square()`) lives on only as the
# tests' oracle, below each file's first `#[cfg(test)]`.
for f in $(grep -rlF "square().conv2d(" crates/*/src); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nF "square().conv2d("; then
        echo "verify: $f computes a local-reparameterized conv as an op chain beside Tensor::conv2d_lr" >&2
        exit 1
    fi
done
# A step input keys its plan through `StepInput` (§11), not by being
# downcast to a Tensor.
if grep -rnE "downcast_ref::<Tensor>|NOT_A_TENSOR" crates/core/src; then
    echo "verify: the SVI step downcasts its input again" >&2
    exit 1
fi

echo "verify: OK (offline build + tests + zero-dependency policy)"
