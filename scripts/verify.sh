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

# Every public item has a user. Text only, so it runs before the build.
# The code it reads is everything but unit tests: each crates/*/src file
# up to its first `#[cfg(test)]`, and examples/, tests/, crates/*/tests/
# and benchmark/src/ whole, with comments, string and char literals and
# `use` statements dropped. A definition (`fn NAME`, `const NAME:`,
# `static NAME:`) is not a use. Under crates/*/src it checks:
# - a `pub fn`, or a method declared in a `pub trait`: used only in call
#   form (`NAME(`, `NAME::<`) or path form (`::NAME`). A field read, a
#   struct-literal field or a binding of the same name is not a use;
# - a `pub const` or `pub static`: used by its name as a word;
# - a `pub struct`, `enum`, `type` or `trait`, and the type a macro that
#   defines a `pub struct` takes as its first argument: used by its name
#   outside what it owns. It owns its definition, each `impl X` and
#   `impl T for X` block (header and body) and the macro invocation that
#   defines it, found by brace (or, for the invocation, parenthesis)
#   depth.
# It is a name rule still: an item named like one in use slips through.
#
# The allow-list is the public API the paper names that only unit tests
# reach, `path:name` and the reason, one a line. It stays under 30
# entries, and an entry the scan no longer flags fails the step too.
echo "verify: every public function, constant, type and trait method has a non-test user"
reach_allow='
crates/core/src/bnn.rs:with_estimator  TyXe fit(closed_form_kl=False): the pathwise Trace ELBO in place of the closed-form-KL default
crates/core/src/vcl.rs:bayesian_sample_sites  tyxe.util.pyro_sample_sites: the site names Sec. 5 (VCL) walks
crates/core/src/priors.rs:hide_all  TyXe Prior(hide_all=True): the prior filter kwarg that starts from nothing exposed
crates/core/src/priors.rs:expose_module_types  TyXe Prior(expose_module_types=[...]): the prior filter kwarg by module type
crates/core/src/priors.rs:expose_attributes  TyXe Prior(expose_attributes=[...]): the prior filter kwarg by parameter attribute
crates/core/src/priors.rs:LayerwiseNormalPrior  TyXe priors.LayerwiseNormalPrior(method=radford|xavier|kaiming)
crates/core/src/priors.rs:LambdaPrior  TyXe priors.LambdaPrior: a prior built per parameter by a function
'
reach_src() {
    for f in $(find crates/*/src -name '*.rs' | sort); do
        sed '/^[[:space:]]*#\[cfg(test)\]/,$d' "$f" | sed "s|^|$f\t|"
    done
}
# The code, `file<TAB>line`, one output line per input line.
reach_code() {
    { reach_src; for f in $(find examples tests crates/*/tests benchmark/src -name '*.rs' | sort); do sed "s|^|$f\t|" "$f"; done; } |
    awk -F'\t' '
        $1 != file { file = $1; instr = 0; skip = 0 }
        {
            line = substr($0, length($1) + 2)
            if (instr) {
                if (match(line, /^([^"\\]|\\.)*"/)) { line = substr(line, RSTART + RLENGTH); instr = 0 } else line = ""
            }
            if (line ~ /^[ \t]*\/\//) line = ""
            gsub(/r#"([^"]|"[^#])*"#/, " ", line)
            gsub(/\x27([^\x27\\]|\\[^u]|\\u[{][0-9a-fA-F]+[}])\x27/, " ", line)
            gsub(/"([^"\\]|\\.)*"/, " ", line)
            sub(/\/\/.*/, "", line)
            if ((i = index(line, "\"")) > 0) { line = substr(line, 1, i - 1); instr = 1 }
            if (skip || line ~ /^[ \t]*(pub(\([^)]*\))?[ \t]+)?use[ \t]/) { skip = (line !~ /;/); line = "" }
            print file "\t" line
        }'
}
# One pass: candidates (F fn, K const/static, T type, as `path:line:name`)
# and uses (C call or path form, W word, U word outside its owner).
reach_scan=$(reach_code | awk -F'\t' '
    function push(name, kind) { sp++; own[sp] = name; okind[sp] = kind; base[sp] = (kind == "(" ? pdepth : depth); opened[sp] = 0 }
    $1 != file { file = $1; n = 0; depth = 0; pdepth = 0; sp = 0; want = 0; mac = ""; split("", typemac); src = (file ~ /^crates\/[^\/]+\/src\//) }
    {
        n++; line = substr($0, length($1) + 2); rest = line; at = file ":" n ":"
        if (src && match(line, /^[ \t]*pub[ \t]+((const|unsafe|async|extern)[ \t]+)*fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            s = substr(line, RSTART, RLENGTH); sub(/.*fn[ \t]+/, "", s); print "F\t" at s
        } else if (src && match(line, /^[ \t]*pub[ \t]+(const|static)[ \t]+(mut[ \t]+)?[A-Za-z_][A-Za-z0-9_]*[ \t]*:/)) {
            s = substr(line, RSTART, RLENGTH); sub(/[ \t]*:$/, "", s); sub(/.*[ \t]/, "", s); print "K\t" at s
        } else if (src && sp > 0 && okind[sp] == "pub trait" && depth == base[sp] + 1 && match(line, /^[ \t]*(unsafe[ \t]+)?fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            s = substr(line, RSTART, RLENGTH); sub(/.*fn[ \t]+/, "", s); print "F\t" at s
        }
        if (match(line, /^[ \t]*(pub(\([^)]*\))?[ \t]+)?(unsafe[ \t]+)?(struct|enum|union|type|trait)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            s = substr(line, RSTART, RLENGTH); p = (s ~ /^[ \t]*pub[ \t]/); k = s; sub(/[ \t]+[A-Za-z_0-9]*$/, "", k); sub(/.*[ \t]/, "", k)
            sub(/.*[ \t]/, "", s); push(s, p && k == "trait" ? "pub trait" : "{")
            if (src && p && k != "union") print "T\t" at s
        } else if (line ~ /^[ \t]*(unsafe[ \t]+)?impl([ \t<]|$)/) {
            # The self type: past the generics and any `Trait for`, the
            # last segment of its path.
            h = line; sub(/[{].*/, "", h); sub(/^[ \t]*(unsafe[ \t]+)?impl/, "", h); gsub(/->/, "", h)
            if (h ~ /^</) {
                d = 0
                for (i = 1; i <= length(h); i++) { c = substr(h, i, 1); if (c == "<") d++; else if (c == ">" && --d == 0) break }
                h = substr(h, i + 1)
            }
            sub(/[ \t]where([ \t].*)?$/, "", h)
            if (match(h, /[ \t]for[ \t]/)) h = substr(h, RSTART + RLENGTH)
            gsub(/&|\x27[A-Za-z_]+|(^|[ \t])(mut|dyn)[ \t]/, " ", h); sub(/^[ \t]+/, "", h); sub(/[^A-Za-z0-9_:].*/, "", h); sub(/.*::/, "", h)
            push(h, "{")
        } else if (match(line, /^[ \t]*macro_rules![ \t]*[A-Za-z_][A-Za-z0-9_]*/)) {
            mac = substr(line, RSTART, RLENGTH); sub(/.*![ \t]*/, "", mac); macdepth = depth
        } else if (match(line, /^[ \t]*[A-Za-z_][A-Za-z0-9_]*![ \t]*\(/)) {
            s = substr(line, RSTART, RLENGTH); sub(/^[ \t]*/, "", s); sub(/[ \t]*!.*/, "", s)
            if (s in typemac) { push("", "("); want = 1; rest = substr(line, RSTART + RLENGTH) }
        }
        if (mac != "" && line ~ /pub[ \t]+struct[ \t]+\$/) typemac[mac] = 1
        if (want && match(rest, /^[ \t]*[A-Za-z_][A-Za-z0-9_]*[ \t]*,/)) {
            s = substr(rest, RSTART, RLENGTH); gsub(/[ \t,]/, "", s); own[sp] = s; want = 0
            if (src) print "T\t" at s
        }
        code = line
        gsub(/(^|[^A-Za-z0-9_])fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/, " ", code)
        gsub(/(^|[^A-Za-z0-9_])(const|static)[ \t]+(mut[ \t]+)?[A-Za-z_][A-Za-z0-9_]*[ \t]*:/, " :", code)
        while (match(code, /(::)?[A-Za-z_][A-Za-z0-9_]*(\(|::<)?/)) {
            w = substr(code, RSTART, RLENGTH); code = substr(code, RSTART + RLENGTH)
            call = (w ~ /^::|[(<]$/); gsub(/[^A-Za-z0-9_]/, "", w)
            if (call) print "C\t" w
            print "W\t" w
            for (i = sp; i > 0 && own[i] != w; i--);
            if (i == 0) print "U\t" w
        }
        t = line; o = gsub(/[{]/, "", t); c = gsub(/[}]/, "", t); depth += o - c
        t = line; po = gsub(/\(/, "", t); pc = gsub(/\)/, "", t); pdepth += po - pc
        if (mac != "" && depth <= macdepth && o + c > 0) mac = ""
        while (sp > 0) {
            d = (okind[sp] == "(" ? pdepth : depth)
            if (d > base[sp] || (okind[sp] == "(" ? po : o) > 0) opened[sp] = 1
            if ((opened[sp] && d <= base[sp]) || (!opened[sp] && line ~ /;/)) sp--
            else break
        }
    }' | sort -u)
reach_flagged=$(awk -F'\t' '
    NR == FNR { used[$1 $2] = 1; next }
    { split($2, p, ":") }
    ($1 == "F" && !(("C" p[3]) in used)) || ($1 == "K" && !(("W" p[3]) in used)) || ($1 == "T" && !(("U" p[3]) in used)) { print $2 }
' <(grep -E '^[CWU]' <<< "$reach_scan") <(grep -E '^[FKT]' <<< "$reach_scan") | sort -t: -k1,1 -k2,2n)
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
# behaviour switches to sweep: the thread-count, cold/warm-pool and
# replay/no-replay bit-identity pins build their own references inside
# the tests — DESIGN.md §10–§11). --no-fail-fast so
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
# 5% NaN-gradient injection, on a forced 4-thread pool, must complete all
# its steps and report the recoveries it performed — while tracing
# everything through tyxe-obs. This exercises the
# supervisor's detect/rollback/retry pipeline AND the whole span/metrics
# pipeline end to end on every verification run, not just in the test
# suite.
echo "verify: fault-injection + observability smoke run"
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
smoke=$(TYXE_FAULT_NAN_PROB=0.05 \
        TYXE_FAULT_SEED=17 TYXE_NUM_THREADS=4 TYXE_OBS=1 CARGO_NET_OFFLINE=true \
        cargo run --release --frozen --example fault_injection -- \
        --trace "$obs_dir/trace.json" --metrics "$obs_dir/metrics.jsonl")
echo "$smoke" | sed 's/^/  /'
recovered=$(echo "$smoke" | awk '/faults recovered:/ {print $3}')
if [[ -z "$recovered" || "$recovered" -eq 0 ]]; then
    echo "verify: fault injection smoke run reported no recovered faults" >&2
    exit 1
fi

# Structurally validate the emitted chrome trace and metrics snapshot
# with the in-tree validator (no jq): the supervised fit must decompose
# into nested step → svi-phase → kernel spans across at least two pool
# threads, and the snapshot must carry the pool/recovery/divergence
# counters the observability contract (DESIGN.md §9) promises.
echo "verify: observability artifact validation"
CARGO_NET_OFFLINE=true cargo run --release --frozen -q -p tyxe-obs \
    --bin tyxe-obs-validate -- \
    --trace "$obs_dir/trace.json" --metrics "$obs_dir/metrics.jsonl" \
    --require-span-names core.supervisor.step,prob.svi.guide,prob.svi.model,core.svi.backward,prob.optim.step,tensor.gemm.block,par.task \
    --require-threads 2 --require-depth 3 \
    --require-metrics par.pool.tasks_queued,par.worker.tasks,core.supervisor.retries,prob.mcmc.divergences,core.supervisor.steps,core.site.sample_ns,tensor.gemm.flops,tensor.alloc.pool_hit,tensor.alloc.pool_miss,tensor.alloc.bytes_recycled,tensor.alloc.pool_size,plan.hit,plan.invalidated,predict.samples,predict.cache_hit

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
# normal fill, f64 tanh) with the normal fill's oracle test, the RNG
# golden test and the dropout layer. A file joins the list once it is clean.
echo "verify: rustfmt on the fmt-clean files"
rustfmt --check --edition 2021 \
    crates/rand/src/isa.rs crates/rand/src/fill.rs crates/tensor/src/ops/tanh_kernel.rs \
    crates/tensor/tests/f64_box_muller.rs crates/rand/tests/golden.rs \
    crates/nn/src/layers/dropout.rs

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
# freeze, the MC-dropout front-end with its fixed-mask handler and the
# messengers' dropout hook (`Dropout` draws its own mask), or the per-element
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
# that the predictive cache copied every draw through, or what only unit
# tests reached once the reachability step judged use (the layer, dropout,
# batch-norm, ResNet, distribution, layout and tensor accessors, the
# estimator getter, the scale freeze, the uniform prior with both Uniform
# distributions, Pyro's block and mask handlers, the sigmoid and softplus
# layers, the bare obs-trace installer, Adam's hyperparameter options and
# the supervisor's payload map), or the injected pool panic and its
# recovery (the panic knob and payload, the pool's scope claim, the
# worker-panic cause and count, the process-wide fault counters, the fault
# module of the pool crate and the separate backoff event), or the fit
# report's step timer, or the Sec. D extensions no experiment ran (the
# SGLD sampler, the k-tied guide, the Poisson distribution and likelihood
# with the log-gamma function only its log-mass called), grow back. The
# filter drops this guard's own line.
if grep -rnE "TYXE_PREDICT|fwd_record|ForwardPlan|predict_samples_legacy|set_predict_refresh|sequential_scope|TYXE_POOL|TYXE_PLAN|pool::set_enabled|plan::set_enabled|bench_with_pool_stats|tyxe_bench::harness|criterion_group|TYXE_BENCH_|claim_session|spike_factor|lr_backoff|RnnCell|GruCell|FLIGHT_RING_CAP|FLIGHT_MIN_SPAN_NS|flush_if_stale|TYXE_DIST_FLIGHT_DIR|ENV_FLIGHT_DIR|extend_dedup_by_span_id|flight::configure|write_spans_jsonl|struct (Gamma|Beta|StudentT)\b|mod gamma|struct Svi\b|fn (arange|ones_like|zeros_dtype|grad_tensor|erf)\(|struct (AvgPool2d|LayerNorm|LogNormal)\b|mod extra\b|fn (cholesky|freeze_mask|unfreeze_mask)\(|fn tanh_e\(|fit_supervised|fn is_spike|SPIKE_FACTOR|SPIKE_WINDOW|MIN_WINDOW|GRAD_CLIP|LossSpike|GradClipped|fn clip_grad_norm|PAYLOAD_SHARD_CURSOR|PAYLOAD_LIVE_RANKS|dist\.shard_cursor|dist\.live_ranks|heartbeat_interval_ms|heartbeat_timeout_ms|fn (tanh_base|ln_base|sin_cos_base)\b|ln_factorial|std_normal_cdf|erf_scalar|fn (var|std|var_axis|cumsum|outer|tril|triu|topk_indices|min_axis|max_value|min_value|logsumexp_axis|max_axis)\(|fn max_axis_t\b|brier_score|auprc|mod stats|madd_runtime_f32|fn (image_shape|obs_scale)\(|pub fn reset\(|tyxe_dist|tyxe-dist|fit_distributed|SviShardCompute|DistConfig|SpawnMode|TYXE_DIST_|TYXE_FAULT_KILL|enter_remote_child|FlightDump|merged_chrome_trace|run_epochs|fn (normal_init|same_slot|is_training|neighbors|jump|dropped_events_jsonl|spans_from_jsonl|epoch_unix_ns|with_jitter|predict_fixed_mask|latent_log_prob_sum|put_bytes|get_bytes|records_from_jsonl)\b|fn (site_prior|num_scale_parameters|from_factory|from_method|dict_normal_prior|with_decay|current_step_size|has_rsample|num_parameters|shuffle|to_bits_u64|gauge|permute)\b|struct (Sgd|StepRng)\b|mod mock\b|fn parse\(name: &str\) -> Result<VarianceScheme|RawData|fn raw_data\b|fn from_raw\(|conv2d_act|Activation::Sigmoid|ScaleMap::Softplus|fn (in_features|out_features|running_mean|running_var|feature_dim|cov_factor|cov_diag|estimator|train_scale|from_probs|obs_trace|with_options)\b|fn bias\(&self\) -> (Option<)?&Param|fn (rate|logits)\(&self\) -> &Tensor|fn p\(&self\) -> f64|fn layer\(&self, i: usize\)|fn names\(&self\) -> &\[String\]|fn strides\(&self\)|fn uniform\(lo: f64, hi: f64\)|struct Uniform\b|mod uniform\b|Distribution<T> for &D\b|fn (block|mask)<R>|BlockMessenger|\bMaskMessenger|fn blocks\(&self, _?name: &str\)|^[[:space:]]*(Sigmoid|Softplus),$|\b(Sigmoid|Softplus)::new\b|weight_decay|fn unflatten\(&self, flat: &\[f64\], requires_grad|set_payload|LIVE_PAYLOAD_KEYS|PAYLOAD_PRECISION|PAYLOAD_PREFIX|fn payload\(|TYXE_FAULT_PANIC_PROB|INJECTED_PANIC_PAYLOAD|WorkerPanic|claim_scope|inject_panic|worker_panics_recovered|injected_panics_counter|fault_fired_counter|tyxe_par::fault|BackedOff|McDropout|FixedDropoutMessenger|fn fixed_dropout|intercept_dropout|StepTiming|struct (Sgld|Poisson)\b|mod (sgld|special|poisson)\b|AutoKTiedNormal|guides_ktied|fn ln_gamma\b" crates tests examples scripts | grep -v "^scripts/verify.sh:.*grep -rnE"; then
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
# One element type, `f64` (§12): the mixed-precision mode (the autocast
# scope and its checkpoint code), the per-BNN precision policy, in-place
# parameter dtype conversion, the dtype tag and its dispatch, the same-type
# slice reinterprets, the `f32` storage constructor, the `f32`
# transcendental approximants and a second `Element` instance stay gone.
# Word matches: the sampling impls of `tyxe-rand` keep their own `f32`.
if grep -rnE "Precision::|set_precision|with_precision|convert_dtype_inplace" crates tests examples \
    || grep -rnwE "autocast|DType|from_vec_f32|tanh_f32|exp_f32|dispatch_dtype|same_slice(_mut)?" crates tests examples \
    || grep -rnE "impl Element for f32" crates tests examples; then
    echo "verify: a precision policy, a second element type or the autocast scope reappeared" >&2
    exit 1
fi
# One fault plan (§8): `tyxe::fit::Faults`, replaced whole by
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
# One batch-norm tail (§10): `Tensor::batch_norm`. The four broadcast ops
# it fused, `.sub(…).div(…).mul(…).add(…)` in one statement however it is
# wrapped, live on only as the tests' oracle, below each file's first
# `#[cfg(test)]`; comment lines are not code and are skipped.
bn_tail='\.sub\([^;{}]*\)\.div\([^;{}]*\)\.mul\([^;{}]*\)\.add\('
for f in $(grep -rlF ".sub(" crates/*/src); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -v '^[[:space:]]*//' | tr -d '[:space:]' | grep -oE "$bn_tail"; then
        echo "verify: $f computes batch norm's affine tail as an op chain beside Tensor::batch_norm" >&2
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
