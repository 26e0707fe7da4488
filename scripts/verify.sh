#!/usr/bin/env bash
# Tier-1 verification gate plus static-analysis, lint, and hygiene
# checks.
#
#   scripts/verify.sh [--deep] [--smoke]
#
# Runs, in order:
#   1. repo hygiene: no build artifacts (target/) may be tracked by git;
#   2. the tier-1 gate from ROADMAP.md: release build + full test suite;
#   3. first-party crate unit tests (the root-package `cargo test` does
#      not reach workspace members, so the per-crate suites — including
#      plf-lint's fixture tests — run explicitly);
#   4. plf-lint, the PLF workspace invariant checker (DESIGN.md
#      §10/§15): the lexical rules L1-L4 (SAFETY-comment coverage,
#      hot-path panic freedom, magic-number bans, atomic-ordering
#      consistency) plus the structural rules L5-L8 (lock-order
#      deadlock analysis, unsafe raw-pointer dataflow, the
#      kernel-parity matrix, service-path error hygiene). The gate
#      runs twice — human-readable and --json — and then diffs the
#      --lock-graph DOT output against the checked-in snapshot
#      results/lock_graph.dot, so any new lock-order edge shows up in
#      review;
#   5. clippy with -D warnings on every first-party crate (the
#      [workspace.lints] wall turns each listed warn into an error);
#   6. a smoke run of the perf_report binary, proving the observability
#      pipeline produces a BENCH_plf report end to end (schema v6, with
#      the plfd service section including the self-healing,
#      crash-durability, and CLV-cache counters, plus the net_service
#      section measured over a real plf-net loopback socket,
#      self-validated by the binary). The run doubles as the batch-perf
#      smoke: --require-batched-win makes the binary exit non-zero
#      unless the batched service out-throughputs direct per-job
#      dispatch, so a fused-execution regression fails verification;
#   7. the network smoke: `plfr serve --listen` on an ephemeral
#      loopback port flooded by `plfr loadgen --connect` with tenant
#      churn — loadgen exits non-zero if any acknowledged job is lost
#      and the server must drain cleanly on SIGTERM;
#   8. a quick fixed-seed `plfr chaos` soak — a scheduled worker kill
#      and backend blackout that the service must heal with zero lost
#      jobs, bit-identical results, and every breaker re-closed;
#   9. a fixed-seed `plfr chaos --crash` drill — the service is crashed
#      (kill -9 semantics: journal frozen mid-flight, a torn record
#      appended to the tail) after N acknowledged jobs and restarted on
#      the same journal; exits non-zero unless recovery replays every
#      acknowledged job, dedups every resubmission, truncates the torn
#      tail non-fatally, and every result is bit-identical to the
#      serial scalar reference.
#
# With --smoke, the perf_report step writes its report to
# ./BENCH_plf.json (smoke-sized: one small data set, 64 service jobs)
# instead of a discarded temp file — CI uploads that file as the
# service-smoke artifact.
#
# With --deep, additionally runs the Miri soundness pass over the raw
# allocator (`cargo +nightly miri test -p plf-phylo clv`), over the
# plf-lint scanner/parser/graph unit tests, and over the vendored rayon
# worker pool (`cargo +nightly miri test -p rayon`). Miri needs
# the nightly toolchain with the miri component; when it is not
# installed the deep pass is reported and skipped so offline
# environments still verify.
set -euo pipefail
cd "$(dirname "$0")/.."

DEEP=0
SMOKE=0
for arg in "$@"; do
    case "$arg" in
        --deep) DEEP=1 ;;
        --smoke) SMOKE=1 ;;
        *) echo "usage: scripts/verify.sh [--deep] [--smoke]" >&2; exit 2 ;;
    esac
done

FIRST_PARTY=(
    -p plf-phylo -p plf-seqgen -p plf-mcmc -p plf-simcore
    -p plf-multicore -p plf-cellbe -p plf-gpu -p plfd -p plf-net
    -p plf-bench -p plf-lint -p plf-repro
)

echo "==> hygiene: no tracked files under target/"
if [ -n "$(git ls-files target/)" ]; then
    echo "error: build artifacts are tracked by git:" >&2
    git ls-files target/ | head -n 20 >&2
    echo "(run: git rm -r --cached target/)" >&2
    exit 1
fi

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace crate tests"
cargo test -q "${FIRST_PARTY[@]}"

echo "==> plf-lint (workspace invariants L1-L8)"
cargo run --release -q -p plf-lint

echo "==> plf-lint --json (machine-readable gate)"
# The JSON emitter must agree with the text gate: clean workspace,
# empty diagnostics array, exit 0.
LINT_JSON="$(cargo run --release -q -p plf-lint -- --json)"
if [ "$LINT_JSON" != '{"diagnostics":[]}' ]; then
    echo "error: plf-lint --json reported diagnostics on a clean tree:" >&2
    echo "$LINT_JSON" >&2
    exit 1
fi

echo "==> plf-lint --lock-graph (snapshot diff vs results/lock_graph.dot)"
# The lock graph is review-bait: a new edge means a new lock-order
# constraint and must be committed deliberately (regenerate with
#   cargo run --release -q -p plf-lint -- --lock-graph > results/lock_graph.dot).
cargo run --release -q -p plf-lint -- --lock-graph \
    | diff -u results/lock_graph.dot - \
    || { echo "error: lock graph drifted from results/lock_graph.dot (see diff above)" >&2; exit 1; }

echo "==> clippy (all first-party crates), -D warnings"
cargo clippy "${FIRST_PARTY[@]}" --all-targets -- -D warnings

echo "==> perf_report --smoke (batch-perf-smoke: batched must beat direct)"
if [ "$SMOKE" = 1 ]; then
    # Keep the smoke report: CI's service-smoke job uploads it.
    cargo run --release -q -p plf-bench --bin perf_report -- \
        --smoke --require-batched-win --out BENCH_plf.json
else
    mkdir -p results
    cargo run --release -q -p plf-bench --bin perf_report -- \
        --smoke --require-batched-win --out results/BENCH_plf.smoke.tmp
    rm -f results/BENCH_plf.smoke.tmp
fi

echo "==> net smoke (plfr serve --listen vs plfr loadgen --connect)"
# A real two-process socket run on an ephemeral loopback port: loadgen
# exits non-zero if any acknowledged job is lost, and the server must
# drain cleanly (exit 0) on SIGTERM.
NET_DIR="$(mktemp -d)"
cargo run --release -q --bin plfr -- simulate \
    --taxa 10 --patterns 200 --seed 2009 --out "$NET_DIR/aln.fasta"
cargo run --release -q --bin plfr -- serve \
    --alignment "$NET_DIR/aln.fasta" --backend rayon --workers 2 \
    --listen 127.0.0.1:0 --port-file "$NET_DIR/port.txt" \
    2>"$NET_DIR/server.log" &
NET_SERVER=$!
for _ in $(seq 1 150); do [ -s "$NET_DIR/port.txt" ] && break; sleep 0.2; done
if [ ! -s "$NET_DIR/port.txt" ]; then
    echo "error: plfr serve never wrote its port file" >&2
    cat "$NET_DIR/server.log" >&2
    kill "$NET_SERVER" 2>/dev/null || true
    rm -rf "$NET_DIR"
    exit 1
fi
cargo run --release -q --bin plfr -- loadgen \
    --connect "127.0.0.1:$(cat "$NET_DIR/port.txt")" \
    --connections 64 --jobs 512 --pipeline 2 --churn 16 \
    || { echo "error: network loadgen failed (see above)" >&2;
         kill "$NET_SERVER" 2>/dev/null || true; rm -rf "$NET_DIR"; exit 1; }
kill -TERM "$NET_SERVER"
wait "$NET_SERVER" \
    || { echo "error: plfr serve did not drain cleanly on SIGTERM" >&2;
         cat "$NET_DIR/server.log" >&2; rm -rf "$NET_DIR"; exit 1; }
rm -rf "$NET_DIR"

echo "==> plfr chaos (fixed-seed self-healing soak)"
# Default schedule: kill worker 0 at submission 40, black out worker 1
# for 6 jobs at submission 80; exits non-zero unless the service heals.
cargo run --release -q --bin plfr -- chaos --seed 2009 >/dev/null

echo "==> plfr chaos --crash (crash-durability drill)"
# Crash after 20 acknowledged jobs, tear the journal tail, restart,
# recover, and resubmit all 60; exits non-zero on any lost acknowledged
# job, un-deduped resubmission, or bit mismatch across the crash.
CRASH_DIR="$(mktemp -d)"
trap 'rm -rf "$CRASH_DIR"' EXIT
cargo run --release -q --bin plfr -- chaos \
    --crash 20 --jobs 60 --seed 2009 --workers 2 \
    --journal-dir "$CRASH_DIR/journal" >/dev/null

if [ "$DEEP" = 1 ]; then
    echo "==> deep: miri soundness pass (AlignedBuf / clv, plf-lint, rayon pool)"
    if rustup run nightly cargo miri --version >/dev/null 2>&1; then
        # MIRIFLAGS: vendored deps are path deps, no network access.
        cargo +nightly miri test -p plf-phylo clv
        # The lint crate's scanner/parser is pure safe code over
        # untrusted source text; Miri keeps its indexing honest.
        cargo +nightly miri test -p plf-lint --lib
        # The vendored rayon pool holds the workspace's thread-handoff
        # unsafe (a type-erased task pointer); plf-lint skips vendor/.
        cargo +nightly miri test -p rayon
    else
        echo "warning: nightly miri not installed; skipping deep pass" >&2
        echo "         (install: rustup component add --toolchain nightly miri)" >&2
    fi
fi

echo "==> verify OK"
