#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build, and the test suite.
#
#   ./ci/check.sh          # fmt + clippy + build + quick tests
#   ./ci/check.sh --full   # also the release build and full test suite
#
# Everything runs with --offline; the workspace has no external
# dependencies, so no network access is ever required.
set -euo pipefail
cd "$(dirname "$0")/.."

full=0
[[ "${1:-}" == "--full" ]] && full=1

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build"
cargo build --workspace --offline

echo "==> cargo test"
cargo test --workspace --offline --quiet

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --offline --no-deps --quiet

echo "==> turnlint gate"
# The static-analysis gate: every design-space claim, the algorithm x
# topology verification matrix, and invariant-sanitized runs of both
# engines. A second run must write the same report byte for byte: the
# progress walk may not depend on hash order. Then the self-test:
# injecting a known-bad turn set must make the gate fail (otherwise it is
# blind and proves nothing).
lint_tmp="$(mktemp -d)"
trap 'rm -rf "$lint_tmp"' EXIT
cargo run --offline --quiet -p turnroute-analysis --bin turnlint -- \
    --quick --min-witness --out "$lint_tmp/turnlint.json" > "$lint_tmp/turnlint.log"
test -s "$lint_tmp/turnlint.json"
grep -q "min-witness-girth" "$lint_tmp/turnlint.log"
cargo run --offline --quiet -p turnroute-analysis --bin turnlint -- \
    --quick --min-witness --out "$lint_tmp/turnlint_b.json" > /dev/null
cmp "$lint_tmp/turnlint.json" "$lint_tmp/turnlint_b.json"
if cargo run --offline --quiet -p turnroute-analysis --bin turnlint -- \
    --quick --inject-bad --min-witness --out "$lint_tmp/turnlint_bad.json" \
    > "$lint_tmp/turnlint_bad.log" 2>&1; then
    echo "turnlint --inject-bad unexpectedly passed; the gate is blind" >&2
    exit 1
fi
grep -q "witness" "$lint_tmp/turnlint_bad.log"

echo "==> turnprove gate"
# The proof-certificate gate: every configuration of the matrix (turn
# sets, 3D sets, hypercube/torus algorithms, double-y virtual channels,
# every sweep fault plan) must produce a certificate the independent
# checker accepts, and the simulator cross-validations must agree with
# the static verdicts. Then the self-test: planting a cyclic VC
# assignment declared deadlock free must make the gate fail with a
# checker-validated witness cycle.
cargo run --offline --quiet -p turnroute-analysis --bin turnprove -- \
    --quick --out "$lint_tmp/turnprove.json" > "$lint_tmp/turnprove.log"
test -s "$lint_tmp/turnprove.json"
if cargo run --offline --quiet -p turnroute-analysis --bin turnprove -- \
    --quick --inject-bad --out "$lint_tmp/turnprove_bad.json" \
    > "$lint_tmp/turnprove_bad.log" 2>&1; then
    echo "turnprove --inject-bad unexpectedly passed; the gate is blind" >&2
    exit 1
fi
grep -q "witness" "$lint_tmp/turnprove_bad.log"

echo "==> turncheck gate"
# The model-checking gate: drive the production engines through every
# reachable global state of the small-configuration matrix (quick
# profile), refute every census-unsafe set with a counterexample that
# replays to a stuck state, and seal the first counterexample as a TTRL
# log that turnstat must replay. Then the self-test: a planted
# arbitration bug that skips the turn-set filter on one router must be
# caught as a reachable stuck state. A second run must write the same
# report byte for byte: exploration may not depend on hash order.
cargo run --offline --quiet -p turnroute-analysis --bin turncheck -- \
    --quick --out "$lint_tmp/mc.json" \
    --ttr-out "$lint_tmp/mc_counterexample.ttr" > "$lint_tmp/turncheck.log"
test -s "$lint_tmp/mc.json"
test -s "$lint_tmp/mc_counterexample.ttr"
grep -q "configurations verified" "$lint_tmp/turncheck.log"
cargo run --offline --quiet -p turnroute-analysis --bin turncheck -- \
    --quick --out "$lint_tmp/mc_b.json" \
    --ttr-out "$lint_tmp/mc_counterexample_b.ttr" > /dev/null
cmp "$lint_tmp/mc.json" "$lint_tmp/mc_b.json"
cmp "$lint_tmp/mc_counterexample.ttr" "$lint_tmp/mc_counterexample_b.ttr"
cargo run --offline --quiet -p turnroute-obslog --bin turnstat -- \
    replay "$lint_tmp/mc_counterexample.ttr" --out "$lint_tmp/mc_replay.json" 2> /dev/null
test -s "$lint_tmp/mc_replay.json"
if cargo run --offline --quiet -p turnroute-analysis --bin turncheck -- \
    --quick --inject-bad --out "$lint_tmp/mc_bad.json" \
    --ttr-out "$lint_tmp/mc_bad.ttr" > "$lint_tmp/turncheck_bad.log" 2>&1; then
    echo "turncheck --inject-bad unexpectedly passed; the gate is blind" >&2
    exit 1
fi
grep -q "MODEL CHECKING FAILED" "$lint_tmp/turncheck_bad.log"

echo "==> turnsynth gate"
# The synthesis gate: every cyclic configuration of the matrix must get a
# synthesized escape/adaptive VC assignment whose certificate the
# independent checker accepts, byte-stable across reruns, with the
# simulator cross-validations agreeing (unsplit deadlocks, synthesized
# delivers 100%). Then the self-test: planting a dependency cycle inside
# the escape class while keeping the clean certificate must be rejected
# by the checker — not the synthesizer — and fail the gate.
cargo run --offline --quiet -p turnroute-analysis --bin turnsynth -- \
    --quick --out "$lint_tmp/turnsynth_a.json" > "$lint_tmp/turnsynth.log"
test -s "$lint_tmp/turnsynth_a.json"
cargo run --offline --quiet -p turnroute-analysis --bin turnsynth -- \
    --quick --out "$lint_tmp/turnsynth_b.json" > /dev/null
cmp "$lint_tmp/turnsynth_a.json" "$lint_tmp/turnsynth_b.json"
if cargo run --offline --quiet -p turnroute-analysis --bin turnsynth -- \
    --quick --inject-bad --out "$lint_tmp/turnsynth_bad.json" \
    > "$lint_tmp/turnsynth_bad.log" 2>&1; then
    echo "turnsynth --inject-bad unexpectedly passed; the gate is blind" >&2
    exit 1
fi
grep -q "checker rejected" "$lint_tmp/turnsynth_bad.log"
grep -q "self-test" "$lint_tmp/turnsynth_bad.log"

echo "==> turntrace gate"
# The observability gate: recording the canonical scenario twice with
# the same seed must produce byte-identical logs and aggregates,
# replaying a log (no re-simulation) must reproduce the live aggregates
# byte for byte, and the verifier self-test must reject every injected
# corruption (truncations and bit flips).
cargo run --offline --quiet -p turnroute-obslog --bin turnstat -- \
    record --quick --seed 7 --out "$lint_tmp/trace_a" 2> /dev/null
cargo run --offline --quiet -p turnroute-obslog --bin turnstat -- \
    record --quick --seed 7 --out "$lint_tmp/trace_b" 2> /dev/null
cmp "$lint_tmp/trace_a/run.ttr" "$lint_tmp/trace_b/run.ttr"
cmp "$lint_tmp/trace_a/aggregates.json" "$lint_tmp/trace_b/aggregates.json"
cargo run --offline --quiet -p turnroute-obslog --bin turnstat -- \
    replay "$lint_tmp/trace_a/run.ttr" --out "$lint_tmp/replayed.json" 2> /dev/null
cmp "$lint_tmp/trace_a/aggregates.json" "$lint_tmp/replayed.json"
cargo run --offline --quiet -p turnroute-obslog --bin turnstat -- \
    verify "$lint_tmp/trace_a/run.ttr" --against "$lint_tmp/trace_a/aggregates.json" \
    > "$lint_tmp/turnstat.log"
grep -q "byte-identical" "$lint_tmp/turnstat.log"
if cargo run --offline --quiet -p turnroute-obslog --bin turnstat -- \
    verify "$lint_tmp/trace_a/run.ttr" --inject-bad \
    > "$lint_tmp/turnstat_bad.log" 2>&1; then
    echo "turnstat --inject-bad unexpectedly passed; the verifier is blind" >&2
    exit 1
fi
grep -q "rejected" "$lint_tmp/turnstat_bad.log"
grep -q "self-test ok" "$lint_tmp/turnstat_bad.log"
# The committed logs were sealed by an earlier build of the encoder: the
# reader must still accept them.
for committed in results/chaos_heal.ttr results/mc_counterexample.ttr; do
    cargo run --offline --quiet -p turnroute-obslog --bin turnstat -- \
        summarize "$committed" > /dev/null
done

echo "==> turnheal gate"
# The online-reconfiguration gate: a short seeded chaos storm must soak
# clean in both engines (sanitizer, delivered floor, a checker-validated
# certificate for every epoch), two same-seed runs must produce
# byte-identical healing logs, the log must replay through turnstat, and
# the self-test (--inject-bad swaps in a stale certificate) must be
# caught by the independent checker.
cargo run --offline --quiet -p turnroute-experiments --bin exp -- \
    chaos --quick --seed 7 --out "$lint_tmp/heal_a" 2> /dev/null
cargo run --offline --quiet -p turnroute-experiments --bin exp -- \
    chaos --quick --seed 7 --out "$lint_tmp/heal_b" 2> /dev/null
cmp "$lint_tmp/heal_a/chaos_heal.ttr" "$lint_tmp/heal_b/chaos_heal.ttr"
cmp "$lint_tmp/heal_a/chaos.md" "$lint_tmp/heal_b/chaos.md"
# The healing log is a sealed TTRL stream: turnstat must replay it.
cargo run --offline --quiet -p turnroute-obslog --bin turnstat -- \
    replay "$lint_tmp/heal_a/chaos_heal.ttr" --out "$lint_tmp/heal_replay.json" 2> /dev/null
test -s "$lint_tmp/heal_replay.json"
grep -q "every epoch certified: yes" "$lint_tmp/heal_a/chaos.md"
cargo run --offline --quiet -p turnroute-experiments --bin exp -- \
    chaos --quick --seed 7 --inject-bad --out "$lint_tmp/heal_bad" 2> /dev/null
grep -q "self-test ok" "$lint_tmp/heal_bad/chaos.md"

echo "==> turnscope gate"
# The streaming-telemetry gate: the canonical recorded run seals
# telemetry frames into the log, so exporting them twice must be
# byte-identical — as must the export of the other same-seed recording,
# since the frame stream rides the one event vocabulary — and
# re-deriving frames + alerts from the raw event stream must reproduce
# the sealed ones exactly. The self-test must
# reject tampered frame payloads (length and version) and see a planted
# saturation ramp trip the blocked-mass detector; the scope study must
# call its planted collapse ahead of time while staying silent on the
# clean heavy-load baseline.
cargo run --offline --quiet -p turnroute-obslog --bin turnstat -- \
    frames "$lint_tmp/trace_a/run.ttr" --out "$lint_tmp/frames_a.jsonl" 2> /dev/null
cargo run --offline --quiet -p turnroute-obslog --bin turnstat -- \
    frames "$lint_tmp/trace_a/run.ttr" --out "$lint_tmp/frames_b.jsonl" 2> /dev/null
cmp "$lint_tmp/frames_a.jsonl" "$lint_tmp/frames_b.jsonl"
cargo run --offline --quiet -p turnroute-obslog --bin turnstat -- \
    frames "$lint_tmp/trace_b/run.ttr" --out "$lint_tmp/frames_b.jsonl" 2> /dev/null
cmp "$lint_tmp/frames_a.jsonl" "$lint_tmp/frames_b.jsonl"
test -s "$lint_tmp/frames_a.jsonl"
cargo run --offline --quiet -p turnroute-obslog --bin turnstat -- \
    frames "$lint_tmp/trace_a/run.ttr" --check > "$lint_tmp/frames_check.log"
grep -q "frames match" "$lint_tmp/frames_check.log"
if cargo run --offline --quiet -p turnroute-obslog --bin turnstat -- \
    frames "$lint_tmp/trace_a/run.ttr" --inject-bad \
    > "$lint_tmp/frames_bad.log" 2>&1; then
    echo "turnstat frames --inject-bad unexpectedly passed; the decoder is blind" >&2
    exit 1
fi
grep -q "rejected" "$lint_tmp/frames_bad.log"
grep -q "planted-saturation" "$lint_tmp/frames_bad.log"
grep -q "self-test ok" "$lint_tmp/frames_bad.log"
cargo run --offline --quiet -p turnroute-experiments --bin exp -- \
    scope --quick --seed 7 --out "$lint_tmp/scope" 2> /dev/null
grep -q '\*\*PASS\*\*' "$lint_tmp/scope/scope.md"

echo "==> fault-injection group"
# The fault subsystem's own gates, runnable in isolation: determinism and
# degradation tests in both simulators, the sweep harness, and the
# workspace deadlock-freedom-under-faults suite.
cargo test -p turnroute-sim --offline --quiet fault
cargo test -p turnroute-vc --offline --quiet fault
cargo test -p turnroute-experiments --offline --quiet faults
cargo test -p turnroute --offline --quiet --test fault_tolerance

echo "==> derived-state group"
# The engine's derived state, runnable in isolation: the unit tests of
# `sim::engine::derived` (route memo, arrival calendar, active-source set
# with its parked sources, queue-sample set, waiting/awake head sets,
# frozen worms: the exact work counters they pin, their wake and thaw
# events, nothing allocated by construction, nothing kept by restore) and
# of the occupied-slot set inside the flit buffers; then the engine
# against one restored from its own snapshot before every cycle (no memo,
# every source polled, every queue sampled, every head awake, nothing
# frozen) through faults and heals, quarantine and hold, restore from
# another history, timeouts in deep buffers, windows opened late, the
# misroute budget, routing delay, every input policy, shared links and
# the degenerate networks; the injection-buffer regression (a head enters
# only an empty injection buffer); and the five work counters pinned on
# both adapters. (In this debug build every cycle of every other test
# also checks each skip against the work it saved.)
cargo test -p turnroute-sim --lib --offline --quiet -- engine::derived flits::
cargo test -p turnroute --offline --quiet --test sim_properties -- \
    memo active_set queue_sample sleep injection_takes work_counters

echo "==> verdict group"
# Deadlock freedom, connectivity and progress have one answer each, the
# checked certificate and the checked progress claim, runnable in
# isolation: the unit tests of `analysis::verify` (xy all green, fully
# adaptive failing only on its witness cycle, x-only failing
# connectivity, fault-masked relations healthy, cut by one link,
# partitioned by one node, and the unproductive or unbuilt move each
# per-move check names); `check_fuzz`, which feeds the checker those
# verdicts trust seeded mutations of real certificates and progress
# claims (every breaking one rejected, none a panic, the unmutated ones
# accepted), the paper's Theorem 2 and 5 numberings as certificates, and
# pins the prover's hop distances; the lint
# unit tests (the matrix and claims that read the verdict); then the
# facade's one-call verification of every shipped algorithm, degenerate
# networks included, and deadlock freedom under random fault patterns.
cargo test -p turnroute-analysis --lib --offline --quiet -- verify:: lint::
cargo test -p turnroute-analysis --offline --quiet --test check_fuzz
cargo test -p turnroute --offline --quiet --test verifier_all --test fault_tolerance

if [[ $full -eq 1 ]]; then
    echo "==> cargo build --release"
    cargo build --workspace --release --offline
    echo "==> exp smoke runs"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp" "$lint_tmp"' EXIT
    cargo run --release --offline -p turnroute-experiments --bin exp -- \
        fig13 --quick --out "$tmp" --metrics-out "$tmp/metrics.json"
    cargo run --release --offline -p turnroute-experiments --bin exp -- \
        fig1 --trace --out "$tmp"
    # The ring trace stores the same events the log does: same run, same
    # postmortem, byte for byte.
    cargo run --release --offline -p turnroute-experiments --bin exp -- \
        fig1 --trace --out "$tmp/again"
    cmp "$tmp/fig1_postmortem.jsonl" "$tmp/again/fig1_postmortem.jsonl"
    cargo run --release --offline -p turnroute-experiments --bin exp -- \
        faults --quick --out "$tmp"
    test -s "$tmp/metrics.json"
    test -s "$tmp/fig1_postmortem.jsonl"
    test -s "$tmp/faults.csv"

    echo "==> derived-state group, release"
    # The same property tests where the debug cross-checks are compiled
    # out: the engine restored from its own snapshot before every cycle
    # is the only reference, as it is for every release-built user.
    cargo test -p turnroute --release --offline --quiet --test sim_properties -- \
        memo active_set queue_sample sleep injection_takes work_counters

    echo "==> committed analysis artifacts reproduce"
    # The full matrices are deterministic, so the committed artifacts are
    # a behavioural fingerprint of the engine and the analysis: a stale
    # artifact, or a change that shifts simulated behaviour, fails here
    # instead of being found by hand (about 10 s in release). The chaos
    # soak and the fault sweep at full scale (about 40 s more) are the
    # fingerprints of the degraded-mode path: the engine's fault-aware
    # arbitration and every healing certificate run one function,
    # `model::degraded_route`, and these five files move if it does.
    # `exp nonminimal` and `exp node-delay` fingerprint the misroute
    # budget and `routing_delay`, the two paths the route memo sits
    # next to. `exp vc-ablation` and `exp synth` (about 20 s) fingerprint
    # the virtual-channel adapter over double-y and over tabulated
    # relations. `exp numbering` (under a second) is the paper's Theorem 2
    # and 5 numberings, each validated by the certificate checker.
    cargo run --release --offline --quiet -p turnroute-analysis --bin turnprove -- \
        --out "$tmp/turnprove.json" > /dev/null
    cargo run --release --offline --quiet -p turnroute-analysis --bin turnsynth -- \
        --out "$tmp/turnsynth.json" > /dev/null
    cargo run --release --offline --quiet -p turnroute-analysis --bin turnlint -- \
        --out "$tmp/turnlint.json" > /dev/null
    cargo run --release --offline --quiet -p turnroute-analysis --bin turncheck -- \
        --out "$tmp/mc.json" --ttr-out "$tmp/mc_counterexample.ttr" > /dev/null
    cargo run --release --offline --quiet -p turnroute-experiments --bin exp -- \
        chaos --out "$tmp/full" > /dev/null 2>&1
    cargo run --release --offline --quiet -p turnroute-experiments --bin exp -- \
        faults --out "$tmp/full" > /dev/null 2>&1
    cargo run --release --offline --quiet -p turnroute-experiments --bin exp -- \
        nonminimal --out "$tmp/full" > /dev/null 2>&1
    cargo run --release --offline --quiet -p turnroute-experiments --bin exp -- \
        node-delay --out "$tmp/full" > /dev/null 2>&1
    cargo run --release --offline --quiet -p turnroute-experiments --bin exp -- \
        vc-ablation --out "$tmp/full" > /dev/null 2>&1
    cargo run --release --offline --quiet -p turnroute-experiments --bin exp -- \
        synth --out "$tmp/full" > /dev/null 2>&1
    cargo run --release --offline --quiet -p turnroute-experiments --bin exp -- \
        numbering --out "$tmp/full" > /dev/null 2>&1
    for artifact in turnprove.json turnsynth.json turnlint.json mc.json mc_counterexample.ttr \
        full/chaos.md full/chaos_heal.ttr full/faults.md full/faults.csv full/faults.json \
        full/nonminimal.md full/node_delay.md full/vc_ablation.md full/synth.md \
        full/numbering.md; do
        cmp "$tmp/$artifact" "results/$(basename "$artifact")"
    done

    echo "==> turnbench correctness"
    # The part of the benchmark that is not noisy: every workload at seed
    # 1 must reproduce its golden digests of the simulated results (plus
    # the Fig. 16 shape and the proof matrices' ok()), which turnbench
    # reports by exiting nonzero. Timing stays advisory on this box.
    # Then the self-test: with a golden bit flipped the same check must
    # fail (exit 1), or the gate is blind.
    bench=(cargo run --release --offline --quiet --manifest-path turnbench/Cargo.toml --)
    for workload in mesh_heavy mesh_light vc_heavy fig_sweep record_replay proof_matrix; do
        "${bench[@]}" --workload "$workload" --seed 1 --seconds 1 --trace 0 \
            > "$tmp/bench_$workload.json"
    done
    status=0
    "${bench[@]}" --workload mesh_light --seed 1 --seconds 1 --trace 0 --self-test \
        > /dev/null 2>&1 || status=$?
    if [[ $status -ne 1 ]]; then
        echo "turnbench --self-test exited $status, not 1; the golden check is blind" >&2
        exit 1
    fi
    # Advisory, never a gate: one short run on a shared box says little,
    # but a hot path that fell off a cliff shows even here.
    for workload in mesh_heavy mesh_light; do
        now="$(tail -n 1 "$tmp/bench_$workload.json" |
            sed -n 's/.*"sim_cycles_per_s":{"value":\([0-9.]*\).*/\1/p')"
        base="$(awk -v w="\"$workload\": {" 'index($0, w) { f = 1 } f && /"sim_cycles_per_s"/ { print; exit }' \
            turnbench/baseline.json | sed -n 's/.*"median": \([0-9.]*\).*/\1/p')"
        echo "advisory: $workload sim_cycles_per_s ${now:-?} (seed 1, 1 s)" \
            "vs turnbench/baseline.json median ${base:-?}"
    done
fi

echo "OK"
