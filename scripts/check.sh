#!/usr/bin/env bash
# CI gate for the TRAP tree. Runs, in order:
#   0. A fast-fail lint stage: builds only the trap_lint target and runs
#      the whole-project analysis (include-graph layering against
#      tools/lint/layers.txt, include cycles, Status-discipline,
#      determinism, and the per-file rule catalog) over src/ tests/ bench/
#      examples/ tools/ before any full build spends minutes compiling.
#      Also diffs the NOLINT suppression inventory against the committed
#      tools/lint/nolint_baseline.txt so a new escape hatch cannot land
#      without showing up in review.
#   1. Release build with TRAP_WERROR=ON (-Wall -Wextra -Wshadow -Werror)
#      and the full test suite -- which includes the lint_src entry, so
#      trap_lint runs over src/ tests/ bench/ examples/ tools/ here.
#   2. The same suite under TSan (TRAP_SANITIZE=thread) at TRAP_THREADS=4,
#      vetting the parallel what-if paths.
#   3. The same suite under ASan+UBSan (TRAP_SANITIZE=address,undefined)
#      with sanitizer recovery disabled, so any UB aborts the run.
#   4. A smoke-fuzz stage per build flavor: trap_fuzz sweeps all ten oracle
#      families at a fixed seed (smaller case counts under sanitizers so the
#      stage stays near 30 seconds end to end), then replays the committed
#      regression corpus.
#   5. A fault-injection campaign per flavor (plain + TSan): trap_fuzz
#      --fault-campaign sweeps every registered fault site at p=1.0 and
#      p=0.05 across the advisor suite; any crash, unaccounted fault, or
#      silent wrong answer fails the stage. The plain flavor additionally
#      reruns the campaign at TRAP_THREADS=1/4/8 and requires the reported
#      campaign digest to be bit-identical across thread counts.
#   5b. A distributed-campaign stage per flavor (plain + TSan): the sharded
#      coordinator/worker runner (trap_campaign) must reproduce the
#      single-process campaign digest bit-for-bit in-process, under 1 and 4
#      workers, and across a crash-interrupted run (injected worker.crash
#      faults + --stop-after-shards) resumed from its checkpoint journal.
#      The plain flavor also writes BENCH_campaign.json with a
#      campaign_cases_per_sec throughput counter.
#   6. An observability stage per flavor (plain + TSan): trap_trace replays
#      the deterministic trace scenario at TRAP_THREADS=1/4/8 and requires
#      the metric and trace digest lines to be bit-identical across thread
#      counts.
#   6b. A drift stage per flavor (plain + TSan): trap_drift replays the
#      canonical workload-drift scenario at TRAP_THREADS=1/4/8 and requires
#      the regret/metric/trace digest lines to be bit-identical across
#      thread counts, then diffs the scenario's JSON report against
#      tests/golden/drift_scenario.json.
#   6c. A serve stage per flavor (plain + TSan): trap_serve replays the
#      canonical 4-connection session script (tests/golden/
#      serve_session.script -- mixed methods, a mid-session snapshot
#      publish, a reset) at TRAP_THREADS=1/4/8 and requires the session
#      digest to be bit-identical across thread counts. The plain flavor
#      also writes BENCH_serve.json with a serve_requests_per_sec counter.
#   6d. An agent-numerics stage per flavor (plain + TSan): the golden
#      tests that pin the TRAP agent's training numerics bit for bit
#      (pretrain NLL and RL reward traces, greedy perturbation and trained
#      parameter fingerprints for TRAP/Seq2Seq/GRU/Transformer) and the
#      SWIRL/DQN recommendations run at TRAP_THREADS=1/4/8; every run must
#      pass and print identical agent digest lines.
#   7. A perf-gate stage (plain flavor only; sanitizers skew timings):
#      bench_engine_micro's shared what-if throughput probe, compared
#      against bench/baselines/engine_micro_baseline.json by
#      scripts/perf_gate.py. Single-thread whatif_pairs_per_sec must stay
#      inside the baseline's tolerance band; speedup_4_vs_1 is enforced
#      only on runners with >= 4 cores.
#   8. An advisor-registry audit: outside src/advisor/ nothing may
#      construct a concrete advisor directly -- every construction goes
#      through advisor::MakeAdvisor / MakeLearningAdvisor.
#   9. An exemption audit: the property-testing and campaign trees
#      (src/testing, src/campaign, tools/fuzz, tools/campaign) must lint
#      clean without a single NOLINT escape hatch.
#  10. A clang-format check on src/ tests/ bench/ tools/ (skipped with a
#      notice when clang-format is not installed; the lint_fixtures tree is
#      excluded -- its files exist to be lexed, not formatted).
#
# Usage: scripts/check.sh [jobs]    (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_suite() {
  local dir="$1"
  local fuzz_cases="$2"
  shift 2
  echo "==> configure ${dir}: $*"
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release "$@"
  echo "==> build ${dir}"
  cmake --build "${dir}" -j "${JOBS}"
  echo "==> ctest ${dir}"
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}")
  echo "==> smoke fuzz ${dir} (${fuzz_cases} cases, seed 1)"
  "${dir}/tools/fuzz/trap_fuzz" --cases "${fuzz_cases}" --seed 1
  "${dir}/tools/fuzz/trap_fuzz" --replay tests/corpus
}

# Runs the fault-injection campaign once and echoes its digest line, failing
# loudly if the campaign reports violations (nonzero exit) or never printed
# a digest.
campaign_digest() {
  local dir="$1"
  local out
  out="$("${dir}/tools/fuzz/trap_fuzz" --fault-campaign --seed 1)"
  local digest
  digest="$(printf '%s\n' "${out}" | grep "campaign digest:")"
  if [ -z "${digest}" ]; then
    echo "error: ${dir} campaign produced no digest" >&2
    exit 1
  fi
  printf '%s\n' "${digest}"
}

fault_campaign_stage() {
  local dir="$1"
  local threads="$2"   # space-separated TRAP_THREADS values to cross-check
  echo "==> fault campaign ${dir}"
  local ref=""
  local t
  for t in ${threads}; do
    local digest
    digest="$(TRAP_THREADS="${t}" campaign_digest "${dir}")"
    echo "    TRAP_THREADS=${t}: ${digest}"
    if [ -z "${ref}" ]; then
      ref="${digest}"
    elif [ "${digest}" != "${ref}" ]; then
      echo "error: campaign digest differs across thread counts" >&2
      exit 1
    fi
  done
}

# Distributed-campaign stage: every topology of the sharded
# coordinator/worker runner must land on the digest of the single-process
# trap_fuzz --fault-campaign run, including a crash-interrupted run (with
# injected worker crashes) resumed from its checkpoint journal.
campaign_digest_stage() {
  local dir="$1"
  local with_report="$2"   # "report" to also write BENCH_campaign.json
  echo "==> distributed campaign digests ${dir}"
  local ref
  ref="$(campaign_digest "${dir}")"
  echo "    single-process:      ${ref}"
  local w
  for w in 0 1 4; do
    local digest
    digest="$("${dir}/tools/campaign/trap_campaign" --workers "${w}" \
        --seed 1 --digest)"
    echo "    workers=${w}:           ${digest}"
    if [ "${digest}" != "${ref}" ]; then
      echo "error: trap_campaign --workers ${w} digest differs from" \
           "single-process run" >&2
      exit 1
    fi
  done
  # Interrupt a faulty run after 3 shards (worker crashes injected along
  # the way), then resume from the journal: still bit-identical. Shards
  # that exhausted retries under faults are simply re-run by the resume.
  local journal="${dir}/campaign_resume.journal"
  rm -f "${journal}"
  TRAP_CAMPAIGN_FAULTS='worker.crash@p=0.3' TRAP_CAMPAIGN_FAULT_SEED=7 \
    "${dir}/tools/campaign/trap_campaign" --workers 2 --seed 1 \
      --journal "${journal}" --stop-after-shards 3 --digest > /dev/null ||
    true   # nonzero exit = interrupted/degraded, expected here
  local digest
  digest="$("${dir}/tools/campaign/trap_campaign" --workers 2 --seed 1 \
      --journal "${journal}" --resume --digest)"
  echo "    interrupted+resumed: ${digest}"
  rm -f "${journal}"
  if [ "${digest}" != "${ref}" ]; then
    echo "error: resumed campaign digest differs from single-process run" >&2
    exit 1
  fi
  if [ "${with_report}" = "report" ]; then
    (cd "${dir}" && ./tools/campaign/trap_campaign --workers 4 --seed 1 \
        --report campaign > /dev/null)
    if ! grep -q '"campaign_cases_per_sec"' "${dir}/BENCH_campaign.json"; then
      echo "error: BENCH_campaign.json lacks campaign_cases_per_sec" >&2
      exit 1
    fi
  fi
}

# Replays the trap_trace scenario across thread counts and requires both
# digest lines (metrics + trace) to be bit-identical.
trace_digest_stage() {
  local dir="$1"
  local threads="$2"
  echo "==> trace digests ${dir}"
  local ref=""
  local t
  for t in ${threads}; do
    local digest
    digest="$(TRAP_THREADS="${t}" "${dir}/tools/trace/trap_trace" --digest)"
    echo "    TRAP_THREADS=${t}: $(printf '%s' "${digest}" | tr '\n' ' ')"
    if [ -z "${ref}" ]; then
      ref="${digest}"
    elif [ "${digest}" != "${ref}" ]; then
      echo "error: observability digest differs across thread counts" >&2
      exit 1
    fi
  done
}

# Replays the canonical drift scenario across thread counts, requires the
# regret/metric/trace digest lines to be bit-identical, then diffs the JSON
# report against the committed golden.
drift_digest_stage() {
  local dir="$1"
  local threads="$2"
  echo "==> drift digests ${dir}"
  local ref=""
  local t
  for t in ${threads}; do
    local digest
    digest="$(TRAP_THREADS="${t}" "${dir}/tools/drift/trap_drift" \
        --schema tpch --advisor greedy --episodes 8 --seed 1 --digest)"
    echo "    TRAP_THREADS=${t}: $(printf '%s' "${digest}" | tr '\n' ' ')"
    if [ -z "${ref}" ]; then
      ref="${digest}"
    elif [ "${digest}" != "${ref}" ]; then
      echo "error: drift digest differs across thread counts" >&2
      exit 1
    fi
  done
  "${dir}/tools/drift/trap_drift" --schema tpch --advisor greedy \
      --episodes 8 --seed 1 --format=json \
      --golden tests/golden/drift_scenario.json > /dev/null
}

# Replays the canonical 4-connection serve session (mixed methods, a
# mid-session snapshot publish, a reset) across thread counts and requires
# the session digest -- a fold over every response payload -- to be
# bit-identical: the server executes admitted requests serially, so intra-
# request parallelism must never leak into response bytes. The plain flavor
# also writes BENCH_serve.json with a serve_requests_per_sec counter.
serve_digest_stage() {
  local dir="$1"
  local threads="$2"
  local with_report="$3"   # "report" to also write BENCH_serve.json
  echo "==> serve session digests ${dir}"
  local ref=""
  local t
  for t in ${threads}; do
    local digest
    digest="$(TRAP_THREADS="${t}" "${dir}/tools/serve/trap_serve" \
        --script tests/golden/serve_session.script --connections 4 --digest)"
    echo "    TRAP_THREADS=${t}: ${digest}"
    if [ -z "${ref}" ]; then
      ref="${digest}"
    elif [ "${digest}" != "${ref}" ]; then
      echo "error: serve session digest differs across thread counts" >&2
      exit 1
    fi
  done
  if [ "${with_report}" = "report" ]; then
    (cd "${dir}" && ./tools/serve/trap_serve \
        --script ../tests/golden/serve_session.script --connections 4 \
        --digest --report serve > /dev/null)
    if ! grep -q '"serve_requests_per_sec"' "${dir}/BENCH_serve.json"; then
      echo "error: BENCH_serve.json lacks serve_requests_per_sec" >&2
      exit 1
    fi
  fi
}

# Runs the nn golden tests (trap_test's Golden/AgentGoldenTest cases and
# advisor_test's SWIRL/DQN recommendation pin) across thread counts: each
# run must pass, and the "agent digest" lines they print must be
# bit-identical across thread counts.
agent_digest_stage() {
  local dir="$1"
  local threads="$2"
  echo "==> agent digests ${dir}"
  local ref=""
  local t
  for t in ${threads}; do
    local out digest
    if ! out="$(TRAP_THREADS="${t}" "${dir}/tests/trap_test" \
          --gtest_filter='Golden/AgentGoldenTest.*' &&
        TRAP_THREADS="${t}" "${dir}/tests/advisor_test" \
          --gtest_filter='AdvisorTest.GoldenLearningAdvisorRecommendations')"
    then
      printf '%s\n' "${out}" >&2
      echo "error: ${dir} agent golden tests failed at TRAP_THREADS=${t}" >&2
      exit 1
    fi
    digest="$(printf '%s\n' "${out}" | grep '^agent digest' || true)"
    if [ -z "${digest}" ]; then
      echo "error: ${dir} agent golden tests printed no digest" >&2
      exit 1
    fi
    echo "    TRAP_THREADS=${t}: $(printf '%s' "${digest}" | cksum)"
    if [ -z "${ref}" ]; then
      ref="${digest}"
    elif [ "${digest}" != "${ref}" ]; then
      echo "error: agent digest differs across thread counts" >&2
      exit 1
    fi
  done
  printf '%s\n' "${ref}" | sed 's/^/    /'
}

# Runs the shared what-if throughput probe (median of 5, microbenches
# filtered out) and ratchets the result against the committed baseline.
perf_gate_stage() {
  local dir="$1"
  echo "==> perf gate ${dir}"
  (cd "${dir}/bench" &&
    ./bench_engine_micro --repeat=5 \
      --benchmark_filter='^$' > /dev/null)
  python3 scripts/perf_gate.py "${dir}/bench/BENCH_engine_micro.json" \
    bench/baselines/engine_micro_baseline.json
}

# Fast fail: build just the linter (in the plain flavor's build dir, so the
# configure work is reused by run_suite below) and run the whole-project
# analysis plus the suppression-baseline diff before the first full build.
lint_stage() {
  local dir="$1"
  echo "==> configure ${dir} (lint fast-fail)"
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release -DTRAP_WERROR=ON
  echo "==> build trap_lint"
  cmake --build "${dir}" -j "${JOBS}" --target trap_lint
  echo "==> trap_lint src tests bench examples tools"
  "${dir}/tools/lint/trap_lint" --root . src tests bench examples tools
  echo "==> NOLINT baseline diff"
  "${dir}/tools/lint/trap_lint" --root . --list-suppressions \
      src tests bench examples tools > "${dir}/nolint_inventory.txt"
  if ! diff -u tools/lint/nolint_baseline.txt "${dir}/nolint_inventory.txt"
  then
    echo "error: NOLINT inventory drifted from tools/lint/nolint_baseline.txt" >&2
    echo "       review the suppressions above, then regenerate with:" >&2
    echo "       trap_lint --root . --list-suppressions src tests bench examples tools > tools/lint/nolint_baseline.txt" >&2
    exit 1
  fi
}

lint_stage build-check

run_suite build-check 2000 -DTRAP_WERROR=ON
fault_campaign_stage build-check "1 4 8"
campaign_digest_stage build-check report
trace_digest_stage build-check "1 4 8"
drift_digest_stage build-check "1 4 8"
serve_digest_stage build-check "1 4 8" report
agent_digest_stage build-check "1 4 8"
perf_gate_stage build-check

TRAP_THREADS=4 run_suite build-check-tsan 600 -DTRAP_WERROR=ON \
  -DTRAP_SANITIZE=thread
fault_campaign_stage build-check-tsan "4"
campaign_digest_stage build-check-tsan ""
trace_digest_stage build-check-tsan "1 4 8"
drift_digest_stage build-check-tsan "1 4 8"
serve_digest_stage build-check-tsan "1 4 8" ""
agent_digest_stage build-check-tsan "1 4 8"

run_suite build-check-asan-ubsan 600 -DTRAP_WERROR=ON \
  -DTRAP_SANITIZE=address,undefined

echo "==> advisor registry audit (no direct construction outside src/advisor)"
if grep -rnE \
    'Make(Extend|Db2Advis|AutoAdmin|Drop|Relaxation|Dta|DrlIndex|DqnAdvisor|Mcts)\(|SwirlAdvisor\(' \
    src tests bench examples tools --include='*.cc' --include='*.h' \
    --include='*.cpp' | grep -v '^src/advisor/'; then
  echo "error: construct advisors via advisor::MakeAdvisor (advisor/registry.h)"
  exit 1
fi

echo "==> NOLINT exemption audit (src/testing, src/campaign, tools/fuzz, tools/campaign)"
if grep -rn "NOLINT" src/testing src/campaign tools/fuzz tools/campaign; then
  echo "error: property-testing trees must be lint-clean without exemptions"
  exit 1
fi

if command -v clang-format > /dev/null 2>&1; then
  echo "==> clang-format check (src tests bench tools)"
  find src tests bench tools \( -name '*.cc' -o -name '*.h' \) \
      -not -path '*/lint_fixtures/*' |
    xargs clang-format --dry-run -Werror
else
  echo "==> clang-format not installed; skipping format check"
fi

echo "All checks passed."
