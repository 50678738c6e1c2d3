#ifndef TRAP_TOOLS_LINT_RULES_H_
#define TRAP_TOOLS_LINT_RULES_H_

#include <string>
#include <vector>

#include "lint/lexer.h"

namespace trap::lint {

// One rule violation. Rendered as "path:line: rule-id: message".
struct Finding {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
};

// The rules, in the order they run. Each appends its findings to `out`
// without consulting NOLINT markers; suppression is applied centrally by
// Lint() so a marker both silences the finding and is itself auditable.
//
//   no-unseeded-randomness  rand()/std::random_device/std::mt19937 & friends
//                           outside src/common/rng.h -- all randomness must
//                           flow through a seeded common::Rng.
//   no-raw-thread           std::thread / std::jthread use outside
//                           src/common/thread_pool.* -- common::ThreadPool
//                           is the only threading primitive.
//   no-manual-lock          mutex.lock()/.unlock() member calls -- RAII
//                           guards (std::lock_guard / std::scoped_lock)
//                           only, so no path can leak a held lock.
//   no-wall-clock           time()/clock()/std::chrono::system_clock in
//                           src/ -- deterministic library code must not
//                           read wall clocks (bench/, tests/, examples/
//                           may time things).
//   banned-functions        atoi/atol/atof/strcpy/strcat/sprintf/gets --
//                           no silent-failure parsing, no unbounded
//                           buffer writes.
//   header-hygiene          every .h ends up with a well-formed include
//                           guard named TRAP_<PATH>_H_ (src/ prefix
//                           dropped) or #pragma once.
//   float-accumulation      `float` inside src/engine/ -- cost arithmetic
//                           is double end to end.
//   metric-name-style       string literals registered via
//                           MetricRegistry::counter()/histogram() must
//                           match trap.[a-z_]+(.[a-z_]+)+ -- the "trap."
//                           root plus at least two lower-case segments.
//   no-heap-on-hot-path     new / make_unique / make_shared /
//                           std::function inside the what-if cost kernels
//                           (src/engine/ cost_model, selectivity, what_if,
//                           scratch) and the nn autograd tape
//                           (src/nn/graph) -- the batched cost path and
//                           the recycled tape promise zero steady-state
//                           heap allocations; cold paths (plan
//                           construction, one-time static init,
//                           once-per-query shape builds) carry audited
//                           suppression markers.
//   no-abort-in-library     abort()/exit()/_Exit()/quick_exit() and
//                           TRAP_CHECK/TRAP_CHECK_MSG on the
//                           Status-converted evaluation paths (what-if
//                           engine, advisor entry points, perturber) --
//                           externally-reachable failures there must be
//                           trap::Status values, not process death.
//                           Retained true invariants carry a suppression
//                           marker naming this rule, with a reason.
//   nondeterministic-iteration
//                           range-for over std::unordered_map /
//                           std::unordered_set (or a pointer-keyed ordered
//                           map/set) in digest-feeding code (src/obs/, the
//                           fault registry, the what-if fingerprint cache,
//                           the fault campaign, the trace scenario) --
//                           iteration order there feeds digests that must
//                           be bit-identical across runs and thread
//                           counts. A loop whose body is genuinely
//                           order-insensitive carries the annotation
//                           'NOLINT(nondeterministic-iteration): <why>'.
//
// Project-wide rules (layering, include-cycle, status-discipline) live in
// project_rules.h; they need the whole-project index, not one file.
void CheckUnseededRandomness(const SourceFile& f, std::vector<Finding>* out);
void CheckRawThread(const SourceFile& f, std::vector<Finding>* out);
void CheckManualLock(const SourceFile& f, std::vector<Finding>* out);
void CheckWallClock(const SourceFile& f, std::vector<Finding>* out);
void CheckBannedFunctions(const SourceFile& f, std::vector<Finding>* out);
void CheckHeaderHygiene(const SourceFile& f, std::vector<Finding>* out);
void CheckFloatAccumulation(const SourceFile& f, std::vector<Finding>* out);
void CheckHeapOnHotPath(const SourceFile& f, std::vector<Finding>* out);
void CheckAbortInLibrary(const SourceFile& f, std::vector<Finding>* out);
void CheckMetricNameStyle(const SourceFile& f, std::vector<Finding>* out);
// Names declared in `f` whose type iterates in hash (or pointer-address)
// order: std::unordered_map / std::unordered_set, and ordered map/set
// keyed by a pointer. Exposed so the driver can taint a .cc file with the
// members its paired header declares.
std::vector<std::string> HashOrderedNames(const SourceFile& f);

// `extra_tainted` augments the names found in `f` itself (pass the paired
// header's HashOrderedNames(); empty is fine).
void CheckNondeterministicIteration(const SourceFile& f,
                                    const std::vector<std::string>& extra_tainted,
                                    std::vector<Finding>* out);

// The include guard name header-hygiene expects for `path`, e.g.
// "src/common/rng.h" -> "TRAP_COMMON_RNG_H_",
// "tools/lint/lexer.h" -> "TRAP_TOOLS_LINT_LEXER_H_".
std::string ExpectedGuard(const std::string& path);

// Runs every rule on `f`, drops findings whose line carries a matching
// "NOLINT(rule-id)" marker, and appends a "nolint-reason" finding for each
// marker that lacks the mandatory ": reason" tail. nolint-reason itself is
// not suppressible.
std::vector<Finding> Lint(const SourceFile& f);

// Renders findings as the stable-field-order JSON document behind
// `trap_lint --format=json`: {"version", "files_scanned", "num_findings",
// "findings": [{"path", "line", "rule", "message"}, ...]}. Field order and
// the caller's finding order are preserved verbatim so two runs over the
// same tree diff clean.
std::string RenderFindingsJson(const std::vector<Finding>& findings,
                               size_t files_scanned);

}  // namespace trap::lint

#endif  // TRAP_TOOLS_LINT_RULES_H_
