// perfbench: the repository benchmark binary. Runs one workload for a
// fixed wall-clock budget, checks its outputs, and prints its measurements.
// perfbench/run.py builds this binary and turns its last line into the
// benchmark's result; see README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR
//
// Standard output: "info" lines (environment, output digest, operation
// counts), then one JSON line
//   {"correct":..., "attempted":..., "failed":..., "values":{name: value}}
// holding the end-to-end values (trace 0) or the per-layer values
// (trace 1). Errors go to standard error; exit code 2 on bad usage.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/thread_pool.h"
#include "workloads.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

constexpr double kRotationPeriodS = 0.1;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload assess_tpch|advise_tpcds|"
               "serve_mixed --seed N --seconds S --trace 0|1 --bin-dir DIR\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, RunOptions* opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts->workload = value;
    } else if (flag == "--seed") {
      opts->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opts->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      opts->trace = std::string(value) == "1";
    } else if (flag == "--bin-dir") {
      opts->bin_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !opts->workload.empty() && opts->seconds > 0 &&
         !opts->bin_dir.empty();
}

void PrintJsonNumber(const char* name, double value, bool* first) {
  std::printf("%s\"%s\":%.17g", *first ? "" : ",", name, value);
  *first = false;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  if (!ParseArgs(argc, argv, &opts)) return Usage();
  opts.pool_threads = trap::common::GlobalPool().num_threads();

  // Every measurement runs under CPU rotation; see probe.h. With one pool
  // lane the workload's compute is this thread (and the serve server).
  perfbench::CpuRotation rotation(kRotationPeriodS);
  opts.rotation = &rotation;
  RunResult result;
  const double wall_start = perfbench::NowS();
  const double cpu_start = perfbench::CpuS();
  if (opts.workload == "assess_tpch") {
    perfbench::RunAssessTpch(opts, &result);
  } else if (opts.workload == "advise_tpcds") {
    perfbench::RunAdviseTpcds(opts, &result);
  } else if (opts.workload == "serve_mixed") {
    perfbench::RunServeMixed(opts, &result);
  } else {
    return Usage();
  }
  const double wall_s = perfbench::NowS() - wall_start;
  const double cpu_s = perfbench::CpuS() - cpu_start;

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const int busy = opts.pool_threads + result.load_processes;
  std::printf("info env: nproc=%ld pool_threads=%d load_processes=%d%s\n",
              nproc, opts.pool_threads, result.load_processes,
              busy > nproc ? " OVERSUBSCRIBED (pool + load > nproc)" : "");
  std::printf("info digest: %s seed=%" PRIu64 " first %" PRId64
              " %s(s) 0x%016" PRIx64 "\n",
              opts.workload.c_str(), opts.seed, result.digest_ops,
              result.op_unit.c_str(), result.digest);
  std::printf("info ops: %" PRId64 " %s(s) in %.3f s wall, %.3f s CPU; "
              "attempted %" PRId64 ", failed %" PRId64
              "; set-up repeated %zu times\n",
              result.ops, result.op_unit.c_str(), result.loop_s,
              result.loop_cpu_s, result.attempted, result.failed,
              result.setup_s.size());
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }

  std::printf("{\"correct\":%s,\"attempted\":%" PRId64 ",\"failed\":%" PRId64
              ",\"values\":{",
              result.correct ? "true" : "false", result.attempted,
              result.failed);
  bool first = true;
  if (!opts.trace) {
    PrintJsonNumber("setup_s", result.setup_s.Median(), &first);
    PrintJsonNumber("ops_per_cpu_s",
                    static_cast<double>(result.op_cpu_ms.size()) * 1e3 /
                        result.op_cpu_ms.Sum(),
                    &first);
    PrintJsonNumber("op_cpu_ms_p50", result.op_cpu_ms.Quantile(0.5), &first);
    PrintJsonNumber("op_cpu_ms_p90", result.op_cpu_ms.Quantile(0.9), &first);
    PrintJsonNumber("peak_rss_mb", perfbench::PeakRssMb(), &first);
  } else {
    result.layers["proc.cores_busy"] = cpu_s / wall_s;
    result.layers["obs.trace_overhead_frac"] =
        result.traced_ops_s / result.untraced_ops_s - 1.0;
    for (const auto& [name, value] : result.layers) {
      PrintJsonNumber(name.c_str(), value, &first);
    }
  }
  std::printf("}}\n");
  return 0;
}
