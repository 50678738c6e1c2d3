// The benchmark's workloads. Each runs its operations for a fixed
// wall-clock budget on inputs derived from the seed, checks every output,
// and fills a RunResult. With `trace` set, a workload instead spends half
// the budget untraced, replays exactly the same operations from fresh state
// with its layer wrappers on (the per-layer breakdown; serve_mixed replays
// its requests in process, through ServeService::Handle), and then runs its
// layer probes. See README.md for what each workload stresses.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;   // where trap_serve was built
  int pool_threads = 1;  // the global pool's size (TRAP_THREADS)
  CpuRotation* rotation = nullptr;  // the serve workload adds its server
};

struct RunResult {
  // Output checks. Any false check clears `correct` and records why.
  bool correct = true;
  std::vector<std::string> errors;
  void Fail(const std::string& why);

  int64_t attempted = 0;  // operations started
  int64_t failed = 0;     // operations that did not produce an OK result

  // End-to-end measurements (untraced run), in CPU time: ProcessCpuS,
  // plus the server's for serve_mixed (see probe.h). ops_per_cpu_s is
  // op_cpu_ms's count over its sum; op_cpu_ms_p50/p90 are its quantiles.
  Samples setup_s;          // CPU seconds of each repeated set-up
  Samples op_cpu_ms;        // CPU time of every completed operation
  int64_t ops = 0;          // completed operations
  double loop_cpu_s = 0.0;  // CPU time of the measured loop
  double loop_s = 0.0;      // wall time of the measured loop
  std::string op_unit;      // what one operation is, e.g. "cell"

  // Output digest over a fixed prefix of the operation stream: identical
  // for a given seed across repeats and pool sizes.
  uint64_t digest = 0;
  int64_t digest_ops = 0;

  // Load connections driven besides the pool (serve clients): the
  // oversubscription check compares pool + load to nproc.
  int load_processes = 0;

  // Per-layer metrics (traced run): name -> value. Names absent here are
  // reported as 0 (the layer did no work on this workload).
  std::map<std::string, double> layers;
  // Wall time of the same operations untraced and traced, for
  // obs.trace_overhead_frac.
  double untraced_ops_s = 0.0;
  double traced_ops_s = 0.0;
};

void RunAssessTpch(const RunOptions& opts, RunResult* out);
void RunAdviseTpcds(const RunOptions& opts, RunResult* out);
void RunServeMixed(const RunOptions& opts, RunResult* out);

// Registry-derived layers over `ops` operations, from the deltas between
// two snapshots: what-if calls, misses, hit ratio, shape misses and
// deduplicated pairs; advisor rounds and what-if items; TRAP agent
// episodes and decode steps. Counts are per operation; trace.ops is the
// base.
void AddRegistryLayers(const Counts& before, const Counts& after, double ops,
                       RunResult* out);

// Cold-cache TryWorkloadCosts sweeps of `queries` x one single-column
// candidate per schema column, under explicit 1- and 4-lane pools, each
// repeated for at least `min_seconds`, with `rotation` paused. Fills
// engine.whatif.sweep_* layers.
void ProbeWhatIfSweeps(const trap::catalog::Schema& schema, uint64_t seed,
                       double min_seconds, CpuRotation* rotation,
                       RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
