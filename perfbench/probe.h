// Measurement helpers shared by the benchmark workloads: wall-clock
// stopwatches, sample sets with percentiles, deltas of the process-wide
// obs::MetricRegistry, process resource usage, and the checking/timing
// IndexAdvisor decorator. Everything here wraps the program's public API
// from outside; nothing under src/ is modified to be measured.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <sys/types.h>
#include <time.h>

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "catalog/schema.h"

namespace perfbench {

// Seconds on the monotonic clock.
double NowS();

// CPU seconds this process has run, all threads (CLOCK_PROCESS_CPUTIME_ID).
// The end-to-end timings use it rather than the wall clock: on a shared
// virtual machine the hypervisor takes the CPU away for up to a fifth of
// a run's wall time (steal time, /proc/stat), which the guest does not
// count as this process's CPU time. With one pool lane the workloads never wait
// on one another's threads, so their CPU time is the time they compute.
double ProcessCpuS();

// CPU seconds another process has run, all threads, on its process CPU
// clock (clock_getcpuclockid). For the serve workload's server.
class PeerCpuClock {
 public:
  explicit PeerCpuClock(pid_t pid);

  bool ok() const { return ok_; }
  // 0 when the clock cannot be read (the process has exited).
  double Read() const;

 private:
  clockid_t clock_{};
  bool ok_ = false;
};

// A bag of samples with linear-interpolation percentiles (numpy's default,
// "type 7"), so small sample counts still give a defined tail.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  // q in [0, 1]; 0 for an empty set.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

// Runs `fn` `repeats` times and returns the median wall seconds.
template <typename Fn>
double MedianSeconds(int repeats, Fn&& fn) {
  Samples s;
  for (int r = 0; r < repeats; ++r) {
    const double t = NowS();
    fn();
    s.Add(NowS() - t);
  }
  return s.Median();
}

// Name -> value of every registry sample (trap.whatif.cache.hits derived).
using Counts = std::map<std::string, int64_t, std::less<>>;
Counts SnapshotCounts();
// after[name] - before[name] (a metric absent from a snapshot counts 0).
int64_t Delta(const Counts& before, const Counts& after, std::string_view name);
// Sum of Delta over every metric named `prefix*suffix`.
int64_t DeltaMatching(const Counts& before, const Counts& after,
                      std::string_view prefix, std::string_view suffix);

// Peak resident set size in MiB: the larger of this process and its
// largest reaped child (the serve server, campaign workers).
double PeakRssMb();
// User + system CPU seconds of this process and its reaped children.
double CpuS();

uint64_t DoubleBits(double v);

// IndexAdvisor decorator: forwards TryRecommend to the wrapped advisor,
// checks that every recommendation fits its TuningConstraint (storage
// budget and index count, against `schema`), folds an order-independent
// fingerprint of (workload, recommendation) pairs for the output digest,
// and -- when `timed` -- records per-call wall time. Thread-safe: TRAP's
// RL trainer may consult the victim from pool threads.
class CheckedAdvisor : public trap::advisor::IndexAdvisor {
 public:
  CheckedAdvisor(std::unique_ptr<trap::advisor::IndexAdvisor> inner,
                 const trap::catalog::Schema& schema);

  std::string name() const override { return name_; }
  trap::common::StatusOr<trap::engine::IndexConfig> TryRecommend(
      const trap::workload::Workload& w,
      const trap::advisor::TuningConstraint& constraint,
      const trap::common::EvalContext& ctx) override;

  void set_timed(bool timed) { timed_ = timed; }
  // Zeroes the time, latency, error and fingerprint accumulators (the
  // violation record is kept: a violation anywhere fails the run).
  void ResetStats();

  double seconds() const;
  // NowS() at the start of the earliest timed call since ResetStats(), or
  // -1 when there was none.
  double first_call_s() const;
  Samples latencies_ms() const;
  int64_t errors() const;
  uint64_t fingerprint() const;
  int64_t violations() const;
  std::string first_violation() const;

 private:
  std::unique_ptr<trap::advisor::IndexAdvisor> inner_;
  const trap::catalog::Schema* schema_;
  std::string name_;
  bool timed_ = false;

  mutable std::mutex mu_;
  double seconds_ = 0.0;
  double first_call_s_ = -1.0;
  Samples latencies_ms_;
  int64_t errors_ = 0;
  uint64_t fingerprint_ = 0;
  int64_t violations_ = 0;
  std::string first_violation_;
};

// Moves the constructing thread, and optionally one other process, round
// robin over the CPUs this process may run on, one step every `period_s`,
// from a background thread. On a shared machine one CPU can run 20-30%
// slower than another for minutes (another tenant on its sibling), so a
// run pinned wherever the scheduler first put it would carry that CPU's
// speed; rotating makes every run sample every CPU alike. The peer process
// (the serve workload's server) stays one CPU ahead, so client and server
// never share a CPU. No-op with a single CPU.
class CpuRotation {
 public:
  explicit CpuRotation(double period_s);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Rotates `pid` too from the next step on; 0 stops rotating a peer.
  void SetPeer(pid_t pid);

  // While alive, the rotation is paused and the rotated thread may run on
  // every allowed CPU again. Threads it creates meanwhile inherit that full
  // mask: a pool built under rotation would keep its workers on the one CPU
  // the thread held at that moment. A null rotation is a no-op.
  class Unpinned {
   public:
    explicit Unpinned(CpuRotation* rotation);
    ~Unpinned();
    Unpinned(const Unpinned&) = delete;
    Unpinned& operator=(const Unpinned&) = delete;

   private:
    CpuRotation* rotation_;
  };

 private:
  void Loop();

  const double period_s_;
  const pid_t tid_;
  std::vector<int> cpus_;

  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;    // guarded by mu_
  bool paused_ = false;  // guarded by mu_
  pid_t peer_ = 0;       // guarded by mu_
  std::thread thread_;  // last: starts after the members it reads
};

// True when `config` fits `constraint` on `schema`; otherwise false with a
// reason in *why.
bool FitsTuningConstraint(const trap::engine::IndexConfig& config,
                          const trap::advisor::TuningConstraint& constraint,
                          const trap::catalog::Schema& schema,
                          std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
