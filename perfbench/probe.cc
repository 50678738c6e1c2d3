#include "probe.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "obs/metrics.h"

namespace perfbench {

namespace adv = trap::advisor;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

PeerCpuClock::PeerCpuClock(pid_t pid)
    : ok_(clock_getcpuclockid(pid, &clock_) == 0) {}

double PeerCpuClock::Read() const {
  timespec ts{};
  if (!ok_ || clock_gettime(clock_, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Counts SnapshotCounts() {
  Counts out;
  for (const trap::obs::MetricSample& s :
       trap::obs::GlobalSnapshotWithDerived()) {
    out[s.name] = s.value;
  }
  return out;
}

int64_t Delta(const Counts& before, const Counts& after,
              std::string_view name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

int64_t DeltaMatching(const Counts& before, const Counts& after,
                      std::string_view prefix, std::string_view suffix) {
  int64_t total = 0;
  for (const auto& [name, value] : after) {
    (void)value;
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += Delta(before, after, name);
    }
  }
  return total;
}

double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double CpuS() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    getrusage(who, &u);
    total += static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
  }
  return total;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

bool FitsTuningConstraint(const trap::engine::IndexConfig& config,
                          const adv::TuningConstraint& constraint,
                          const trap::catalog::Schema& schema,
                          std::string* why) {
  if (constraint.max_indexes > 0 && config.size() > constraint.max_indexes) {
    *why = std::to_string(config.size()) + " indexes > max " +
           std::to_string(constraint.max_indexes);
    return false;
  }
  const int64_t bytes = config.TotalSizeBytes(schema);
  if (bytes > constraint.storage_budget_bytes) {
    *why = std::to_string(bytes) + " bytes > budget " +
           std::to_string(constraint.storage_budget_bytes);
    return false;
  }
  return true;
}

CheckedAdvisor::CheckedAdvisor(std::unique_ptr<adv::IndexAdvisor> inner,
                               const trap::catalog::Schema& schema)
    : inner_(std::move(inner)), schema_(&schema), name_(inner_->name()) {}

trap::common::StatusOr<trap::engine::IndexConfig> CheckedAdvisor::TryRecommend(
    const trap::workload::Workload& w, const adv::TuningConstraint& constraint,
    const trap::common::EvalContext& ctx) {
  const double start = timed_ ? NowS() : 0.0;
  trap::common::StatusOr<trap::engine::IndexConfig> result =
      inner_->TryRecommend(w, constraint, ctx);
  const double elapsed = timed_ ? NowS() - start : 0.0;
  std::string why;
  const bool fits =
      !result.ok() || FitsTuningConstraint(*result, constraint, *schema_, &why);
  const uint64_t pair =
      result.ok() ? trap::common::HashCombine(adv::WorkloadFingerprint(w),
                                              result->Fingerprint())
                  : 0;
  std::lock_guard<std::mutex> lock(mu_);
  seconds_ += elapsed;
  if (timed_) {
    latencies_ms_.Add(elapsed * 1e3);
    if (first_call_s_ < 0 || start < first_call_s_) first_call_s_ = start;
  }
  if (!result.ok()) ++errors_;
  fingerprint_ += pair;  // a sum: independent of call order across threads
  if (!fits) {
    if (violations_++ == 0) first_violation_ = name_ + ": " + why;
  }
  return result;
}

void CheckedAdvisor::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  seconds_ = 0.0;
  first_call_s_ = -1.0;
  latencies_ms_ = Samples();
  errors_ = 0;
  fingerprint_ = 0;
}

double CheckedAdvisor::seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seconds_;
}

double CheckedAdvisor::first_call_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_call_s_;
}

Samples CheckedAdvisor::latencies_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latencies_ms_;
}

int64_t CheckedAdvisor::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

uint64_t CheckedAdvisor::fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fingerprint_;
}

int64_t CheckedAdvisor::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

std::string CheckedAdvisor::first_violation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_violation_;
}

namespace {

void PinTo(pid_t pid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // A peer that has just exited is not an error worth reporting.
  (void)sched_setaffinity(pid, sizeof set, &set);
}

}  // namespace

CpuRotation::CpuRotation(double period_s)
    : period_s_(period_s), tid_(gettid()) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }
  if (cpus_.size() > 1) thread_ = std::thread([this] { Loop(); });
}

CpuRotation::~CpuRotation() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

CpuRotation::Unpinned::Unpinned(CpuRotation* rotation) : rotation_(rotation) {
  if (rotation_ == nullptr || rotation_->cpus_.size() < 2) return;
  std::lock_guard<std::mutex> lock(rotation_->mu_);
  rotation_->paused_ = true;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int cpu : rotation_->cpus_) CPU_SET(cpu, &all);
  (void)sched_setaffinity(rotation_->tid_, sizeof all, &all);
}

CpuRotation::Unpinned::~Unpinned() {
  if (rotation_ == nullptr || rotation_->cpus_.size() < 2) return;
  {
    std::lock_guard<std::mutex> lock(rotation_->mu_);
    rotation_->paused_ = false;
  }
  rotation_->wake_.notify_all();  // re-pin now, not a period from now
}

void CpuRotation::SetPeer(pid_t pid) {
  std::lock_guard<std::mutex> lock(mu_);
  peer_ = pid;
}

void CpuRotation::Loop() {
  const auto period = std::chrono::duration<double>(period_s_);
  size_t step = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (!paused_) {
      PinTo(tid_, cpus_[step % cpus_.size()]);
      if (peer_ > 0) PinTo(peer_, cpus_[(step + 1) % cpus_.size()]);
      ++step;
    }
    const bool was_paused = paused_;
    wake_.wait_for(lock, period,
                   [this, was_paused] { return stop_ || paused_ != was_paused; });
  }
}

}  // namespace perfbench
