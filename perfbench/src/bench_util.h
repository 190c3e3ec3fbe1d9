// Shared plumbing of the measuring program: wall-clock timing, peak RSS,
// the metric sink every workload fills, and the run's provenance.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host wall clock in seconds (steady, monotonic).
inline double wall_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host wall clock in integer nanoseconds, for trace timestamps.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this process (VmHWM) in MiB; 0 if unreadable.
double peak_rss_mb();

/// Median (type-7 percentile 50) of a non-empty sample; 0 when empty.
double median(std::vector<double> values);
/// Type-7 percentile q of a sample; 0 when empty.
double pct(std::vector<double> values, double q);

/// What one workload run measured. `attempted` / `failed` count the
/// operations the correctness checks covered; a failed check or an
/// exception counts as a failed operation and clears `correct`.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  ///< sample count behind the value (0 = n/a)
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Workload parameters and sizes, reported under provenance.
  std::map<std::string, std::string> params;
  /// Human-readable failed checks (empty when correct).
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  void param(const std::string& key, const std::string& value) {
    params[key] = value;
  }
  void param(const std::string& key, double value);
  void fail(const std::string& why) {
    correct = false;
    ++failed;
    failures.push_back(why);
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the traced run's span file (created by the caller).
  std::string out_dir = ".";
};

/// Host-speed probe. A shared host runs the same code at different speeds
/// from one minute to the next (other tenants on the cores, caches and
/// memory), and that drift swamps a change's effect on raw wall time. The
/// probe is a fixed single-thread kernel shaped like the simulator's hot
/// loop: a binary-heap event queue, scattered read-modify-writes over a
/// 4 MiB table (larger than a core's L2) and hash-map accumulation. A
/// workload samples it between units of its own work, so probe and work
/// see the same host; scale() then converts the run's host times to a
/// reference host on which one probe takes kRefSec. The probe is the
/// benchmark's code, never the program's, so a change to the program moves
/// the scaled metrics exactly as it moves raw time.
class HostProbe {
 public:
  /// Probe wall time on the reference host (the usual median on a 4-core
  /// 2.1 GHz Xeon VM), so scaled figures read close to raw ones there.
  static constexpr double kRefSec = 0.015;

  HostProbe();
  /// Runs the kernel once and records its wall time.
  void sample();
  /// Reference-host seconds per host second over this run: kRefSec over
  /// the median sample. Multiply a host time by it (divide a rate).
  double scale() const;
  std::size_t samples() const { return times_.size(); }
  /// Median probe wall time in seconds.
  double median_sec() const;

 private:
  struct Slot {
    std::uint64_t a = 0, b = 0;
    double x = 0.0, y = 0.0;
  };
  std::vector<Slot> slots_;
  std::vector<double> times_;
  std::uint64_t sink_ = 0;
};

/// Probe samples a workload takes before each unit of its work (a sim
/// repetition, a request): about 5% of a run, enough for a steady median.
constexpr int kProbesPerUnit = 3;

/// Threads of the server-side interpreter: min(2, nproc). A parallel stage
/// runs at the pace of its slowest thread, so on a shared host one that
/// fills every core measures the other tenants; two threads keep the
/// stage parallel and leave the host room.
int server_threads();

Result run_offload_exec(const RunOptions& options);
Result run_fleet_burst(const RunOptions& options);
Result run_cluster_skew(const RunOptions& options);

}  // namespace perfbench
