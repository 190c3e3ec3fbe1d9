// Periodic measurement utilities shared by benches and tests.
#pragma once

#include <functional>
#include <vector>

#include "common/units.h"
#include "hw/gpu_scheduler.h"
#include "sim/simulator.h"

namespace lp::core {

/// Spawns the one GPU-utilization loop: every `period` (> 0) it hands
/// `on_sample` the scheduler's busy share of the period just ended. The
/// first period starts now. Both the monitor below and the servers' idle
/// watcher (SuffixExecutor::start_gpu_watcher) run on it.
void sample_gpu_utilization(sim::Simulator& sim,
                            const hw::GpuScheduler& scheduler,
                            DurationNs period,
                            std::function<void(double)> on_sample);

/// Samples GPU utilization over consecutive windows of `period` and stores
/// the series; used by the motivation experiments (Fig. 2) and to verify
/// that the load generator hits its utilization targets.
class UtilizationMonitor {
 public:
  UtilizationMonitor(sim::Simulator& sim, const hw::GpuScheduler& scheduler,
                     DurationNs period);

  /// Spawns the sampling process (call once).
  void start();

  const std::vector<double>& samples() const { return samples_; }

  /// Mean utilization over all completed windows (0 when none).
  double mean() const;

 private:
  sim::Simulator* sim_;
  const hw::GpuScheduler* scheduler_;
  DurationNs period_;
  bool started_ = false;
  std::vector<double> samples_;
};

}  // namespace lp::core
