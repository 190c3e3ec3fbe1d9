// The server half of Figure 3, shared by both suffix services.
//
// core::OffloadServer (one tenant, a plain FIFO channel) and
// serve::EdgeServerFrontend (sessions, queueing, batching, faults,
// migration) run the same step for every dispatch: pay the partition-cache
// miss (Section III-A), run the jittered suffix kernels on the GPU with a
// contention snapshot, feed measured/predicted into k and its forecaster
// (Section III-C), and let a GPU-utilization watcher reset k when the GPU
// idles (Section IV). This file holds the one copy of each piece.
//
// The two services still differ in what k measures. OffloadServer divides
// the GPU execution time of the suffix, as the paper's runtime profiler
// does; the frontend divides the service time from enqueue (queue wait +
// preparation + execution), so its k carries queueing back to the client.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/rng.h"
#include "core/load_factor.h"
#include "core/load_signal.h"
#include "hw/gpu_model.h"
#include "hw/gpu_scheduler.h"
#include "partition/partitioner.h"
#include "predict/load_predictor.h"

namespace lp::core {

struct RuntimeParams;

/// Cost of a partition-cache miss on one side of the cut: partitioning the
/// graph and preparing the framework runtime, linear in the number of
/// backbone nodes that side runs (Section III-A).
struct PartitionMiss {
  std::size_t nodes = 0;
  double sec = 0.0;
};
PartitionMiss partition_miss(const RuntimeParams& params,
                             const partition::PartitionPlan& plan,
                             bool device);

/// A k series and the forecaster that shadows it. Every mutation of k (a
/// recorded execution, an idle reset, a wipe, a migration import) goes
/// through here, so the predictor sees the whole published series and the
/// last-value default forecasts exactly the reactive k.
class LoadEstimator {
 public:
  LoadEstimator(std::size_t k_window, const predict::PredictorParams& params);

  /// Records one measured/predicted pair (skipped when predicted_sec <= 0)
  /// and shows the new k to the predictor. Returns the signed error of the
  /// forecast that observation scored; NaN when nothing was scored.
  double record(TimeNs now, double measured_sec, double predicted_sec,
                bool contended);

  /// The GPU watcher's idle reset (LoadFactorTracker::reset_idle).
  void reset_idle(TimeNs now);

  /// Back to a fresh tracker and an empty predictor.
  void reset();

  /// Restores both halves from a migration export, bit-identically.
  void import_state(const LoadFactorTracker::State& k,
                    const predict::PredictorState& predictor);

  /// k now, k forecast `horizon` ahead (>= 1, constraint 1c), the age of
  /// the newest observation and the predictor's confidence. backlog_sec is
  /// left at 0: the queue belongs to the caller.
  LoadSignal signal(TimeNs now, DurationNs horizon) const;

  double k() const { return k_.k(); }
  const LoadFactorTracker& tracker() const { return k_; }
  const predict::LoadPredictor& predictor() const { return *predictor_; }

 private:
  LoadFactorTracker k_;
  std::unique_ptr<predict::LoadPredictor> predictor_;
};

/// Runs server suffixes on one GPU scheduler context and watches the GPU.
class SuffixExecutor {
 public:
  SuffixExecutor(sim::Simulator& sim, hw::GpuScheduler& scheduler,
                 const hw::GpuModel& gpu, const RuntimeParams& params,
                 std::string context, std::uint64_t seed);

  struct Run {
    TimeNs begin = 0;        ///< when the kernels were submitted
    double exec_sec = 0.0;   ///< measured (contended) GPU time
    bool contended = false;  ///< other work was queued at submission
  };

  /// Runs {Lp+1..Ln} of `g` as one dispatch serving `batch` jobs: batched
  /// kernels when batch > 1, otherwise fused or plain ones per
  /// RuntimeParams::fused_server_kernels. Every kernel is stretched by
  /// `straggle` and jittered.
  sim::Task run(const graph::Graph& g, std::size_t p, std::size_t n,
                std::size_t batch, double straggle, Run* out);

  /// Spawns the GPU-utilization watcher (Section IV): every `period` it
  /// measures the busy share of the period and calls `on_idle` when that
  /// share is below RuntimeParams::gpu_util_threshold.
  void start_gpu_watcher(DurationNs period, std::function<void()> on_idle);

 private:
  sim::Simulator* sim_;
  hw::GpuScheduler* scheduler_;
  const hw::GpuModel* gpu_;
  bool fused_;
  double util_threshold_;
  hw::GpuScheduler::ContextId ctx_;
  Rng rng_;
};

}  // namespace lp::core
