#include "core/suffix_executor.h"

#include <algorithm>
#include <limits>

#include "core/offload_runtime.h"
#include "core/runtime_profiler.h"

namespace lp::core {

PartitionMiss partition_miss(const RuntimeParams& params,
                             const partition::PartitionPlan& plan,
                             bool device) {
  const auto& part = device ? plan.device_part : plan.server_part;
  const std::size_t nodes = part ? part->backbone().size() : 0;
  const double base = device ? params.device_partition_base_sec
                             : params.server_partition_base_sec;
  const double per_node = device ? params.device_partition_per_node_sec
                                 : params.server_partition_per_node_sec;
  return {nodes, base + per_node * static_cast<double>(nodes)};
}

// ------------------------------------------------------------- estimator --

LoadEstimator::LoadEstimator(std::size_t k_window,
                             const predict::PredictorParams& params)
    : k_(k_window),
      predictor_(predict::make_predictor(params)) {}

double LoadEstimator::record(TimeNs now, double measured_sec,
                             double predicted_sec, bool contended) {
  if (predicted_sec <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  k_.record(measured_sec, predicted_sec, contended);
  return predictor_->observe(now, k_.k());
}

void LoadEstimator::reset_idle(TimeNs now) {
  k_.reset_idle();
  // The idle reset is a k mutation like any other: a forecast must not
  // extrapolate from the pre-reset values.
  predictor_->observe(now, k_.k());
}

void LoadEstimator::reset() {
  k_ = LoadFactorTracker(k_.window_capacity());
  predictor_->reset();
}

void LoadEstimator::import_state(const LoadFactorTracker::State& k,
                                 const predict::PredictorState& predictor) {
  k_.import_state(k);
  predictor_->import_state(predictor);
}

LoadSignal LoadEstimator::signal(TimeNs now, DurationNs horizon) const {
  LoadSignal sig;
  sig.k_now = k_.k();
  sig.k_forecast = sig.k_now;
  if (predictor_->samples() > 0) {
    // Constraint 1c applies to the forecast as much as to the measurement.
    sig.k_forecast = std::max(1.0, predictor_->forecast(horizon));
    sig.age_ns = now - predictor_->last_observed();
    sig.confidence = predictor_->confidence();
  }
  return sig;
}

// -------------------------------------------------------------- executor --

SuffixExecutor::SuffixExecutor(sim::Simulator& sim,
                               hw::GpuScheduler& scheduler,
                               const hw::GpuModel& gpu,
                               const RuntimeParams& params,
                               std::string context, std::uint64_t seed)
    : sim_(&sim),
      scheduler_(&scheduler),
      gpu_(&gpu),
      fused_(params.fused_server_kernels),
      util_threshold_(params.gpu_util_threshold),
      ctx_(scheduler.create_context(std::move(context))),
      rng_(seed) {}

sim::Task SuffixExecutor::run(const graph::Graph& g, std::size_t p,
                              std::size_t n, std::size_t batch,
                              double straggle, Run* out) {
  auto kernels = batch > 1 ? gpu_->batched_segment_kernels(g, p + 1, n, batch)
                 : fused_  ? gpu_->fused_segment_kernels(g, p + 1, n)
                           : gpu_->segment_kernels(g, p + 1, n);
  const double jf = gpu_->params().jitter_frac;
  for (auto& k : kernels) k = jittered(k, jf, rng_, straggle);
  // Contention snapshot: other tenants' kernels already queued when this
  // partition is submitted. Uncontended measurements calibrate the idle
  // baseline of k.
  out->contended = scheduler_->pending_kernels() > 4;
  out->begin = sim_->now();
  co_await scheduler_->run_batch(ctx_, std::move(kernels), batch);
  out->exec_sec = to_seconds(sim_->now() - out->begin);
}

void SuffixExecutor::start_gpu_watcher(DurationNs period,
                                       std::function<void()> on_idle) {
  sample_gpu_utilization(
      *sim_, *scheduler_, period,
      [threshold = util_threshold_, on_idle = std::move(on_idle)](
          double util) {
        if (util < threshold) on_idle();
      });
}

}  // namespace lp::core
