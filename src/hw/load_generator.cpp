#include "hw/load_generator.h"

#include "common/check.h"
#include "models/zoo.h"

namespace lp::hw {

double target_utilization(LoadLevel level) {
  switch (level) {
    case LoadLevel::k0:
      return 0.0;
    case LoadLevel::k30:
      return 0.3;
    case LoadLevel::k50:
      return 0.5;
    case LoadLevel::k70:
      return 0.7;
    case LoadLevel::k90:
      return 0.9;
    case LoadLevel::k100l:
    case LoadLevel::k100h:
      return 1.0;
  }
  return 0.0;
}

std::string load_level_name(LoadLevel level) {
  switch (level) {
    case LoadLevel::k0:
      return "0%";
    case LoadLevel::k30:
      return "30%";
    case LoadLevel::k50:
      return "50%";
    case LoadLevel::k70:
      return "70%";
    case LoadLevel::k90:
      return "90%";
    case LoadLevel::k100l:
      return "100%(l)";
    case LoadLevel::k100h:
      return "100%(h)";
  }
  return "?";
}

const std::vector<LoadLevel>& all_load_levels() {
  static const std::vector<LoadLevel> levels = {
      LoadLevel::k0,  LoadLevel::k30,   LoadLevel::k50,  LoadLevel::k70,
      LoadLevel::k90, LoadLevel::k100l, LoadLevel::k100h};
  return levels;
}

LoadGenerator::LoadGenerator(sim::Simulator& sim, GpuScheduler& scheduler,
                             const GpuModel& gpu, std::uint64_t seed)
    : sim_(&sim),
      scheduler_(&scheduler),
      rng_(seed),
      jitter_frac_(gpu.params().jitter_frac) {
  const auto alex = models::alexnet();
  periodic_kernels_ = gpu.segment_kernels(alex, 0, alex.backbone().size() - 1);
  for (auto k : periodic_kernels_) periodic_job_time_ += k;
  const auto heavy = models::resnet152();
  heavy_kernels_ = gpu.segment_kernels(heavy, 0, heavy.backbone().size() - 1);
}

std::vector<DurationNs> LoadGenerator::jitter(
    const std::vector<DurationNs>& kernels, Rng& rng) const {
  std::vector<DurationNs> out;
  out.reserve(kernels.size());
  for (auto k : kernels) out.push_back(jittered(k, jitter_frac_, rng));
  return out;
}

void LoadGenerator::start() {
  LP_CHECK_MSG(!started_, "load generator already started");
  started_ = true;
  for (int i = 0; i < kBackgroundProcesses; ++i) sim_->spawn(worker(i));
}

sim::Task LoadGenerator::worker(int index) {
  Rng rng = rng_.fork();
  const auto ctx =
      scheduler_->create_context("bg" + std::to_string(index));
  // Desynchronize workers so periodic levels don't arrive in bursts.
  co_await sim_->delay(static_cast<DurationNs>(
      rng.uniform() * static_cast<double>(periodic_job_time_) *
      kBackgroundProcesses));

  TimeNs next_start = sim_->now();
  for (;;) {
    const LoadLevel level = level_;
    switch (level) {
      case LoadLevel::k0:
        co_await sim_->delay(milliseconds(20));
        next_start = sim_->now();
        break;
      case LoadLevel::k100h:
        // ResNet152 back-to-back ("every 1 us"): effectively saturating.
        co_await scheduler_->run_job(ctx, jitter(heavy_kernels_, rng));
        co_await sim_->delay(microseconds(1));
        next_start = sim_->now();
        break;
      default: {
        const double util = target_utilization(level);
        const auto period = static_cast<DurationNs>(
            static_cast<double>(periodic_job_time_) * kBackgroundProcesses /
            util);
        co_await scheduler_->run_job(ctx, jitter(periodic_kernels_, rng));
        next_start += period;
        const TimeNs now = sim_->now();
        if (next_start > now)
          co_await sim_->delay(next_start - now);
        else
          next_start = now;  // saturated: fall back to back-to-back
        break;
      }
    }
  }
}

}  // namespace lp::hw
