#include "core/runtime_profiler.h"

#include "common/check.h"

namespace lp::core {

namespace {

sim::Task utilization_loop(sim::Simulator& sim,
                           const hw::GpuScheduler& scheduler,
                           DurationNs period,
                           std::function<void(double)> on_sample,
                           DurationNs busy_mark, TimeNs time_mark) {
  for (;;) {
    co_await sim.delay(period);
    const DurationNs busy = scheduler.busy_ns();
    const double util = static_cast<double>(busy - busy_mark) /
                        static_cast<double>(sim.now() - time_mark);
    busy_mark = busy;
    time_mark = sim.now();
    on_sample(util);
  }
}

}  // namespace

void sample_gpu_utilization(sim::Simulator& sim,
                            const hw::GpuScheduler& scheduler,
                            DurationNs period,
                            std::function<void(double)> on_sample) {
  LP_CHECK(period > 0);
  sim.spawn(utilization_loop(sim, scheduler, period, std::move(on_sample),
                             scheduler.busy_ns(), sim.now()));
}

UtilizationMonitor::UtilizationMonitor(sim::Simulator& sim,
                                       const hw::GpuScheduler& scheduler,
                                       DurationNs period)
    : sim_(&sim), scheduler_(&scheduler), period_(period) {
  LP_CHECK(period > 0);
}

void UtilizationMonitor::start() {
  LP_CHECK_MSG(!started_, "monitor already started");
  started_ = true;
  sample_gpu_utilization(*sim_, *scheduler_, period_,
                         [this](double util) { samples_.push_back(util); });
}

double UtilizationMonitor::mean() const {
  if (samples_.empty()) return 0.0;
  double total = 0.0;
  for (double s : samples_) total += s;
  return total / static_cast<double>(samples_.size());
}

}  // namespace lp::core
