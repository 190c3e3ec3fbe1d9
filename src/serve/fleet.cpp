#include "serve/fleet.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "common/stats.h"
#include "common/table.h"

namespace lp::serve {

namespace {

/// One client's arrival stream: infer, record, think (`calm_gap`, or the
/// spec's burst gap while bursting), repeat. With burst_gap == 0 the burst
/// chain draws no randomness, so burst-free runs stay bit-identical.
sim::Task client_stream(sim::Simulator& sim, core::OffloadClient& client,
                        const TenantSpec& spec, DurationNs calm_gap, Rng rng,
                        std::vector<core::InferenceRecord>& out) {
  bool bursting = false;
  for (;;) {
    core::InferenceRecord rec;
    co_await client.infer(&rec);
    out.push_back(rec);
    DurationNs gap = calm_gap;
    if (spec.burst_gap > 0) {
      bursting = bursting ? !rng.bernoulli(spec.burst_exit_prob)
                          : rng.bernoulli(spec.burst_enter_prob);
      if (bursting) gap = spec.burst_gap;
    }
    if (spec.poisson_arrivals && gap > 0)
      gap = std::max<DurationNs>(
          1, static_cast<DurationNs>(
                 rng.exponential(static_cast<double>(gap))));
    if (gap > 0) co_await sim.delay(gap);
  }
}

sim::Task audit_loop(sim::Simulator& sim, DurationNs period,
                     std::function<void()> audit) {
  for (;;) {
    co_await sim.delay(period);
    audit();
  }
}

}  // namespace

void start_audits(sim::Simulator& sim, DurationNs period,
                  std::function<void()> audit) {
  LP_CHECK(period > 0);
  sim.spawn(audit_loop(sim, period, std::move(audit)));
}

std::vector<const core::InferenceRecord*> RunResult::steady(
    int tenant) const {
  std::vector<const core::InferenceRecord*> out;
  for (const ClientTrace& trace : clients) {
    if (tenant >= 0 && trace.tenant != static_cast<std::size_t>(tenant))
      continue;
    for (const core::InferenceRecord& rec : trace.records)
      if (rec.start >= warmup) out.push_back(&rec);
  }
  return out;
}

double RunResult::requests_per_sec() const {
  const auto rs = steady();
  const double window = to_seconds(duration - warmup);
  if (window <= 0.0) return 0.0;
  return static_cast<double>(rs.size()) / window;
}

TenantSummary RunResult::summarize(int tenant) const {
  TenantSummary s;
  s.name = tenant < 0 ? "fleet"
                      : tenant_names[static_cast<std::size_t>(tenant)];

  std::vector<double> all_ms, admitted_ms;
  std::map<std::size_t, int> p_counts;
  double k_total = 0.0, wait_total = 0.0;
  std::size_t slo_misses = 0, recovered_slo_misses = 0;
  for (const ClientTrace& trace : clients) {
    if (tenant >= 0 && trace.tenant != static_cast<std::size_t>(tenant))
      continue;
    const double slo = tenant_slo_sec[trace.tenant];
    for (const core::InferenceRecord& rec : trace.records) {
      if (rec.start < warmup) continue;
      // The shared taxonomy tally replaces the per-outcome switch the
      // summary used to hand-roll.
      s.outcomes.add(rec.outcome, rec.last_failure, rec.retries, rec.faults,
                     rec.breaker_forced_local);
      ++p_counts[rec.p];
      k_total += rec.k_used;
      if (rec.outcome == core::InferenceOutcome::kFailed) {
        // A dropped request has no completion latency; it still counts
        // against requests and (unconditionally) against the SLO.
        if (slo > 0.0) ++slo_misses;
        continue;
      }
      all_ms.push_back(rec.total_sec * 1e3);
      if (rec.outcome == core::InferenceOutcome::kAdmitted) {
        admitted_ms.push_back(rec.total_sec * 1e3);
        wait_total += rec.queue_wait_sec;
      }
      if (slo > 0.0 && rec.total_sec > slo) {
        ++slo_misses;
        if (rec.outcome == core::InferenceOutcome::kRecoveredLocal)
          ++recovered_slo_misses;
      }
    }
  }
  if (s.requests() == 0) return s;
  if (!all_ms.empty()) {
    s.mean_ms = mean_of(all_ms);
    s.p90_ms = percentile(all_ms, 90);
  }
  if (!admitted_ms.empty()) {
    s.admitted_mean_ms = mean_of(admitted_ms);
    s.admitted_p90_ms = percentile(admitted_ms, 90);
    s.mean_queue_wait_ms =
        wait_total / static_cast<double>(s.admitted()) * 1e3;
  }
  if (s.recovered() > 0)
    s.recovered_slo_miss_rate = static_cast<double>(recovered_slo_misses) /
                                static_cast<double>(s.recovered());
  s.mean_k = k_total / static_cast<double>(s.requests());
  int best = -1;
  for (const auto& [p, count] : p_counts)
    if (count > best) {
      best = count;
      s.modal_p = p;
    }
  s.shed_rate =
      static_cast<double>(s.degraded()) / static_cast<double>(s.requests());
  s.slo_miss_rate =
      static_cast<double>(slo_misses) / static_cast<double>(s.requests());
  const double window = to_seconds(duration - warmup);
  if (window > 0.0)
    s.requests_per_sec = static_cast<double>(s.requests()) / window;
  return s;
}

void RunResult::publish(obs::MetricsRegistry& registry,
                        const std::string& prefix) const {
  for (std::size_t t = 0; t < tenant_names.size(); ++t) {
    summarize(static_cast<int>(t))
        .publish(registry, prefix + ".t" + std::to_string(t) + '.' +
                               tenant_names[t]);
  }
}

std::vector<std::string> TenantSummary::table_row(int latency_digits) const {
  return {name,
          std::to_string(requests()),
          Table::num(mean_ms, latency_digits),
          Table::num(p90_ms, latency_digits),
          Table::num(admitted_p90_ms, latency_digits),
          Table::num(shed_rate * 100.0, 1) + "%",
          Table::num(mean_queue_wait_ms, latency_digits),
          std::to_string(modal_p),
          Table::num(mean_k, 1)};
}

void TenantSummary::publish(obs::MetricsRegistry& registry,
                            const std::string& prefix) const {
  outcomes.publish(registry, prefix);
  registry.gauge(prefix + ".mean_ms").set(mean_ms);
  registry.gauge(prefix + ".p90_ms").set(p90_ms);
  registry.gauge(prefix + ".admitted_p90_ms").set(admitted_p90_ms);
  registry.gauge(prefix + ".mean_queue_wait_ms").set(mean_queue_wait_ms);
  registry.gauge(prefix + ".mean_k").set(mean_k);
  registry.gauge(prefix + ".modal_p").set(static_cast<double>(modal_p));
  registry.gauge(prefix + ".shed_rate").set(shed_rate);
  registry.gauge(prefix + ".slo_miss_rate").set(slo_miss_rate);
  registry.gauge(prefix + ".requests_per_sec").set(requests_per_sec);
}

Population::Population(
    sim::Simulator& sim, const TestbedConfig& config,
    const core::PredictorBundle& predictors,
    const fault::FaultPlan* link_faults, double gap_exponent,
    const std::function<SessionHome(const core::GraphCostProfile&)>& open,
    RunResult* result) {
  LP_CHECK(!config.tenants.empty());
  LP_CHECK(gap_exponent >= 0.0);
  std::size_t total_clients = 0;
  for (const TenantSpec& spec : config.tenants) {
    LP_CHECK(spec.clients > 0);
    total_clients += static_cast<std::size_t>(spec.clients);
  }
  // Reserve up front: the spawned streams hold references into the traces.
  result->clients.reserve(total_clients);

  std::uint64_t index = 0;
  for (std::size_t t = 0; t < config.tenants.size(); ++t) {
    const TenantSpec& spec = config.tenants[t];
    result->tenant_names.push_back(spec.model);
    result->tenant_slo_sec.push_back(spec.slo_sec);
    auto tenant = std::unique_ptr<Tenant>(
        new Tenant{models::make_model(spec.model), nullptr});
    tenant->profile =
        std::make_unique<core::GraphCostProfile>(tenant->model, predictors);
    const core::GraphCostProfile& profile = *tenant->profile;
    tenants_.push_back(std::move(tenant));

    core::RuntimeParams runtime = config.runtime;
    runtime.slo_sec = spec.slo_sec;
    for (int c = 0; c < spec.clients; ++c) {
      ++index;
      const std::uint64_t seed =
          config.seed ^ (0x9e3779b97f4a7c15ull * (index + 1));
      // Link faults splice into every tenant trace: a blackout window
      // hits the whole radio environment, not one client.
      if (link_faults == nullptr) {
        links_.push_back(std::make_unique<net::Link>(
            sim, spec.upload, spec.download, spec.rtt, seed ^ 0x71));
      } else {
        links_.push_back(std::make_unique<net::Link>(
            sim, net::apply_link_faults(spec.upload, *link_faults),
            net::apply_link_faults(spec.download, *link_faults), spec.rtt,
            seed ^ 0x71));
        links_.back()->attach_faults(link_faults);
      }
      const SessionHome home = open(profile);
      clients_.push_back(std::make_unique<core::OffloadClient>(
          sim, cpu_, profile, *links_.back(), *home.server, spec.policy,
          runtime, seed ^ 0xc1, home.session));
      if (config.telemetry != nullptr) {
        // Client and link share one track so transfer spans nest under
        // the client's request spans.
        const std::string track = "t" + std::to_string(t) + '/' +
                                  spec.model + '#' + std::to_string(c);
        links_.back()->set_telemetry(config.telemetry, track);
        clients_.back()->set_telemetry(config.telemetry, track);
      }
      clients_.back()->start_runtime_profiler(config.profiler_period);
      result->clients.push_back(ClientTrace{t, {}});

      DurationNs gap = spec.request_gap;
      if (gap_exponent > 0.0 && gap > 0)
        gap = std::max<DurationNs>(
            1, static_cast<DurationNs>(
                   static_cast<double>(gap) *
                   std::pow(static_cast<double>(c + 1), gap_exponent)));
      sim.spawn(client_stream(sim, *clients_.back(), spec, gap,
                              Rng(seed ^ 0xa1),
                              result->clients.back().records));
    }
  }
}

FleetResult run_fleet(const FleetConfig& config,
                      const core::PredictorBundle& predictors) {
  LP_CHECK(config.duration > 0);

  sim::Simulator sim;
  const hw::GpuModel gpu;
  hw::GpuScheduler scheduler(sim);
  EdgeServerFrontend frontend(sim, scheduler, gpu, config.frontend,
                              config.runtime, config.seed ^ 0xf00d);
  if (config.telemetry != nullptr) frontend.set_telemetry(config.telemetry);
  frontend.start_gpu_watcher(config.watcher_period);
  const bool faulty = !config.faults.empty();
  if (faulty) frontend.attach_fault_plan(&config.faults);

  FleetResult result;
  result.warmup = config.warmup;
  result.duration = config.duration;
  const Population population(
      sim, config, predictors, faulty ? &config.faults : nullptr, 0.0,
      [&frontend](const core::GraphCostProfile& profile) {
        return SessionHome{&frontend, frontend.open_session(profile)};
      },
      &result);

  if (config.on_audit)
    start_audits(sim, config.audit_period,
                 [&] { config.on_audit(frontend, sim.now()); });

  sim.run_until(config.duration);
  if (config.on_audit) config.on_audit(frontend, sim.now());

  result.frontend = frontend.load_snapshot();
  // Per-tenant steady-state summaries land in the registry so one snapshot
  // export carries the whole experiment.
  if (config.telemetry != nullptr)
    result.publish(config.telemetry->metrics(), "fleet");
  return result;
}

}  // namespace lp::serve
