// FleetDriver: spawns a heterogeneous fleet of offloading clients against
// one EdgeServerFrontend and collects per-request records.
//
// Each tenant describes a model, a client count, a link, an arrival process
// and an SLO; run_fleet() builds the simulated testbed (shared GPU
// scheduler, one frontend, per-client links and sessions), runs it for the
// configured duration, and returns every InferenceRecord plus
// frontend-level counters. Deterministic given config.seed.
//
// The client side of the testbed (Population) and the result base
// (RunResult) are shared with the cluster layer's run_cluster(), which
// differs only in its servers: N frontends behind a ClusterRouter.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "net/bandwidth_trace.h"
#include "obs/taxonomy.h"
#include "obs/telemetry.h"
#include "serve/frontend.h"

namespace lp::serve {

/// One homogeneous group of clients (same model, link class and workload).
struct TenantSpec {
  std::string model = "alexnet";  ///< zoo name (models::make_model)
  int clients = 1;
  core::Policy policy = core::Policy::kLoadPart;
  net::BandwidthTrace upload = net::BandwidthTrace::constant(mbps(8));
  net::BandwidthTrace download = net::BandwidthTrace::constant(mbps(8));
  DurationNs rtt = milliseconds(2);
  /// Think time between a completed inference and the next request.
  DurationNs request_gap = milliseconds(5);
  /// Draw the think time exponentially with mean request_gap (Poisson-ish
  /// arrivals) instead of a fixed gap.
  bool poisson_arrivals = false;
  /// Markov-modulated bursts: with burst_gap > 0 each client flips between
  /// a calm state (mean gap = request_gap) and a burst state (mean gap =
  /// burst_gap, typically much smaller) after every request, entering with
  /// burst_enter_prob and leaving with burst_exit_prob. The default (0)
  /// draws no extra randomness, keeping legacy runs bit-identical.
  DurationNs burst_gap = 0;
  double burst_enter_prob = 0.05;
  double burst_exit_prob = 0.25;
  /// Per-request latency SLO: sets the EDF deadline and SLO accounting.
  /// 0 = no deadline.
  double slo_sec = 0.0;
};

/// The settings every testbed shares (run_fleet and run_cluster).
struct TestbedConfig {
  std::vector<TenantSpec> tenants;
  FrontendParams frontend;  ///< every server's frontend
  core::RuntimeParams runtime;
  DurationNs duration = seconds(90);
  DurationNs warmup = seconds(30);  ///< excluded from summaries
  DurationNs profiler_period = seconds(5);
  DurationNs watcher_period = seconds(10);
  std::uint64_t seed = 1;

  /// Telemetry sink wired through the whole testbed (frontends, links,
  /// clients); per-tenant summaries are published into its registry after
  /// the run. Null (default) = fully off: the run is bit-identical to one
  /// without telemetry. Must outlive the run.
  obs::Telemetry* telemetry = nullptr;
};

struct FleetConfig : TestbedConfig {
  /// Fault schedule for the whole testbed: link faults apply to every
  /// tenant link, server crashes and straggle windows to the frontend.
  /// Empty (default) = the legacy no-failure universe, bit-identical to
  /// runs that predate fault injection.
  fault::FaultPlan faults;

  /// Invariant auditing hook (the check subsystem arms it): when set, the
  /// callback runs against the live frontend every audit_period of sim
  /// time (receiving the current sim clock, so the auditor can also assert
  /// clock monotonicity) and once more after the run. The callback must be
  /// purely observational; with it unset the run is bit-identical to
  /// before the hook existed.
  std::function<void(const EdgeServerFrontend&, TimeNs)> on_audit;
  DurationNs audit_period = seconds(1);
};

/// The record stream of one client, tagged with its tenant index.
struct ClientTrace {
  std::size_t tenant = 0;
  std::vector<core::InferenceRecord> records;
};

/// Steady-state summary of one tenant (or of the whole fleet): a typed
/// view over the shared outcome taxonomy (obs::OutcomeCounts) plus derived
/// latency/SLO statistics. The count accessors forward to the tally — the
/// summary no longer maintains a parallel set of hand-rolled counters.
struct TenantSummary {
  std::string name;
  obs::OutcomeCounts outcomes;

  std::size_t requests() const { return outcomes.requests(); }
  std::size_t admitted() const { return outcomes.admitted(); }
  std::size_t degraded() const { return outcomes.degraded(); }
  std::size_t local() const { return outcomes.local(); }
  std::size_t recovered() const { return outcomes.recovered(); }
  std::size_t failed() const { return outcomes.failed(); }
  std::size_t retries() const { return outcomes.retries(); }
  std::size_t faults() const { return outcomes.faults(); }
  std::size_t breaker_forced_local() const {
    return outcomes.breaker_forced_local();
  }
  std::size_t timeouts() const { return outcomes.timeouts(); }
  std::size_t link_drops() const { return outcomes.link_drops(); }
  std::size_t server_downs() const { return outcomes.server_downs(); }
  /// Requests the dispatcher will-miss shed (degraded locally, typed
  /// FailureKind::kDeadlineShed).
  std::size_t deadline_sheds() const { return outcomes.deadline_sheds(); }

  double mean_ms = 0.0;      ///< over every completed request
  double p90_ms = 0.0;
  double admitted_mean_ms = 0.0;  ///< over admitted requests only
  double admitted_p90_ms = 0.0;
  double mean_queue_wait_ms = 0.0;  ///< admitted requests
  double mean_k = 1.0;
  std::size_t modal_p = 0;
  double shed_rate = 0.0;      ///< degraded / requests
  double slo_miss_rate = 0.0;  ///< total_sec > slo_sec (0 when no SLO)
  /// SLO misses among recovered-locally requests only: the price of riding
  /// out an outage on the device instead of dropping the request.
  double recovered_slo_miss_rate = 0.0;
  double requests_per_sec = 0.0;

  std::vector<std::string> table_row(int latency_digits = 1) const;

  /// Mirrors the tally and latency statistics into a registry under
  /// "<prefix>." (outcome/failure counters via OutcomeCounts::publish,
  /// latency and rate gauges alongside).
  void publish(obs::MetricsRegistry& registry,
               const std::string& prefix) const;
};

/// What every testbed run returns (FleetResult, cluster::ClusterResult):
/// the record stream of each client and what it takes to summarize them.
struct RunResult {
  std::vector<ClientTrace> clients;
  std::vector<std::string> tenant_names;
  std::vector<double> tenant_slo_sec;
  DurationNs warmup = 0;
  DurationNs duration = 0;

  /// Steady-state records of one tenant, or of every tenant (-1).
  std::vector<const core::InferenceRecord*> steady(int tenant = -1) const;
  /// Steady-state summary of one tenant, or of the whole run (-1).
  TenantSummary summarize(int tenant = -1) const;
  /// Completed requests per second of steady-state time.
  double requests_per_sec() const;
  /// Publishes every tenant's summary under "<prefix>.t<i>.<model>".
  void publish(obs::MetricsRegistry& registry,
               const std::string& prefix) const;
};

struct FleetResult : RunResult {
  /// Frontend load/conservation counters at the end of the run — one
  /// coherent snapshot instead of the ten scalars this used to copy.
  LoadSnapshot frontend;
};

/// Where a testbed homes a new client: the service it submits to and its
/// session there.
struct SessionHome {
  core::SuffixService* server = nullptr;
  std::uint64_t session = 0;
};

/// The client side of a testbed. For each tenant it builds the model and
/// its cost profile; for each client it builds a link, opens a session
/// through `open`, builds the OffloadClient, starts its runtime profiler
/// and spawns its arrival stream (fixed or Poisson think times, optional
/// Markov bursts), which appends to result->clients. `link_faults` (null =
/// none) is spliced into every link. The calm think time of a tenant's
/// client c is scaled by (c + 1)^gap_exponent (Zipf skew; 0 = none).
/// Everything it builds must outlive the simulation run.
class Population {
 public:
  Population(sim::Simulator& sim, const TestbedConfig& config,
             const core::PredictorBundle& predictors,
             const fault::FaultPlan* link_faults, double gap_exponent,
             const std::function<SessionHome(const core::GraphCostProfile&)>&
                 open,
             RunResult* result);

  /// Clients in creation order.
  const std::vector<std::unique_ptr<core::OffloadClient>>& clients() const {
    return clients_;
  }

 private:
  struct Tenant {
    graph::Graph model;
    std::unique_ptr<core::GraphCostProfile> profile;
  };
  const hw::CpuModel cpu_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<std::unique_ptr<core::OffloadClient>> clients_;
};

/// Spawns `audit` every `period` (> 0) of sim time.
void start_audits(sim::Simulator& sim, DurationNs period,
                  std::function<void()> audit);

/// Runs the fleet; deterministic given config.seed.
FleetResult run_fleet(const FleetConfig& config,
                      const core::PredictorBundle& predictors);

}  // namespace lp::serve
