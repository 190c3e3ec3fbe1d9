// Workloads fleet-burst and cluster-skew: the discrete-event serving
// testbeds (serve::run_fleet, cluster::run_cluster) on seeded configs.
//
// One run simulates kSubSeeds testbeds, each seeded from --seed, and
// repeats them round-robin until the time budget is spent. Host cost
// depends on what a seed draws (how often the upload traces move the cut,
// and so how many partition_at calls run inside the sim), so one run pools
// several independent draws rather than resting on one. Every repetition of
// a testbed must produce bit-identical records (a determinism check); the
// modeled metrics pool the testbeds' first repetitions, and host throughput
// uses each testbed's median repetition wall time. Each repetition carries
// one invariant audit (FleetAuditor / ClusterAuditor with the audit period
// equal to the duration, so it fires at the end and adds no host time) and
// a request-conservation check of the records against the frontends'
// submitted counters.
//
//   fleet-burst  — one edge server, two LoADPart tenants (AlexNet and
//     SqueezeNet) with Markov-modulated bursts over seeded piecewise
//     WiFi-like upload traces, SLOs, least-slack queueing with admission,
//     deadline admission, will-miss shedding and batching; ewma forecasts.
//     One deep queue, saturated only during bursts.
//   cluster-skew — eight servers and ~1k Zipf(1.2)-skewed clients behind
//     the cluster router: least-loaded placement, live migration, and
//     heartbeats over lossy control links (10% loss). Many shallow queues
//     and many periodic timers.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "check/invariants.h"
#include "cluster/fleet.h"
#include "common/rng.h"
#include "core/predictor.h"
#include "obs/telemetry.h"
#include "serve/fleet.h"

namespace perfbench {
namespace {

using namespace lp;

constexpr double kMiB = 1024.0 * 1024.0;

/// What either testbed returns, reduced to what the metrics read.
struct SimOutcome {
  std::vector<serve::ClientTrace> clients;
  std::vector<double> tenant_slo_sec;
  DurationNs warmup = 0;
  DurationNs duration = 0;
  std::vector<serve::LoadSnapshot> servers;
  bool cluster = false;
  std::uint64_t heartbeats = 0, migrations = 0, migrated_jobs = 0,
                aborted_migrations = 0, reroutes = 0, false_reroutes = 0;
  std::uint64_t audits = 0;
};

struct SimWorkload {
  std::vector<serve::TenantSpec> tenants;
  std::function<SimOutcome(const core::PredictorBundle&, obs::Telemetry*)> run;
};

/// Seeded piecewise WiFi-like upload trace: a log-space random walk over
/// [lo, hi] Mbps, one step every 250 ms, with occasional fades to lo.
net::BandwidthTrace wifi_trace(Rng& rng, DurationNs total, double lo_mbps,
                               double hi_mbps) {
  std::vector<net::BandwidthTrace::Step> steps;
  const double lo = std::log(lo_mbps), hi = std::log(hi_mbps);
  double x = rng.uniform(lo, hi);
  for (TimeNs t = 0; t < total; t += milliseconds(250)) {
    x = std::clamp(x + rng.normal(0.0, 0.45), lo, hi);
    const bool fade = rng.uniform() < 0.08;
    steps.push_back({t, mbps(std::exp(fade ? lo : x))});
  }
  return net::BandwidthTrace(std::move(steps));
}

/// Splits each tenant into `groups` equal tenants, each on its own seeded
/// upload trace: the fleet sees several independent radio environments, so
/// one unlucky trace cannot swing a whole run's modeled metrics.
std::vector<serve::TenantSpec> with_trace_groups(
    const std::vector<serve::TenantSpec>& tenants, int groups, Rng& rng,
    DurationNs total, double lo_mbps, double hi_mbps) {
  std::vector<serve::TenantSpec> out;
  for (int g = 0; g < groups; ++g)
    for (const auto& base : tenants) {
      serve::TenantSpec spec = base;
      spec.clients = base.clients / groups;
      spec.upload = wifi_trace(rng, total, lo_mbps, hi_mbps);
      out.push_back(spec);
    }
  return out;
}

// ------------------------------------------------------------ fleet-burst

constexpr DurationNs kFleetDuration = seconds(480);
constexpr DurationNs kFleetWarmup = seconds(20);

SimWorkload fleet_burst(std::uint64_t seed, Result* result) {
  Rng rng(seed ^ 0xf1ee7b5u);
  serve::FleetConfig config;
  config.duration = kFleetDuration;
  config.warmup = kFleetWarmup;
  config.seed = seed;
  config.profiler_period = seconds(2);
  config.frontend.policy = serve::QueuePolicy::kLeastSlack;
  config.frontend.queue_capacity = 64;
  config.frontend.admission_control = true;
  config.frontend.delay_budget_sec = 0.4;
  config.frontend.deadline_admission = true;
  config.frontend.shed_will_miss = true;
  config.frontend.max_batch = 4;
  config.runtime.predictor.kind = "ewma";

  // Calm clients think ~4 s between requests; a burst (entered after ~33
  // requests, left after ~20) sends every 20 ms. The server keeps up in calm
  // periods and saturates while enough clients burst together.
  serve::TenantSpec alex;
  alex.model = "alexnet";
  alex.clients = 112;
  alex.policy = core::Policy::kLoadPart;
  alex.download = net::BandwidthTrace::constant(mbps(100));
  alex.request_gap = milliseconds(4000);
  alex.poisson_arrivals = true;
  alex.burst_gap = milliseconds(20);
  alex.burst_enter_prob = 0.03;
  alex.burst_exit_prob = 0.05;
  alex.slo_sec = 0.5;

  serve::TenantSpec squeeze = alex;
  squeeze.model = "squeezenet";
  squeeze.clients = 88;
  squeeze.slo_sec = 0.45;

  config.tenants = with_trace_groups({alex, squeeze}, 8, rng, kFleetDuration,
                                     4, 120);
  result->param("clients", double(alex.clients + squeeze.clients));
  result->param("sim_duration_s", to_seconds(config.duration));
  result->param("sim_warmup_s", to_seconds(config.warmup));
  result->param("queue", "least-slack, admission 400 ms, deadline "
                         "admission, will-miss shedding, max_batch 4");
  result->param("predictor", "ewma");

  SimWorkload w;
  w.tenants = config.tenants;
  w.run = [config](const core::PredictorBundle& bundle,
                   obs::Telemetry* telemetry) {
    serve::FleetConfig c = config;
    check::FleetAuditor auditor;
    c.telemetry = telemetry;
    c.on_audit = std::ref(auditor);
    c.audit_period = c.duration;
    serve::FleetResult r = serve::run_fleet(c, bundle);
    SimOutcome out;
    out.clients = std::move(r.clients);
    out.tenant_slo_sec = r.tenant_slo_sec;
    out.warmup = r.warmup;
    out.duration = r.duration;
    out.servers = {r.frontend};
    out.audits = auditor.audits();
    return out;
  };
  return w;
}

// ----------------------------------------------------------- cluster-skew

constexpr DurationNs kClusterDuration = seconds(120);
constexpr DurationNs kClusterWarmup = seconds(10);
constexpr std::size_t kClusterServers = 8;

SimWorkload cluster_skew(std::uint64_t seed, Result* result) {
  Rng rng(seed ^ 0xc105e7u);
  cluster::ClusterConfig config;
  config.servers = kClusterServers;
  config.duration = kClusterDuration;
  config.warmup = kClusterWarmup;
  config.seed = seed;
  config.zipf_alpha = 1.2;
  config.router.placement = cluster::Placement::kLeastLoaded;
  config.router.rebalance = true;
  config.router.heartbeat_period = milliseconds(250);
  config.router.skew_threshold_sec = 0.05;
  config.router.min_dwell = seconds(1);
  config.router.detector.mode = cluster::DetectorParams::Mode::kDeadline;
  // 8 straight misses at 10% loss (p = 1e-8 per heartbeat) keep false
  // deaths out of the steady run; lost heartbeats still leave the router
  // acting on stale load snapshots.
  config.router.detector.suspect_misses = 3;
  config.router.detector.dead_misses = 8;
  config.router.control_seed = seed ^ 0xbea7u;
  config.frontend.policy = serve::QueuePolicy::kEdf;
  config.frontend.admission_control = true;
  config.frontend.delay_budget_sec = 0.3;
  config.heartbeat_faults.resize(kClusterServers);
  for (auto& plan : config.heartbeat_faults)
    plan.packet_loss(0, config.duration, 0.10);

  // Client i of a tenant thinks 150 ms * (i + 1)^1.2: a few hot clients
  // and a long cold tail per tenant.
  serve::TenantSpec alex;
  alex.model = "alexnet";
  alex.clients = 600;
  alex.policy = core::Policy::kLoadPart;
  alex.download = net::BandwidthTrace::constant(mbps(100));
  alex.request_gap = milliseconds(150);
  alex.slo_sec = 0.35;
  serve::TenantSpec squeeze = alex;
  squeeze.model = "squeezenet";
  squeeze.clients = 400;
  squeeze.slo_sec = 0.30;

  config.tenants = with_trace_groups({alex, squeeze}, 4, rng, kClusterDuration,
                                     8, 120);
  result->param("servers", double(kClusterServers));
  result->param("clients", double(alex.clients + squeeze.clients));
  result->param("zipf_alpha", 1.2);
  result->param("heartbeat_loss", 0.10);
  result->param("sim_duration_s", to_seconds(config.duration));
  result->param("sim_warmup_s", to_seconds(config.warmup));

  SimWorkload w;
  w.tenants = config.tenants;
  w.run = [config](const core::PredictorBundle& bundle,
                   obs::Telemetry* telemetry) {
    cluster::ClusterConfig c = config;
    check::ClusterAuditor auditor;
    c.telemetry = telemetry;
    c.on_audit = std::ref(auditor);
    c.audit_period = c.duration;
    cluster::ClusterResult r = cluster::run_cluster(c, bundle);
    SimOutcome out;
    out.clients = std::move(r.clients);
    out.tenant_slo_sec = r.tenant_slo_sec;
    out.warmup = r.warmup;
    out.duration = r.duration;
    out.servers = r.servers;
    out.cluster = true;
    out.heartbeats = r.heartbeats;
    out.migrations = r.migrations;
    out.migrated_jobs = r.migrated_jobs;
    out.aborted_migrations = r.aborted_migrations;
    out.reroutes = r.reroutes;
    out.false_reroutes = r.false_reroutes;
    out.audits = auditor.audits();
    return out;
  };
  return w;
}

// ------------------------------------------------------------- run loop

/// FNV-1a over every record's identity and timing bits.
std::uint64_t digest(const SimOutcome& o) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& c : o.clients)
    for (const auto& r : c.records) {
      mix(&r.start, sizeof r.start);
      mix(&r.p, sizeof r.p);
      mix(&r.total_sec, sizeof r.total_sec);
      mix(&r.outcome, sizeof r.outcome);
    }
  return h;
}

/// Audits and request conservation of one repetition; returns the number
/// of checks run and reports failures into *result.
std::uint64_t check_outcome(const SimOutcome& o, Result* result) {
  if (o.audits == 0) result->fail("invariant audit never ran");
  // Every record that left the device was submitted once, plus once per
  // retry; a client can have one more submission still in flight when the
  // run ends.
  std::uint64_t offloaded = 0;
  for (const auto& c : o.clients)
    for (const auto& r : c.records)
      if (r.outcome != core::InferenceOutcome::kLocalDecision)
        offloaded += 1 + static_cast<std::uint64_t>(r.retries);
  std::uint64_t submitted = 0;
  for (const auto& s : o.servers) submitted += s.submitted;
  if (submitted < offloaded || submitted > offloaded + o.clients.size())
    result->fail("record count " + std::to_string(offloaded) +
                 " does not match submitted " + std::to_string(submitted));
  return 2;
}

/// Independently seeded testbeds one run simulates.
constexpr std::size_t kSubSeeds = 4;

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) / double(v.size());
}

Result run_sim(const RunOptions& options,
               SimWorkload (*make)(std::uint64_t, Result*)) {
  Result result;
  std::vector<SimWorkload> ws;
  for (std::size_t k = 0; k < kSubSeeds; ++k)
    ws.push_back(make(options.seed * kSubSeeds + k, &result));
  result.param("testbeds", double(kSubSeeds));

  // Every repetition sets up afresh, then simulates. Set-up is what the
  // testbed takes from outside: the trained cost predictors. The testbed
  // builds its models and cost profiles itself, inside the timed run.
  // Spreading the set-ups over the run keeps setup_s from resting on one
  // short window of the host.
  std::vector<double> setup_s;
  std::optional<core::PredictorBundle> bundle;
  auto set_up = [&] {
    const double t0 = wall_sec();
    bundle.emplace(core::train_default_predictors());
    setup_s.push_back(wall_sec() - t0);
  };

  // Rounds of repetitions (one per testbed) until the budget is spent; at
  // least two rounds, so every testbed is checked against a repeat.
  std::vector<std::vector<double>> host_s(kSubSeeds);
  std::vector<SimOutcome> first(kSubSeeds);
  std::vector<std::uint64_t> first_digest(kSubSeeds);
  // A traced run spends half its budget untraced (the overhead baseline)
  // and half on traced rounds.
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  HostProbe probe;
  const double start = wall_sec();
  for (std::size_t rep = 0;; ++rep) {
    const std::size_t k = rep % kSubSeeds;
    if (k == 0 && rep >= 2 * kSubSeeds && wall_sec() - start >= budget) break;
    for (int s = 0; s < kProbesPerUnit; ++s) probe.sample();
    set_up();
    const double t0 = wall_sec();
    SimOutcome o = ws[k].run(*bundle, nullptr);
    host_s[k].push_back(wall_sec() - t0);
    std::uint64_t records = 0, lost = 0;
    for (const auto& c : o.clients) {
      records += c.records.size();
      for (const auto& r : c.records)
        if (r.outcome == core::InferenceOutcome::kFailed) ++lost;
    }
    result.attempted += records + check_outcome(o, &result);
    if (lost > 0) {
      result.fail(std::to_string(lost) + " requests failed");
      result.failed += lost - 1;
    }
    const std::uint64_t d = digest(o);
    if (host_s[k].size() == 1) {
      first[k] = std::move(o);
      first_digest[k] = d;
    } else if (d != first_digest[k]) {
      result.fail("testbed " + std::to_string(k) + " repetition " +
                  std::to_string(host_s[k].size()) +
                  " differs from its first (non-deterministic simulation)");
    }
  }
  result.param("rounds", double(host_s[0].size()));

  // Steady-state record view over every testbed, shared by both metric sets.
  struct Rec {
    const core::InferenceRecord* r;
    std::size_t testbed, tenant;
  };
  std::vector<Rec> steady;
  std::uint64_t all_records = 0;
  double steady_sec = 0.0, round_host_s = 0.0;
  for (std::size_t k = 0; k < kSubSeeds; ++k) {
    for (const auto& c : first[k].clients) {
      all_records += c.records.size();
      for (const auto& r : c.records)
        if (r.start >= first[k].warmup) steady.push_back(Rec{&r, k, c.tenant});
    }
    steady_sec += to_seconds(first[k].duration - first[k].warmup);
    round_host_s += median(host_s[k]);
  }
  std::size_t within = 0;
  std::vector<double> latency_ms;
  for (const Rec& x : steady) {
    if (x.r->outcome == core::InferenceOutcome::kFailed) continue;
    latency_ms.push_back(x.r->total_sec * 1e3);
    const double slo = first[x.testbed].tenant_slo_sec[x.tenant];
    if (slo <= 0.0 || x.r->total_sec <= slo) ++within;
  }
  result.param("steady_requests", double(steady.size()));

  // Host times in reference-host seconds (see HostProbe); raw figures and
  // the probe go to the report's parameters.
  const double scale = probe.scale();
  result.param("probe_ms", probe.median_sec() * 1e3);
  result.param("probe_samples", double(probe.samples()));
  result.param("raw_setup_s", median(setup_s));
  result.param("raw_req_per_host_s", double(all_records) / round_host_s);

  if (!options.trace) {
    result.set("setup_s", median(setup_s) * scale, "s", setup_s.size());
    result.set("req_per_host_s", double(all_records) / (round_host_s * scale),
               "1/s", host_s[0].size());
    result.set("latency_p50_ms", pct(latency_ms, 50), "ms", latency_ms.size());
    result.set("latency_p90_ms", pct(latency_ms, 90), "ms", latency_ms.size());
    result.set("goodput_per_s", double(within) / steady_sec, "1/s",
               steady.size());
    return result;
  }

  // ---- traced rounds: per-layer numbers from the first ----
  std::vector<std::unique_ptr<obs::Telemetry>> telemetry;
  std::vector<SimOutcome> traced(kSubSeeds);
  std::vector<std::vector<double>> traced_s(kSubSeeds);
  const double traced_start = wall_sec();
  for (std::size_t rep = 0;; ++rep) {
    const std::size_t k = rep % kSubSeeds;
    if (k == 0 && rep > 0 && wall_sec() - traced_start >= options.seconds / 2)
      break;
    obs::Telemetry discarded(/*tracing=*/true);
    if (rep < kSubSeeds)
      telemetry.push_back(std::make_unique<obs::Telemetry>(/*tracing=*/true));
    obs::Telemetry& sink = rep < kSubSeeds ? *telemetry[k] : discarded;
    const double t0 = wall_sec();
    SimOutcome o = ws[k].run(*bundle, &sink);
    traced_s[k].push_back(wall_sec() - t0);
    result.attempted += check_outcome(o, &result);
    if (digest(o) != first_digest[k])
      result.fail("telemetry changed the simulation");
    if (rep < kSubSeeds) traced[k] = std::move(o);
  }
  double round_traced_s = 0.0;
  for (const auto& t : traced_s) round_traced_s += median(t);
  result.set("obs.trace_overhead_ratio", round_traced_s / round_host_s,
             "ratio", traced_s[0].size());

  const double n = double(std::max<std::size_t>(1, steady.size()));
  std::vector<double> queue_ms, err_ms, upload_ms;
  double overhead_ms = 0, k_sum = 0, upload_mb = 0, bw_err = 0;
  std::size_t hits = 0, offloaded = 0, bw_samples = 0;
  for (const Rec& x : steady) {
    const auto& r = *x.r;
    overhead_ms += r.overhead_sec * 1e3;
    if (r.overhead_sec == 0.0) ++hits;
    k_sum += r.k_used;
    upload_mb += double(r.upload_bytes) / kMiB;
    if (r.outcome != core::InferenceOutcome::kLocalDecision) {
      ++offloaded;
      upload_ms.push_back(r.upload_sec * 1e3);
      const double truth =
          ws[x.testbed].tenants[x.tenant].upload.bandwidth_at(r.start);
      if (truth > 0.0 && r.bandwidth_est_bps > 0.0) {
        bw_err += std::abs(r.bandwidth_est_bps - truth) / truth;
        ++bw_samples;
      }
    }
    if (r.outcome == core::InferenceOutcome::kAdmitted) {
      queue_ms.push_back(r.queue_wait_sec * 1e3);
      err_ms.push_back(std::abs(r.predicted_sec - r.total_sec) * 1e3);
    }
  }

  // Counts are per testbed (the mean over the run's testbeds).
  const double testbeds = double(kSubSeeds);
  std::size_t cut_changes = 0;
  std::uint64_t submitted = 0, shed = 0, refused = 0, served = 0,
                dispatches = 0, deadline_shed = 0;
  std::vector<double> load_cv, mae, bias;
  for (std::size_t k = 0; k < kSubSeeds; ++k) {
    for (const auto& c : first[k].clients)
      for (std::size_t i = 1; i < c.records.size(); ++i)
        if (c.records[i].p != c.records[i - 1].p) ++cut_changes;
    std::vector<double> served_per_server;
    for (const auto& s : traced[k].servers) {
      submitted += s.submitted;
      shed += s.shed;
      refused += s.refused;
      served += s.served;
      dispatches += s.dispatches;
      deadline_shed += s.deadline_shed;
      served_per_server.push_back(double(s.served));
    }
    const double m = mean(served_per_server);
    double var = 0.0;
    for (double x : served_per_server) var += (x - m) * (x - m);
    var /= double(served_per_server.size());
    load_cv.push_back(m > 0 ? std::sqrt(var) / m : 0.0);
    const auto& metrics = telemetry[k]->metrics();
    if (const auto* g = metrics.find_gauge("predict.mae")) mae.push_back(g->value());
    if (const auto* g = metrics.find_gauge("predict.bias"))
      bias.push_back(g->value());
  }
  const double sub = double(std::max<std::uint64_t>(1, submitted));

  result.set("partition.hit_ratio", double(hits) / n, "ratio", steady.size());
  result.set("partition.overhead_ms_mean", overhead_ms / n, "ms",
             steady.size());
  result.set("core.cut_changes", double(cut_changes) / testbeds, "count");
  result.set("core.offload_share", double(offloaded) / n, "ratio",
             steady.size());
  result.set("core.pred_err_p90_ms", pct(err_ms, 90), "ms", err_ms.size());
  result.set("core.mean_k", k_sum / n, "k", steady.size());
  result.set("profile.train_s", median(setup_s), "s", setup_s.size());
  result.set("serve.queue_wait_p50_ms", pct(queue_ms, 50), "ms",
             queue_ms.size());
  result.set("serve.queue_wait_p90_ms", pct(queue_ms, 90), "ms",
             queue_ms.size());
  result.set("serve.batch_mean",
             dispatches ? double(served) / double(dispatches) : 0.0, "jobs");
  result.set("serve.shed_ratio", double(shed) / sub, "ratio");
  result.set("serve.refused_ratio", double(refused) / sub, "ratio");
  result.set("serve.deadline_shed", double(deadline_shed) / testbeds, "count");
  result.set("serve.dispatches", double(dispatches) / testbeds, "count");
  result.set("serve.slo_miss_ratio", 1.0 - double(within) / n, "ratio",
             steady.size());
  result.set("net.upload_ms_p50", pct(upload_ms, 50), "ms", upload_ms.size());
  result.set("net.upload_mb_per_req", upload_mb / n, "MiB", steady.size());
  result.set("net.bw_est_err_ratio", bw_samples ? bw_err / double(bw_samples) : 0.0,
             "ratio", bw_samples);
  if (mae.size() == kSubSeeds) result.set("predict.mae", mean(mae), "k");
  if (bias.size() == kSubSeeds) result.set("predict.bias", mean(bias), "k");
  if (traced[0].cluster) {
    auto per_testbed = [&](std::uint64_t SimOutcome::*field) {
      double sum = 0.0;
      for (const auto& t : traced) sum += double(t.*field);
      return sum / testbeds;
    };
    result.set("cluster.migrations", per_testbed(&SimOutcome::migrations),
               "count");
    result.set("cluster.migrated_jobs", per_testbed(&SimOutcome::migrated_jobs),
               "count");
    result.set("cluster.aborted_migrations",
               per_testbed(&SimOutcome::aborted_migrations), "count");
    result.set("cluster.reroutes", per_testbed(&SimOutcome::reroutes), "count");
    result.set("cluster.false_reroutes",
               per_testbed(&SimOutcome::false_reroutes), "count");
    result.set("cluster.heartbeats", per_testbed(&SimOutcome::heartbeats),
               "count");
    result.set("cluster.load_cv", mean(load_cv), "ratio", load_cv.size());
  }

  for (std::size_t k = 0; k < kSubSeeds; ++k) {
    const std::string path = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             "-testbed" + std::to_string(k) + ".metrics.json";
    if (!telemetry[k]->metrics().write_json(path))
      result.fail("cannot write " + path);
  }
  result.param("metrics_files", options.out_dir + "/" + options.workload +
                                    "-seed" + std::to_string(options.seed) +
                                    "-testbed*.metrics.json");
  return result;
}

}  // namespace

Result run_fleet_burst(const RunOptions& options) {
  return run_sim(options, fleet_burst);
}

Result run_cluster_skew(const RunOptions& options) {
  return run_sim(options, cluster_skew);
}

}  // namespace perfbench
