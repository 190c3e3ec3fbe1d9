#include "cluster/fleet.h"

#include <memory>
#include <string>

#include "common/check.h"

namespace lp::cluster {

ClusterResult run_cluster(const ClusterConfig& config,
                          const core::PredictorBundle& predictors) {
  LP_CHECK(config.servers >= 1);
  LP_CHECK(config.duration > 0);

  sim::Simulator sim;
  const hw::GpuModel gpu;

  // One GPU + scheduler + frontend per server.
  std::vector<std::unique_ptr<hw::GpuScheduler>> schedulers;
  std::vector<std::unique_ptr<serve::EdgeServerFrontend>> frontends;
  std::vector<serve::EdgeServerFrontend*> frontend_ptrs;
  for (std::size_t i = 0; i < config.servers; ++i) {
    schedulers.push_back(std::make_unique<hw::GpuScheduler>(sim));
    frontends.push_back(std::make_unique<serve::EdgeServerFrontend>(
        sim, *schedulers.back(), gpu, config.frontend, config.runtime,
        config.seed ^ (0xf00d + 0x9e3779b97f4a7c15ull * (i + 1))));
    if (config.telemetry != nullptr)
      frontends.back()->set_telemetry(config.telemetry,
                                      "server" + std::to_string(i));
    frontends.back()->start_gpu_watcher(config.watcher_period);
    if (i < config.server_faults.size() && !config.server_faults[i].empty())
      frontends.back()->attach_fault_plan(&config.server_faults[i]);
    frontend_ptrs.push_back(frontends.back().get());
  }

  ClusterRouter router(sim, frontend_ptrs, config.router);
  if (config.telemetry != nullptr) router.set_telemetry(config.telemetry);
  for (std::size_t i = 0;
       i < config.heartbeat_faults.size() && i < config.servers; ++i)
    if (!config.heartbeat_faults[i].empty())
      router.attach_heartbeat_faults(i, &config.heartbeat_faults[i]);
  if (!config.interconnect_faults.empty())
    router.attach_interconnect_faults(&config.interconnect_faults);

  ClusterResult result;
  result.warmup = config.warmup;
  result.duration = config.duration;
  // The router places each session; the client binds directly to its home
  // server (the router is control plane only — no data-path hop). Zipf
  // skew: client c's think time scales by (c + 1)^alpha, so the head of
  // each tenant's population is hot and the tail cold.
  const serve::Population population(
      sim, config, predictors, nullptr, config.zipf_alpha,
      [&router](const core::GraphCostProfile& profile) {
        const std::uint64_t session = router.open_session(profile);
        return serve::SessionHome{
            &router.server(router.binding(session).server), session};
      },
      &result);
  const auto& clients = population.clients();

  // Redirect hook: cluster session ids are assigned in client-creation
  // order, so the session id indexes `clients` directly.
  router.set_redirect([&clients, &router](std::uint64_t session,
                                          std::size_t server) {
    clients[session]->rebind(router.server(server), session);
  });
  if (config.degrade_to_local)
    router.set_on_degrade([&clients](bool degraded) {
      for (auto& client : clients) client->force_local(degraded);
    });
  router.start();

  if (config.on_audit)
    serve::start_audits(sim, config.audit_period,
                        [&] { config.on_audit(router, sim.now()); });

  sim.run_until(config.duration);
  if (config.on_audit) config.on_audit(router, sim.now());

  result.servers.reserve(config.servers);
  for (std::size_t i = 0; i < config.servers; ++i)
    result.servers.push_back(router.server(i).load_snapshot());
  result.heartbeats = router.heartbeats();
  result.migrations = router.migrations();
  result.migrated_jobs = router.migrated_jobs();
  result.reroutes = router.reroutes();
  result.aborted_migrations = router.migrations_aborted();
  result.migration_retries = router.migration_retries();
  result.late_imports_rejected = router.late_imports_rejected();
  result.zombie_imports = router.zombie_imports();
  result.stranded_jobs = router.stranded_jobs();
  result.false_reroutes = router.false_reroutes();
  result.degrade_transitions = router.degrade_transitions();
  for (const serve::LoadSnapshot& s : result.servers)
    result.fenced_jobs += s.fenced_jobs;
  result.death_events = router.detector().death_events();

  if (config.telemetry != nullptr)
    result.publish(config.telemetry->metrics(), "cluster");
  return result;
}

}  // namespace lp::cluster
