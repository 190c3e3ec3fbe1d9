// Workload offload-exec: one closed-loop client runs real-tensor LoADPart
// requests end to end through the program's public functions:
//
//   core::decide -> partition::PartitionCache (partition_at on a miss)
//   -> exec::Interpreter device segment (1 thread) -> boundary handoff
//   -> exec::Interpreter server segment (min(2, nproc) threads).
//
// Requests cycle AlexNet, SqueezeNet, ResNet18 under a seeded piecewise
// (k, upload bandwidth) schedule. The schedule is stratified: every round
// visits each bandwidth band of kBands once, paired with a shuffled k
// stratum of [1, 4], and serves one request per model in each. The bands
// sit between the cut thresholds of the default cost profiles, so a round
// always holds the same cuts (local, mid-model and full offload; see
// kBands) and runs stop only at round ends: the latency mix of a run does
// not depend on the seed, which picks the order, the values inside each
// band and stratum, and the input tensors.
//
// Set-up (timed as setup_s, repeated, median reported) is what a serving
// process does once: build the models, train the cost predictors, build
// the cost profiles, and materialize every weight tensor. The reference
// output of every input is computed afterwards by running the whole graph
// (optimized kernels, which tests/exec_diff_test.cpp holds bit-identical to
// the reference kernels); each partitioned request must reproduce it bit for
// bit.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/algorithm.h"
#include "core/predictor.h"
#include "exec/interpreter.h"
#include "flops/flops.h"
#include "models/zoo.h"
#include "obs/telemetry.h"
#include "partition/cache.h"
#include "partition/partitioner.h"

namespace perfbench {
namespace {

using namespace lp;

constexpr const char* kModels[] = {"alexnet", "squeezenet", "resnet18"};
constexpr std::size_t kModelCount = 3;
constexpr std::size_t kInputsPerModel = 2;
constexpr int kSetupReps = 3;
constexpr std::size_t kStrata = 4;
/// Upload-bandwidth bands (Mbps). With the default predictors the cuts are
/// (AlexNet, SqueezeNet, ResNet18) = (27, 92, 70) all local; (19, 36, 70);
/// (4, 5, 0); (4, 0, 0) — k in [1, 4] moves none of them.
constexpr double kBands[kStrata][2] = {
    {1.0, 2.4}, {5.3, 6.2}, {12.0, 36.0}, {56.0, 100.0}};
constexpr double kMinK = 1.0;
constexpr double kMaxK = 4.0;
constexpr double kMiB = 1024.0 * 1024.0;

/// One served model as a serving process holds it after set-up.
struct ModelState {
  graph::Graph graph;
  std::unique_ptr<core::GraphCostProfile> profile;
  exec::TensorMap bindings;  ///< every Parameter; inputs come and go
  std::string input_name;
};

struct ServingState {
  core::PredictorBundle bundle;
  std::vector<std::unique_ptr<ModelState>> models;
};

struct SetupTimes {
  double total_s = 0.0;
  double build_ms = 0.0;
  double train_s = 0.0;
  double weights_s = 0.0;
};

std::unique_ptr<ServingState> set_up(SetupTimes* times) {
  const double t0 = wall_sec();
  auto bundle = core::train_default_predictors();
  const double t1 = wall_sec();
  auto state = std::make_unique<ServingState>(
      ServingState{std::move(bundle), {}});
  for (const char* name : kModels) {
    const double b0 = wall_sec();
    auto m = std::make_unique<ModelState>(
        ModelState{models::make_model(name), nullptr, {}, {}});
    times->build_ms += (wall_sec() - b0) * 1e3;
    m->profile =
        std::make_unique<core::GraphCostProfile>(m->graph, state->bundle);
    m->input_name = m->graph.node(m->graph.input_id()).name;
    const double w0 = wall_sec();
    for (const auto& node : m->graph.nodes())
      if (node.is_param())
        m->bindings.emplace(
            node.name, exec::deterministic_param(node.name, node.output.shape));
    times->weights_s += wall_sec() - w0;
    state->models.push_back(std::move(m));
  }
  times->train_s = t1 - t0;
  times->total_s = wall_sec() - t0;
  return state;
}

struct Request {
  std::size_t model = 0;
  std::size_t input = 0;
  double k = 1.0;
  double upload_bps = 0.0;
};

/// One round of the stratified schedule: kStrata segments, each a (k, B_u)
/// piece serving one request per model.
std::vector<Request> make_round(Rng& rng) {
  std::vector<std::size_t> bw_order(kStrata), k_order(kStrata);
  for (std::size_t i = 0; i < kStrata; ++i) bw_order[i] = k_order[i] = i;
  auto shuffle = [&](std::vector<std::size_t>& v) {
    for (std::size_t i = v.size() - 1; i > 0; --i)
      std::swap(v[i], v[static_cast<std::size_t>(
                          rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  };
  shuffle(bw_order);
  shuffle(k_order);
  std::vector<Request> round;
  for (std::size_t s = 0; s < kStrata; ++s) {
    const double* band = kBands[bw_order[s]];
    const double bw =
        band[0] * std::exp(rng.uniform() * std::log(band[1] / band[0]));
    const double u_k = (double(k_order[s]) + rng.uniform()) / kStrata;
    const double k = kMinK + u_k * (kMaxK - kMinK);
    for (std::size_t m = 0; m < kModelCount; ++m)
      round.push_back(Request{
          m, static_cast<std::size_t>(rng.uniform_int(0, kInputsPerModel - 1)),
          k, mbps(bw)});
  }
  return round;
}

/// The interpreters of a model's current cut. Owns a copy of the plan so
/// cache evictions cannot pull the graphs out from under them.
struct Prepared {
  std::size_t p = std::numeric_limits<std::size_t>::max();
  partition::PartitionPlan plan;
  std::unique_ptr<exec::Interpreter> device;
  std::unique_ptr<exec::Interpreter> server;
  double device_flops = 0.0;
  double server_flops = 0.0;
};

/// Mutable client/server state of one pass over the request list.
struct PassState {
  std::vector<partition::PartitionCache> caches;
  std::vector<Prepared> prepared;
  PassState() : caches(kModelCount), prepared(kModelCount) {}
};

/// Wall time of each named stage of one request (seconds); `total` is the
/// caller's clock around the whole call. Each stage times only its own
/// calls, so `total` minus the stages is the glue between them (binding
/// inputs, copying the plan, returning the output): the attribution
/// residual.
struct Stages {
  double decide = 0, partition = 0, prepare = 0, device = 0, handoff = 0,
         server = 0, total = 0;
  std::size_t p = 0, n = 0;
  bool miss = false;
  bool cut_change = false;
  double boundary_bytes = 0.0;
  double device_flops = 0.0, server_flops = 0.0;
  std::int64_t peak_resident = 0;
  double k = 1.0;
};

struct Span {
  const char* name;
  std::int64_t begin, end;
};

/// Runs `fn` as stage `name`: its wall time goes to *slot and, when `spans`
/// is non-null, its [begin, end] too.
template <class Fn>
void timed(const char* name, double* slot, std::vector<Span>* spans, Fn&& fn) {
  const std::int64_t begin = wall_ns();
  fn();
  const std::int64_t end = wall_ns();
  *slot = double(end - begin) * 1e-9;
  if (spans != nullptr) spans->push_back(Span{name, begin, end});
}

/// Runs one request; returns its output. Stage times go to *st and, when
/// `spans` is non-null, each stage's [begin, end] too.
std::vector<exec::Tensor> serve_request(ServingState& serving, PassState& pass,
                                        const Request& rq,
                                        const exec::Tensor& input, Stages* st,
                                        std::vector<Span>* spans) {
  ModelState& model = *serving.models[rq.model];

  core::Decision d;
  timed("decide", &st->decide, spans,
        [&] { d = core::decide(*model.profile, rq.k, rq.upload_bps); });

  auto& cache = pass.caches[rq.model];
  const partition::PartitionPlan* plan = nullptr;
  timed("partition", &st->partition, spans, [&] {
    plan = cache.find(d.p);
    if (plan == nullptr) {
      st->miss = true;
      cache.insert(partition::partition_at(model.graph, d.p));
      plan = cache.peek(d.p);
    }
  });

  Prepared& prep = pass.prepared[rq.model];
  if (prep.p != d.p) {
    st->cut_change = true;
    prep.device.reset();
    prep.server.reset();
    prep.plan = *plan;
    prep.p = d.p;
    timed("prepare", &st->prepare, spans, [&] {
      if (prep.plan.device_part)
        prep.device = std::make_unique<exec::Interpreter>(
            *prep.plan.device_part,
            exec::Options{exec::ExecMode::kOptimized, 1, nullptr});
      if (prep.plan.server_part)
        prep.server = std::make_unique<exec::Interpreter>(
            *prep.plan.server_part,
            exec::Options{exec::ExecMode::kOptimized, server_threads(),
                          nullptr});
    });
    prep.device_flops = prep.plan.device_part
                            ? double(flops::graph_flops(*prep.plan.device_part))
                            : 0.0;
    prep.server_flops = prep.plan.server_part
                            ? double(flops::graph_flops(*prep.plan.server_part))
                            : 0.0;
  }

  exec::RunStats stats;
  std::vector<exec::Tensor> out;
  if (prep.device) {
    model.bindings.insert_or_assign(model.input_name, input);
    timed("device", &st->device, spans,
          [&] { out = prep.device->run(model.bindings, &stats); });
    model.bindings.erase(model.input_name);
    st->peak_resident = std::max(st->peak_resident, stats.peak_resident_bytes);
  }

  if (prep.server) {
    // Handoff: the boundary tensors travel as one contiguous payload (what
    // the uplink carries) and are rebuilt on the server side.
    std::vector<std::string> names;
    std::vector<const exec::Tensor*> sent;
    if (prep.device) {
      names = prep.device->output_names();
      for (const auto& t : out) sent.push_back(&t);
    } else {
      names = {model.input_name};
      sent = {&input};
    }
    std::vector<exec::Tensor> received;
    std::size_t bytes = 0;
    timed("handoff", &st->handoff, spans, [&] {
      for (const auto* t : sent) bytes += static_cast<std::size_t>(t->bytes());
      std::vector<char> wire(bytes);
      std::size_t off = 0;
      for (const auto* t : sent) {
        std::memcpy(wire.data() + off, t->data(),
                    static_cast<std::size_t>(t->bytes()));
        off += static_cast<std::size_t>(t->bytes());
      }
      off = 0;
      for (const auto* t : sent) {
        exec::Tensor r(t->shape());
        std::memcpy(r.data(), wire.data() + off,
                    static_cast<std::size_t>(r.bytes()));
        off += static_cast<std::size_t>(r.bytes());
        received.push_back(std::move(r));
      }
    });
    st->boundary_bytes = double(bytes);
    for (std::size_t i = 0; i < names.size(); ++i)
      model.bindings.insert_or_assign(names[i], std::move(received[i]));

    timed("server", &st->server, spans,
          [&] { out = prep.server->run(model.bindings, &stats); });
    for (const auto& name : names) model.bindings.erase(name);
    st->peak_resident = std::max(st->peak_resident, stats.peak_resident_bytes);
  }

  st->p = d.p;
  st->n = model.graph.n();
  st->k = rq.k;
  st->device_flops = prep.device_flops;
  st->server_flops = prep.server_flops;
  return out;
}

bool bit_equal(const exec::Tensor& a, const exec::Tensor& b) {
  return a.shape() == b.shape() && a.bytes() == b.bytes() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.bytes())) ==
             0;
}

struct Pass {
  std::vector<Request> requests;
  std::vector<Stages> stages;
  double wall_s = 0.0;
};

/// Serves `requests` (extending them round by round from `rng` while the
/// budget lasts, when `rng` is non-null) against fresh pass state. The host
/// probe is sampled before every request; its time is left out of wall_s.
Pass run_pass(ServingState& serving,
              const std::vector<std::vector<exec::Tensor>>& inputs,
              const std::vector<std::vector<exec::Tensor>>& expected,
              std::vector<Request> requests, Rng* rng, double budget_s,
              obs::TraceRecorder* trace, std::int64_t epoch_ns,
              HostProbe* probe, Result* result) {
  Pass pass;
  PassState state;
  std::vector<Span> spans;
  const obs::TrackId track = trace != nullptr ? trace->track("client") : 0;
  const double t0 = wall_sec();
  double probe_s = 0.0;
  std::size_t i = 0;
  while (true) {
    if (i == requests.size()) {
      if (rng == nullptr || wall_sec() - t0 - probe_s >= budget_s) break;
      const auto round = make_round(*rng);
      requests.insert(requests.end(), round.begin(), round.end());
    }
    const double p0 = wall_sec();
    for (int s = 0; s < kProbesPerUnit; ++s) probe->sample();
    probe_s += wall_sec() - p0;
    const Request& rq = requests[i];
    Stages st;
    spans.clear();
    ++result->attempted;
    try {
      const std::int64_t begin = wall_ns();
      const auto out =
          serve_request(serving, state, rq, inputs[rq.model][rq.input], &st,
                        trace != nullptr ? &spans : nullptr);
      const std::int64_t end = wall_ns();
      st.total = double(end - begin) * 1e-9;
      if (trace != nullptr) spans.push_back(Span{"request", begin, end});
      if (out.size() != 1 || !bit_equal(out[0], expected[rq.model][rq.input]))
        result->fail(std::string("output mismatch: ") + kModels[rq.model] +
                     " p=" + std::to_string(st.p));
    } catch (const std::exception& e) {
      result->fail(std::string("exception: ") + e.what());
    }
    if (trace != nullptr) {
      for (const Span& s : spans) {
        obs::TraceArgs args;
        args.arg("req", i);
        if (std::strcmp(s.name, "request") == 0) {
          args.arg("model", kModels[rq.model]).arg("p", st.p);
        } else {
          args.arg("parent", "request");
        }
        trace->span(track, s.name, s.begin - epoch_ns, s.end - epoch_ns,
                    std::move(args));
      }
    }
    pass.stages.push_back(st);
    ++i;
  }
  pass.wall_s = wall_sec() - t0 - probe_s;
  pass.requests = std::move(requests);
  return pass;
}

}  // namespace

Result run_offload_exec(const RunOptions& options) {
  Result result;
  result.param("models", "alexnet,squeezenet,resnet18");
  result.param("device_threads", 1.0);
  result.param("server_threads", double(server_threads()));
  result.param("inputs_per_model", double(kInputsPerModel));
  result.param("round_requests", double(kStrata * kModelCount));
  result.param("bandwidth_mbps", "[1,2.4] [5.3,6.2] [12,36] [56,100]");
  result.param("k", "[1, 4], 4 strata");
  result.param("setup_reps", double(kSetupReps));

  // Set-up, repeated; the last state serves. The previous state is freed
  // first so peak memory holds one copy of the weights.
  std::vector<double> setup_s, weights_s, train_s, build_ms;
  std::unique_ptr<ServingState> serving;
  HostProbe probe;
  for (int r = 0; r < kSetupReps; ++r) {
    serving.reset();
    for (int s = 0; s < kProbesPerUnit; ++s) probe.sample();
    SetupTimes times;
    serving = set_up(&times);
    setup_s.push_back(times.total_s);
    weights_s.push_back(times.weights_s);
    train_s.push_back(times.train_s);
    build_ms.push_back(times.build_ms);
  }

  // Inputs and whole-graph reference outputs (the correctness oracle).
  Rng rng(options.seed ^ 0x0ff10adull);
  std::vector<std::vector<exec::Tensor>> inputs(kModelCount), expected(kModelCount);
  for (std::size_t m = 0; m < kModelCount; ++m) {
    ModelState& model = *serving->models[m];
    exec::Interpreter whole(
        model.graph,
        exec::Options{exec::ExecMode::kOptimized, server_threads(), nullptr});
    for (std::size_t j = 0; j < kInputsPerModel; ++j) {
      inputs[m].push_back(
          exec::random_tensor(model.graph.input_desc().shape, rng()));
      model.bindings.insert_or_assign(model.input_name, inputs[m].back());
      auto out = whole.run(model.bindings);
      model.bindings.erase(model.input_name);
      LP_CHECK(out.size() == 1);
      expected[m].push_back(std::move(out[0]));
    }
  }

  const std::int64_t epoch_ns = wall_ns();
  obs::Telemetry telemetry(/*tracing=*/true);
  Pass measured;
  double overhead_ratio = 0.0;
  if (!options.trace) {
    measured = run_pass(*serving, inputs, expected, {}, &rng, options.seconds,
                        nullptr, epoch_ns, &probe, &result);
  } else {
    // Untraced then traced over the same requests, each from fresh state:
    // the ratio of their wall times is the tracing overhead, and the
    // per-layer numbers come from the traced pass only.
    const Pass plain = run_pass(*serving, inputs, expected, {}, &rng,
                                options.seconds / 2, nullptr, epoch_ns,
                                &probe, &result);
    measured = run_pass(*serving, inputs, expected, plain.requests, nullptr,
                        0.0, telemetry.trace(), epoch_ns, &probe, &result);
    overhead_ratio = measured.wall_s / plain.wall_s;
  }

  const auto& stages = measured.stages;
  result.param("requests", double(stages.size()));
  if (stages.empty()) {
    result.fail("no request completed");
    return result;
  }

  std::vector<double> total_ms;
  for (const auto& st : stages) total_ms.push_back(st.total * 1e3);
  double wall_total = 0.0;
  for (const auto& st : stages) wall_total += st.total;

  // Host times in reference-host seconds (see HostProbe); raw figures and
  // the probe go to the report's parameters.
  const double scale = probe.scale();
  result.param("probe_ms", probe.median_sec() * 1e3);
  result.param("probe_samples", double(probe.samples()));
  result.param("raw_setup_s", median(setup_s));
  result.param("raw_latency_p50_ms", pct(total_ms, 50));
  result.param("raw_latency_p90_ms", pct(total_ms, 90));
  result.param("raw_req_per_host_s", double(stages.size()) / measured.wall_s);

  if (!options.trace) {
    const double ref_wall_s = measured.wall_s * scale;
    result.set("setup_s", median(setup_s) * scale, "s", setup_s.size());
    result.set("latency_p50_ms", pct(total_ms, 50) * scale, "ms",
               total_ms.size());
    result.set("latency_p90_ms", pct(total_ms, 90) * scale, "ms",
               total_ms.size());
    result.set("req_per_host_s", double(stages.size()) / ref_wall_s, "1/s",
               stages.size());
    const double good = double(stages.size() - std::min<std::size_t>(
                                                   stages.size(), result.failed));
    result.set("goodput_per_s", good / ref_wall_s, "1/s", stages.size());
    return result;
  }

  // ---- per-layer, from the traced pass ----
  std::vector<double> device_ms, server_ms, boundary_mb, miss_ms;
  double device_s = 0, server_s = 0, device_flops = 0, server_flops = 0;
  double prepare_ms = 0, handoff_ms = 0, attributed = 0, k_sum = 0;
  std::size_t prepares = 0, handoffs = 0, hits = 0, cut_changes = 0,
              offloaded = 0;
  std::int64_t peak_resident = 0;
  for (const auto& st : stages) {
    attributed += st.decide + st.partition + st.prepare + st.device +
                  st.handoff + st.server;
    k_sum += st.k;
    peak_resident = std::max(peak_resident, st.peak_resident);
    if (st.miss)
      miss_ms.push_back(st.partition * 1e3);
    else
      ++hits;
    if (st.cut_change) {
      ++cut_changes;
      ++prepares;
      prepare_ms += st.prepare * 1e3;
    }
    if (st.p > 0) {
      device_ms.push_back(st.device * 1e3);
      device_s += st.device;
      device_flops += st.device_flops;
    }
    if (st.p < st.n) {
      ++offloaded;
      ++handoffs;
      handoff_ms += st.handoff * 1e3;
      server_ms.push_back(st.server * 1e3);
      server_s += st.server;
      server_flops += st.server_flops;
      boundary_mb.push_back(st.boundary_bytes / kMiB);
    }
  }
  const double n = double(stages.size());

  // Algorithm 1 cost, timed in batches over this run's own queries.
  constexpr int kDecideBatch = 20000;
  const double d0 = wall_sec();
  for (int b = 0; b < kDecideBatch; ++b) {
    const Request& rq =
        measured.requests[std::size_t(b) % measured.requests.size()];
    core::decide(*serving->models[rq.model]->profile, rq.k, rq.upload_bps);
  }
  const double decide_us = (wall_sec() - d0) * 1e6 / kDecideBatch;

  result.set("exec.device_ms_p50", median(device_ms), "ms", device_ms.size());
  result.set("exec.server_ms_p50", median(server_ms), "ms", server_ms.size());
  result.set("exec.device_gflops_per_s",
             device_s > 0 ? device_flops / device_s / 1e9 : 0.0, "GFLOP/s",
             device_ms.size());
  result.set("exec.server_gflops_per_s",
             server_s > 0 ? server_flops / server_s / 1e9 : 0.0, "GFLOP/s",
             server_ms.size());
  result.set("exec.prepare_ms", prepares ? prepare_ms / double(prepares) : 0.0,
             "ms", prepares);
  result.set("exec.handoff_ms", handoffs ? handoff_ms / double(handoffs) : 0.0,
             "ms", handoffs);
  result.set("exec.boundary_mb_p50", median(boundary_mb), "MiB",
             boundary_mb.size());
  result.set("exec.peak_resident_mb", double(peak_resident) / kMiB, "MiB");
  result.set("exec.weights_s", median(weights_s), "s", weights_s.size());
  result.set("exec.unattributed_ms", (wall_total - attributed) * 1e3 / n, "ms",
             stages.size());
  result.set("exec.attributed_ratio", attributed / wall_total, "ratio",
             stages.size());
  if (attributed < 0.95 * wall_total)
    result.fail("named stages cover less than 95% of request wall time");
  result.set("partition.hit_ratio", double(hits) / n, "ratio", stages.size());
  result.set("partition.miss_ms",
             miss_ms.empty() ? 0.0
                             : std::accumulate(miss_ms.begin(), miss_ms.end(),
                                               0.0) /
                                   double(miss_ms.size()),
             "ms", miss_ms.size());
  result.set("core.decide_us", decide_us, "us", kDecideBatch);
  result.set("core.cut_changes", double(cut_changes), "count");
  result.set("core.offload_share", double(offloaded) / n, "ratio",
             stages.size());
  result.set("core.mean_k", k_sum / n, "k", stages.size());
  result.set("profile.train_s", median(train_s), "s", train_s.size());
  result.set("models.build_ms", median(build_ms), "ms", build_ms.size());
  result.set("obs.trace_overhead_ratio", overhead_ratio, "ratio");

  const std::string trace_path = options.out_dir + "/offload-exec-seed" +
                                 std::to_string(options.seed) + ".trace.json";
  if (!telemetry.trace()->write_chrome_json(trace_path))
    result.fail("cannot write " + trace_path);
  result.param("trace_file", trace_path);
  return result;
}

}  // namespace perfbench
