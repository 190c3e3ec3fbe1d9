// Execution-engine throughput: every evaluation model end-to-end and at its
// LoADPart-chosen cut (best latency_breakdown point at 8 Mbps, the Fig. 1
// setup), reference vs optimized kernels at 1/2/4/8 threads.
//
// Every parameter is materialized once per model before any timing, and
// that cost is reported on its own (weights_ms): the interpreter borrows
// bound tensors, so optimized_ms times inference only. Optimized runs
// follow one untimed warm-up run (a fresh process's allocator and idle
// worker threads make its first multi-threaded runs several times slower)
// and are repeated (median and min reported); the reference oracle runs
// once.
// Reports ms/inference, peak resident tensor bytes (liveness), speedups,
// and checks the optimized output is bit-identical before trusting any
// timing. Writes the summary, with host provenance, to BENCH_exec.json (or
// argv[1]).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/table.h"
#include "core/baselines.h"
#include "exec/interpreter.h"
#include "exec/kernels.h"
#include "graph/graph.h"
#include "models/zoo.h"
#include "obs/report.h"
#include "partition/partitioner.h"

#ifndef LP_BUILD_TYPE
#define LP_BUILD_TYPE "unknown"
#endif

namespace {

using lp::Table;
using lp::exec::ExecMode;
using lp::exec::Interpreter;
using lp::exec::Options;
using lp::exec::RunStats;
using lp::exec::Tensor;
using lp::exec::TensorMap;

constexpr int kThreads[] = {1, 2, 4, 8};
constexpr int kReps = 5;  // timed optimized runs per configuration

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

std::string compiler() {
#if defined(__clang__)
  return std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GNU ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Median and minimum of `reps` timed run()s on one interpreter, after
/// `warmup` untimed ones (the first run's outputs and stats are kept for
/// the bit-identity check).
struct TimedRun {
  double ms = 0.0;
  double min_ms = 0.0;
  RunStats stats;
  std::vector<Tensor> out;
};

TimedRun timed_run(const lp::graph::Graph& g, const TensorMap& bind,
                   Options options, int warmup, int reps) {
  Interpreter interp(g, options);
  TimedRun r;
  std::vector<double> ms;
  for (int i = 0; i < warmup + reps; ++i) {
    RunStats stats;
    const double t0 = now_ms();
    auto out = interp.run(bind, &stats);
    if (i >= warmup) ms.push_back(now_ms() - t0);
    if (i == 0) {
      r.out = std::move(out);
      r.stats = stats;
    }
  }
  std::sort(ms.begin(), ms.end());
  r.ms = ms[ms.size() / 2];
  r.min_ms = ms.front();
  return r;
}

/// Every Parameter of `g`, materialized, plus the input.
TensorMap bind_all(const lp::graph::Graph& g, const Tensor& input) {
  TensorMap bind = {{g.node(g.input_id()).name, input}};
  for (const auto& node : g.nodes())
    if (node.is_param())
      bind.emplace(node.name,
                   lp::exec::deterministic_param(node.name, node.output.shape));
  return bind;
}

/// Bytes if every node output and parameter stayed resident (no liveness).
std::int64_t all_resident_bytes(const lp::graph::Graph& g) {
  std::int64_t bytes = 0;
  for (const auto& node : g.nodes()) bytes += node.output.bytes();
  return bytes;
}

struct ModelReport {
  std::string name;
  double weights_ms = 0.0;
  double reference_ms = 0.0;
  double optimized_ms[4] = {0, 0, 0, 0};
  double optimized_min_ms[4] = {0, 0, 0, 0};
  std::int64_t peak_resident_bytes = 0;
  std::int64_t all_bytes = 0;
  std::size_t best_cut = 0;
  double cut_device_ms = 0.0;
  double cut_server_ms = 0.0;
  bool bit_identical = true;
};

ModelReport bench_model(const std::string& name) {
  const auto g = lp::models::make_model(name);
  const auto input = lp::exec::random_tensor(g.input_desc().shape, 2026);
  ModelReport rep;
  rep.name = name;
  rep.all_bytes = all_resident_bytes(g);

  const double w0 = now_ms();
  TensorMap bind = bind_all(g, input);
  rep.weights_ms = now_ms() - w0;

  const auto ref = timed_run(g, bind, {ExecMode::kReference, 1}, 0, 1);
  rep.reference_ms = ref.ms;

  for (int t = 0; t < 4; ++t) {
    const auto opt =
        timed_run(g, bind, {ExecMode::kOptimized, kThreads[t]}, 1, kReps);
    rep.optimized_ms[t] = opt.ms;
    rep.optimized_min_ms[t] = opt.min_ms;
    if (t == 0) rep.peak_resident_bytes = opt.stats.peak_resident_bytes;
    for (std::size_t i = 0; i < ref.out.size(); ++i)
      if (Tensor::max_abs_diff(opt.out[i], ref.out[i]) != 0.0)
        rep.bit_identical = false;
  }

  // The LoADPart-chosen cut at the Fig. 1 operating point (idle server,
  // 8 Mbps both ways): run both halves optimized and check the partitioned
  // pipeline stays bit-identical too.
  const lp::hw::CpuModel cpu;
  const lp::hw::GpuModel gpu;
  const auto rows =
      lp::core::latency_breakdown(g, cpu, gpu, lp::mbps(8), lp::mbps(8));
  std::size_t best = 0;
  for (std::size_t p = 0; p < rows.size(); ++p)
    if (rows[p].total_sec < rows[best].total_sec) best = p;
  rep.best_cut = best;

  const auto plan = lp::partition::partition_at(g, best);
  const Options opt1{ExecMode::kOptimized, 1};
  std::vector<Tensor> out;
  std::vector<std::string> boundary;
  if (plan.device_part.has_value()) {
    Interpreter device(*plan.device_part, opt1);
    const double t0 = now_ms();
    out = device.run(bind);
    rep.cut_device_ms = now_ms() - t0;
    boundary = device.output_names();
  }
  if (plan.server_part.has_value()) {
    for (std::size_t i = 0; i < boundary.size(); ++i)
      bind.insert_or_assign(boundary[i], std::move(out[i]));
    Interpreter server(*plan.server_part, opt1);
    const double t0 = now_ms();
    out = server.run(bind);
    rep.cut_server_ms = now_ms() - t0;
  }
  for (std::size_t i = 0; i < ref.out.size(); ++i)
    if (Tensor::max_abs_diff(out[i], ref.out[i]) != 0.0)
      rep.bit_identical = false;
  return rep;
}

struct ConvReport {
  std::string name;
  double reference_ms = 0.0;
  double optimized_ms = 0.0;
};

/// Each AlexNet Conv layer as a standalone graph: the per-kernel speedup
/// claim without pools/FC diluting it.
std::vector<ConvReport> bench_alexnet_convs() {
  const auto g = lp::models::alexnet();
  std::vector<ConvReport> reports;
  for (lp::graph::NodeId id : g.backbone()) {
    const auto& node = g.node(id);
    if (node.op != lp::graph::OpType::kConv) continue;
    const auto& a = std::get<lp::graph::ConvAttrs>(node.attrs);
    const auto& in_shape = g.node(node.inputs[0]).output.shape;

    lp::graph::GraphBuilder b("conv-" + node.name);
    auto x = b.input(in_shape);
    auto y = b.conv2d_rect(x, a.out_channels, a.kernel_h, a.kernel_w,
                           a.stride_h, a.pad_h, a.pad_w,
                           /*with_bias=*/false, "c");
    const auto layer = b.build(y);
    const TensorMap bind =
        bind_all(layer, lp::exec::random_tensor(in_shape, 77));

    ConvReport r;
    r.name = node.name;
    const auto ref =
        timed_run(layer, bind, {ExecMode::kReference, 1}, 0, 1);
    const auto opt =
        timed_run(layer, bind, {ExecMode::kOptimized, 1}, 1, kReps);
    LP_CHECK_MSG(
        lp::exec::Tensor::max_abs_diff(opt.out[0], ref.out[0]) == 0.0,
        "conv layer diverged from reference");
    r.reference_ms = ref.ms;
    r.optimized_ms = opt.ms;
    reports.push_back(r);
  }
  return reports;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_exec.json";
  const unsigned cores = std::thread::hardware_concurrency();
  const char* simd =
      lp::exec::host_simd() == lp::exec::Simd::kAvx2 ? "avx2" : "baseline";

  std::printf(
      "Execution-engine throughput (bit-identity checked), host cores: %u, "
      "%s, %s, %s kernels\n"
      "(thread scaling is only visible when the host has that many cores;\n"
      " weights are materialized before timing; optimized = median of %d\n"
      " after one warm-up run)\n\n",
      cores, compiler().c_str(), LP_BUILD_TYPE, simd, kReps);

  lp::obs::Report report("exec_throughput");
  report.set("host_cores", static_cast<std::int64_t>(cores));
  report.set("compiler", compiler());
  report.set("build_type", LP_BUILD_TYPE);
  report.set("simd", simd);
  report.set("repetitions", kReps);
  report.set("threads", "1,2,4,8");

  std::vector<ModelReport> models;
  Table table({"model", "weights(ms)", "reference(ms)", "opt 1t(ms)", "opt 2t",
               "opt 4t", "opt 8t", "speedup 1t", "speedup 4t", "peak MiB",
               "no-liveness MiB", "exact"});
  for (const auto& name : lp::models::evaluation_names()) {
    models.push_back(bench_model(name));
    const auto& m = models.back();
    table.add_row(
        {m.name, Table::num(m.weights_ms), Table::num(m.reference_ms),
         Table::num(m.optimized_ms[0]), Table::num(m.optimized_ms[1]),
         Table::num(m.optimized_ms[2]), Table::num(m.optimized_ms[3]),
         Table::num(m.reference_ms / m.optimized_ms[0]),
         Table::num(m.reference_ms / m.optimized_ms[2]),
         Table::num(static_cast<double>(m.peak_resident_bytes) / (1 << 20)),
         Table::num(static_cast<double>(m.all_bytes) / (1 << 20)),
         m.bit_identical ? "yes" : "NO"});
  }
  table.print();

  std::printf(
      "\nLoADPart-chosen cut (idle server, 8 Mbps): optimized halves\n");
  Table cut({"model", "p", "device(ms)", "server(ms)"});
  for (const auto& m : models)
    cut.add_row({m.name, std::to_string(m.best_cut),
                 Table::num(m.cut_device_ms), Table::num(m.cut_server_ms)});
  cut.print();

  std::printf("\nAlexNet Conv layers standalone (1 thread)\n");
  const auto convs = bench_alexnet_convs();
  Table conv_table({"layer", "reference(ms)", "optimized(ms)", "speedup"});
  for (const auto& c : convs)
    conv_table.add_row({c.name, Table::num(c.reference_ms),
                        Table::num(c.optimized_ms),
                        Table::num(c.reference_ms / c.optimized_ms)});
  conv_table.print();

  auto& model_section = report.section(
      "models",
      {"name", "weights_ms", "reference_ms", "optimized_ms_1t",
       "optimized_ms_2t", "optimized_ms_4t", "optimized_ms_8t",
       "optimized_min_ms_1t", "optimized_min_ms_4t", "speedup_1t",
       "speedup_4t", "peak_resident_bytes", "all_resident_bytes",
       "best_cut_p", "cut_device_ms", "cut_server_ms", "bit_identical"});
  for (const auto& m : models)
    model_section.add_row(
        {m.name, m.weights_ms, m.reference_ms, m.optimized_ms[0],
         m.optimized_ms[1], m.optimized_ms[2], m.optimized_ms[3],
         m.optimized_min_ms[0], m.optimized_min_ms[2],
         m.reference_ms / m.optimized_ms[0],
         m.reference_ms / m.optimized_ms[2], m.peak_resident_bytes,
         m.all_bytes, m.best_cut, m.cut_device_ms, m.cut_server_ms,
         m.bit_identical});
  auto& conv_section = report.section(
      "alexnet_conv_layers",
      {"name", "reference_ms", "optimized_ms", "speedup"});
  for (const auto& c : convs)
    conv_section.add_row({c.name, c.reference_ms, c.optimized_ms,
                          c.reference_ms / c.optimized_ms});

  bool all_exact = true;
  for (const auto& m : models) all_exact = all_exact && m.bit_identical;
  report.set("bit_identical", all_exact);
  report.write_json(out_path);
  report.maybe_write_csv_env();
  std::printf("\n[summary written to %s]\n", out_path.c_str());
  return all_exact ? 0 : 1;
}
