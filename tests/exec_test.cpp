#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "common/check.h"
#include "exec/interpreter.h"
#include "exec/kernels.h"
#include "exec/thread_pool.h"
#include "graph/graph.h"
#include "partition/partitioner.h"

namespace lp::exec {
namespace {

using graph::GraphBuilder;
using graph::Node;

TEST(Tensor, AccessorsAndDiff) {
  Tensor a(Shape{1, 2, 2, 2});
  a.at4(0, 1, 1, 1) = 3.0f;
  EXPECT_FLOAT_EQ(a.at(7), 3.0f);
  Tensor b(Shape{1, 2, 2, 2});
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a, b), 3.0);
}

TEST(Tensor, DeterministicParamStableAcrossCalls) {
  const auto a = deterministic_param("conv1.weight", Shape{4, 3, 3, 3});
  const auto b = deterministic_param("conv1.weight", Shape{4, 3, 3, 3});
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a, b), 0.0);
  const auto c = deterministic_param("conv2.weight", Shape{4, 3, 3, 3});
  EXPECT_GT(Tensor::max_abs_diff(a, c), 0.0);
}

TEST(Interpreter, ConvIdentityKernel) {
  GraphBuilder b("conv-id");
  auto x = b.input({1, 1, 3, 3});
  auto y = b.conv2d(x, 1, 1, 1, 0, /*with_bias=*/false, "c");
  graph::Graph g = b.build(y);

  Tensor input(Shape{1, 1, 3, 3});
  for (int i = 0; i < 9; ++i) input.at(i) = static_cast<float>(i);
  Tensor weight(Shape{1, 1, 1, 1});
  weight.at(0) = 2.0f;

  Interpreter interp(g);
  const auto out =
      interp.run({{"input", input}, {"c.weight", weight}});
  ASSERT_EQ(out.size(), 1u);
  for (int i = 0; i < 9; ++i)
    EXPECT_FLOAT_EQ(out[0].at(i), 2.0f * static_cast<float>(i));
}

TEST(Interpreter, ConvPaddingAndStride) {
  // 3x3 input, 3x3 all-ones kernel, pad 1, stride 2 -> 2x2 output of
  // corner-window sums.
  GraphBuilder b("conv-pad");
  auto x = b.input({1, 1, 3, 3});
  auto y = b.conv2d(x, 1, 3, 2, 1, false, "c");
  graph::Graph g = b.build(y);

  Tensor input(Shape{1, 1, 3, 3});
  for (int i = 0; i < 9; ++i) input.at(i) = 1.0f;
  Tensor weight(Shape{1, 1, 3, 3});
  for (int i = 0; i < 9; ++i) weight.at(i) = 1.0f;

  const auto out = Interpreter(g).run({{"input", input},
                                       {"c.weight", weight}});
  ASSERT_EQ(out[0].shape(), (Shape{1, 1, 2, 2}));
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(out[0].at(i), 4.0f);
}

TEST(Interpreter, MaxAndAvgPool) {
  GraphBuilder b("pool");
  auto x = b.input({1, 1, 2, 2});
  auto mx = b.maxpool(x, 2, 2, 0, false, "mx");
  graph::Graph g = b.build(mx);
  Tensor input(Shape{1, 1, 2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  const auto out = Interpreter(g).run({{"input", input}});
  EXPECT_FLOAT_EQ(out[0].at(0), 4.0f);

  GraphBuilder b2("pool-avg");
  auto x2 = b2.input({1, 1, 2, 2});
  auto av = b2.avgpool(x2, 2, 2, 0, "av");
  graph::Graph g2 = b2.build(av);
  const auto out2 = Interpreter(g2).run({{"input", input}});
  EXPECT_FLOAT_EQ(out2[0].at(0), 2.5f);
}

TEST(Interpreter, MatMulBias) {
  GraphBuilder b("fc");
  auto x = b.input({1, 2});
  auto y = b.fc(x, 2, true, "fc");
  graph::Graph g = b.build(y);
  Tensor input(Shape{1, 2}, {1.0f, 2.0f});
  Tensor weight(Shape{2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor bias(Shape{2}, {10.0f, 20.0f});
  const auto out = Interpreter(g).run(
      {{"input", input}, {"fc.weight", weight}, {"fc.bias", bias}});
  EXPECT_FLOAT_EQ(out[0].at2(0, 0), 1 * 1 + 2 * 3 + 10);
  EXPECT_FLOAT_EQ(out[0].at2(0, 1), 1 * 2 + 2 * 4 + 20);
}

TEST(Interpreter, ActivationsAndSoftmax) {
  GraphBuilder b("acts");
  auto x = b.input({1, 4});
  auto y = b.softmax(b.tanh(b.relu(x)));
  graph::Graph g = b.build(y);
  Tensor input(Shape{1, 4}, {-1.0f, 0.0f, 1.0f, 2.0f});
  const auto out = Interpreter(g).run({{"input", input}});
  double sum = 0.0;
  for (int i = 0; i < 4; ++i) sum += out[0].at(i);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  // ReLU zeroed the negatives, so the first two logits are equal.
  EXPECT_FLOAT_EQ(out[0].at(0), out[0].at(1));
  EXPECT_GT(out[0].at(3), out[0].at(2));
}

TEST(Interpreter, AddAndConcat) {
  GraphBuilder b("addcat");
  auto x = b.input({1, 1, 2, 2});
  auto r = b.relu(x, "r");
  auto s = b.sigmoid(x, "s");
  auto cat = b.concat({r, s}, "cat");
  graph::Graph g = b.build(cat);
  Tensor input(Shape{1, 1, 2, 2}, {0.0f, 1.0f, -1.0f, 2.0f});
  const auto out = Interpreter(g).run({{"input", input}});
  ASSERT_EQ(out[0].shape(), (Shape{1, 2, 2, 2}));
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 0, 1), 1.0f);                   // relu
  EXPECT_NEAR(out[0].at4(0, 1, 0, 1), 1.0 / (1.0 + std::exp(-1.0)), 1e-6);
}

TEST(Interpreter, BatchNormNormalizes) {
  GraphBuilder b("bn");
  auto x = b.input({1, 2, 1, 1});
  auto y = b.batchnorm(x, "bn");
  graph::Graph g = b.build(y);
  Tensor input(Shape{1, 2, 1, 1}, {4.0f, 8.0f});
  Tensor gamma(Shape{2}, {1.0f, 2.0f});
  Tensor beta(Shape{2}, {0.0f, 1.0f});
  Tensor mean(Shape{2}, {2.0f, 6.0f});
  Tensor var(Shape{2}, {4.0f, 1.0f});
  const auto out = Interpreter(g).run({{"input", input},
                                       {"bn.gamma", gamma},
                                       {"bn.beta", beta},
                                       {"bn.mean", mean},
                                       {"bn.var", var}});
  EXPECT_NEAR(out[0].at(0), (4.0 - 2.0) / 2.0, 1e-4);
  EXPECT_NEAR(out[0].at(1), 2.0 * (8.0 - 6.0) / 1.0 + 1.0, 1e-3);
}

TEST(Interpreter, DepthwiseConvPerChannelFilters) {
  // 2 channels, 1x1 depthwise kernels [2, 3]: channel c is scaled by its
  // own filter only.
  GraphBuilder b("dw");
  auto x = b.input({1, 2, 2, 2});
  auto y = b.dwconv2d(x, 1, 1, 0, false, "dw");
  graph::Graph g = b.build(y);
  Tensor input(Shape{1, 2, 2, 2},
               {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f, 7.0f, 8.0f});
  Tensor weight(Shape{2, 1, 1, 1}, {2.0f, 3.0f});
  const auto out =
      Interpreter(g).run({{"input", input}, {"dw.weight", weight}});
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 1, 1), 8.0f);
  EXPECT_FLOAT_EQ(out[0].at4(0, 1, 0, 0), 15.0f);
  EXPECT_FLOAT_EQ(out[0].at4(0, 1, 1, 1), 24.0f);
}

TEST(Interpreter, RectangularConvKernel) {
  // 1x3 all-ones kernel with pad (0,1): horizontal neighborhood sums.
  GraphBuilder b("rect");
  auto x = b.input({1, 1, 2, 3});
  auto y = b.conv2d_rect(x, 1, 1, 3, 1, 0, 1, false, "c");
  graph::Graph g = b.build(y);
  Tensor input(Shape{1, 1, 2, 3}, {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f});
  Tensor weight(Shape{1, 1, 1, 3}, {1.0f, 1.0f, 1.0f});
  const auto out =
      Interpreter(g).run({{"input", input}, {"c.weight", weight}});
  ASSERT_EQ(out[0].shape(), (Shape{1, 1, 2, 3}));
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 0, 0), 3.0f);   // 0+1+2
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 0, 1), 6.0f);   // 1+2+3
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 1, 2), 11.0f);  // 5+6+0
}

TEST(Interpreter, CeilModePoolClipsWindowToInput) {
  // 3x3 input, 2x2 max pool stride 2 with ceil: output 2x2, the last
  // windows clipped at the border.
  GraphBuilder b("ceil");
  auto x = b.input({1, 1, 3, 3});
  auto y = b.maxpool(x, 2, 2, 0, /*ceil_mode=*/true, "p");
  graph::Graph g = b.build(y);
  Tensor input(Shape{1, 1, 3, 3});
  for (int i = 0; i < 9; ++i) input.at(i) = static_cast<float>(i);
  const auto out = Interpreter(g).run({{"input", input}});
  ASSERT_EQ(out[0].shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 0, 1), 5.0f);
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 1, 1), 8.0f);
}

TEST(Interpreter, GlobalAvgPoolIsTheMean) {
  GraphBuilder b("gap");
  auto x = b.input({1, 2, 3, 3});
  auto y = b.global_avgpool(x, "gap");
  graph::Graph g = b.build(y);
  Tensor input(Shape{1, 2, 3, 3});
  for (int i = 0; i < 18; ++i) input.at(i) = static_cast<float>(i);
  const auto out = Interpreter(g).run({{"input", input}});
  ASSERT_EQ(out[0].shape(), (Shape{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(out[0].at(0), 4.0f);   // mean of 0..8
  EXPECT_FLOAT_EQ(out[0].at(1), 13.0f);  // mean of 9..17
}

TEST(Interpreter, BatchGreaterThanOne) {
  GraphBuilder b("batch");
  auto x = b.input({2, 1, 2, 2});
  auto y = b.relu(b.maxpool(x, 2, 2, 0, false, "p"));
  graph::Graph g = b.build(y);
  Tensor input(Shape{2, 1, 2, 2},
               {-1.0f, 2.0f, 3.0f, 4.0f, -5.0f, -6.0f, -7.0f, -8.0f});
  const auto out = Interpreter(g).run({{"input", input}});
  ASSERT_EQ(out[0].shape(), (Shape{2, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out[0].at(0), 4.0f);
  EXPECT_FLOAT_EQ(out[0].at(1), 0.0f);  // max is negative, relu clamps
}

/// Runs `g` in reference mode and in optimized mode (1 and 4 threads) and
/// asserts the outputs are bit-identical.
void expect_modes_identical(const graph::Graph& g, const TensorMap& bind) {
  const auto ref =
      Interpreter(g, {ExecMode::kReference, 1}).run(bind);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto opt =
        Interpreter(g, {ExecMode::kOptimized, threads}).run(bind);
    ASSERT_EQ(opt.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(Tensor::max_abs_diff(opt[i], ref[i]), 0.0);
  }
}

TEST(Interpreter, MaxPoolVeryNegativeWindow) {
  // Every window value is far below -1e30; a finite "identity" would leak
  // into the output, the true -inf identity cannot.
  GraphBuilder b("negpool");
  auto x = b.input({1, 1, 2, 2});
  graph::Graph g = b.build(b.maxpool(x, 2, 2, 0, false, "p"));
  Tensor input(Shape{1, 1, 2, 2}, {-1e32f, -2e32f, -3e32f, -4e32f});
  for (auto mode : {ExecMode::kReference, ExecMode::kOptimized}) {
    const auto out = Interpreter(g, {mode, 1}).run({{"input", input}});
    EXPECT_FLOAT_EQ(out[0].at(0), -1e32f);
  }
}

TEST(Interpreter, DepthwiseStride2PaddedMatchesReference) {
  GraphBuilder b("dw-s2");
  auto x = b.input({1, 3, 5, 5});
  graph::Graph g = b.build(b.dwconv2d(x, 3, 2, 1, true, "dw"));
  expect_modes_identical(
      g, {{"input", random_tensor(Shape{1, 3, 5, 5}, 42)}});
}

TEST(Interpreter, ConcatThreeInputs) {
  GraphBuilder b("cat3");
  auto x = b.input({1, 2, 3, 3});
  auto r = b.relu(x, "r");
  auto s = b.sigmoid(x, "s");
  auto t = b.tanh(x, "t");
  graph::Graph g = b.build(b.concat({r, s, t}, "cat"));
  const auto input = random_tensor(Shape{1, 2, 3, 3}, 7);
  const auto out =
      Interpreter(g, {ExecMode::kOptimized, 1}).run({{"input", input}});
  ASSERT_EQ(out[0].shape(), (Shape{1, 6, 3, 3}));
  // Channel blocks land in argument order.
  EXPECT_FLOAT_EQ(out[0].at4(0, 0, 1, 1),
                  std::max(0.0f, input.at4(0, 0, 1, 1)));
  EXPECT_FLOAT_EQ(out[0].at4(0, 4, 2, 2), std::tanh(input.at4(0, 0, 2, 2)));
  expect_modes_identical(g, {{"input", input}});
}

TEST(Interpreter, FusedResidualDagMatchesReference) {
  // Conv+BN+ReLU stacks, a residual Add with epilogue, Flatten and FC:
  // exercises every fused-kernel path the optimized engine has.
  GraphBuilder b("resdag");
  auto x = b.input({1, 3, 8, 8});
  auto c1 = b.relu(b.batchnorm(b.conv2d(x, 8, 3, 1, 1, false, "c1"), "bn1"));
  auto c2 = b.batchnorm(b.conv2d(c1, 8, 3, 1, 1, false, "c2"), "bn2");
  auto sum = b.relu(b.add(c2, c1, "sum"));
  auto head = b.fc(b.flatten(b.maxpool(sum, 2, 2), "flat"), 10, true, "fc");
  graph::Graph g = b.build(b.softmax(head));
  expect_modes_identical(
      g, {{"input", random_tensor(Shape{1, 3, 8, 8}, 11)}});
}

TEST(Interpreter, RunStatsReportLivenessSavings) {
  GraphBuilder b("stats");
  auto x = b.input({1, 4, 16, 16});
  auto c1 = b.relu(b.conv2d(x, 8, 3, 1, 1, true, "c1"));
  auto c2 = b.relu(b.conv2d(c1, 8, 3, 1, 1, true, "c2"));
  graph::Graph g = b.build(b.flatten(b.maxpool(c2, 2, 2), "flat"));
  const auto input = random_tensor(Shape{1, 4, 16, 16}, 3);

  RunStats stats;
  const auto out =
      Interpreter(g, {ExecMode::kOptimized, 1}).run({{"input", input}}, &stats);
  EXPECT_GT(stats.fused_groups, 0);
  EXPECT_GT(stats.moved_tensors, 0);  // Flatten moves, never copies
  EXPECT_GT(stats.released_bytes, 0);
  EXPECT_GE(stats.peak_resident_bytes, stats.final_resident_bytes);
  // Only the output survives to the end.
  EXPECT_EQ(stats.final_resident_bytes, out[0].bytes());
  // Liveness keeps the peak below "everything resident at once".
  std::int64_t all_bytes = 0;
  for (const auto& node : g.nodes())
    all_bytes += node.output.shape.elements() * 4;
  EXPECT_LT(stats.peak_resident_bytes, all_bytes);
}

// ---------------------------------------------------------------------------
// Kernel differential tests: each SIMD build of conv2d_fast / matmul_fast,
// called directly, against the reference interpreter on shapes that hit
// every tile edge — partial oc and pixel tiles, single-pixel maps, strides,
// padding, odd FC widths, batch 2 — with and without fused epilogues.
// ---------------------------------------------------------------------------

const Node& only_node(const graph::Graph& g, graph::OpType op) {
  const Node* found = nullptr;
  for (const auto& node : g.nodes())
    if (node.op == op) {
      EXPECT_EQ(found, nullptr) << "more than one " << graph::op_name(op);
      found = &node;
    }
  LP_CHECK(found != nullptr);
  return *found;
}

Tensor param(const std::string& name, const Shape& shape) {
  return deterministic_param(name, shape);
}

/// The fused epilogue the optimized engine builds for BiasAdd "c" (of
/// `channels`), then BatchNorm "bn" and ReLU when `with_bn`.
struct TestEpilogue {
  Tensor bias, gamma, beta, mean, var;
  Epilogue ep;

  TestEpilogue(const std::string& layer, std::int64_t channels, bool with_bn)
      : bias(param(layer + ".bias", Shape{channels})),
        gamma(param("bn.gamma", Shape{channels})),
        beta(param("bn.beta", Shape{channels})),
        mean(param("bn.mean", Shape{channels})),
        var(param("bn.var", Shape{channels})) {
    EpilogueStep b;
    b.op = graph::OpType::kBiasAdd;
    b.bias = bias.data();
    ep.steps.push_back(b);
    if (with_bn) {
      EpilogueStep bn;
      bn.op = graph::OpType::kBatchNorm;
      bn.gamma = gamma.data();
      bn.beta = beta.data();
      bn.mean = mean.data();
      for (std::int64_t c = 0; c < channels; ++c)
        bn.denom.push_back(std::sqrt(std::max(var.at(c), 0.0f) + 1e-5f));
      ep.steps.push_back(bn);
    }
    EpilogueStep relu;
    relu.op = graph::OpType::kRelu;
    ep.steps.push_back(relu);
  }
};

struct ConvCase {
  const char* what;
  Shape in;
  std::int64_t oc, kh, kw, stride, pad_h, pad_w;
  bool fused;
};

const ConvCase kConvCases[] = {
    {"oc5 9x9 (81 px)", {1, 3, 9, 9}, 5, 3, 3, 1, 1, 1, true},
    {"stride2 7x7 out batch2", {2, 6, 14, 14}, 7, 3, 3, 2, 1, 1, false},
    {"1x1 kernel 7x7 out", {1, 8, 7, 7}, 6, 1, 1, 1, 0, 0, true},
    {"7x7 kernel 1x1 out", {1, 4, 7, 7}, 9, 7, 7, 1, 0, 0, false},
    {"7x7 stride2 pad3 stem", {1, 3, 15, 15}, 10, 7, 7, 2, 3, 3, true},
    {"oc33 14x14 batch2", {2, 16, 14, 14}, 33, 3, 3, 1, 1, 1, true},
    {"1x7 rect pad", {1, 5, 6, 11}, 3, 1, 7, 1, 0, 3, false},
    {"1x1 out from 1x1", {1, 64, 1, 1}, 13, 1, 1, 1, 0, 0, true},
};

struct FcCase {
  const char* what;
  std::int64_t rows, inner, cols;
  bool fused;
};

const FcCase kFcCases[] = {
    {"1000 wide", 1, 37, 1000, true},
    {"4097 wide", 1, 29, 4097, false},
    {"batch2 40 wide", 2, 33, 40, true},
    {"narrower than a block", 1, 64, 7, true},
};

class KernelDiff : public ::testing::TestWithParam<Simd> {
 protected:
  void SetUp() override {
    if (!simd_supported(GetParam()))
      GTEST_SKIP() << "this CPU cannot run the AVX2 build";
  }
};

TEST_P(KernelDiff, ConvMatchesReference) {
  for (const auto& c : kConvCases) {
    SCOPED_TRACE(c.what);
    GraphBuilder b("conv-diff");
    auto x = b.input(c.in);
    auto y = b.conv2d_rect(x, c.oc, c.kh, c.kw, c.stride, c.pad_h, c.pad_w,
                           /*with_bias=*/c.fused, "c");
    if (c.fused) y = b.relu(b.batchnorm(y, "bn"));
    const graph::Graph g = b.build(y);
    const auto input = random_tensor(c.in, 5);
    const auto ref =
        Interpreter(g, {ExecMode::kReference, 1}).run({{"input", input}});

    const Node& conv = only_node(g, graph::OpType::kConv);
    const auto& attrs = std::get<graph::ConvAttrs>(conv.attrs);
    const Tensor w = param("c.weight", g.node(conv.inputs[1]).output.shape);
    const TestEpilogue fused("c", c.oc, /*with_bn=*/true);
    const Epilogue none;
    for (int threads : {1, 3}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ThreadPool pool(threads);
      const Tensor out =
          conv2d_fast(input, w, attrs, conv.output.shape, /*depthwise=*/false,
                      c.fused ? fused.ep : none, pool, GetParam());
      EXPECT_EQ(Tensor::max_abs_diff(out, ref[0]), 0.0);
    }
  }
}

TEST_P(KernelDiff, MatmulMatchesReference) {
  for (const auto& c : kFcCases) {
    SCOPED_TRACE(c.what);
    GraphBuilder b("fc-diff");
    auto x = b.input({c.rows, c.inner});
    auto y = b.fc(x, c.cols, /*with_bias=*/c.fused, "fc");
    if (c.fused) y = b.relu(y);
    const graph::Graph g = b.build(y);
    const auto input = random_tensor(Shape{c.rows, c.inner}, 9);
    const auto ref =
        Interpreter(g, {ExecMode::kReference, 1}).run({{"input", input}});

    const Tensor w = param("fc.weight", Shape{c.inner, c.cols});
    const TestEpilogue fused("fc", c.cols, /*with_bn=*/false);
    const Epilogue none;
    for (int threads : {1, 3}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ThreadPool pool(threads);
      const Tensor out = matmul_fast(input, w, Shape{c.rows, c.cols},
                                     c.fused ? fused.ep : none, pool,
                                     GetParam());
      EXPECT_EQ(Tensor::max_abs_diff(out, ref[0]), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Builds, KernelDiff,
                         ::testing::Values(Simd::kBaseline, Simd::kAvx2),
                         [](const ::testing::TestParamInfo<Simd>& info) {
                           return std::string(info.param == Simd::kAvx2
                                                  ? "avx2"
                                                  : "baseline");
                         });

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.bytes())) == 0;
}

TEST(Interpreter, BoundTensorsAreBorrowedNeverWritten) {
  // A residual block: at some cuts the server half starts with an
  // in-place op on a boundary tensor (the Add, or a ReLU), and the device
  // half's first op is an in-place ReLU on the bound input. The caller's
  // bindings must come back unchanged, and the halves must still
  // reproduce the whole graph.
  GraphBuilder b("borrow");
  auto x = b.input({1, 4, 6, 6});
  auto r0 = b.relu(x, "r0");
  auto c1 = b.relu(b.conv2d(r0, 4, 3, 1, 1, false, "c1"), "r1");
  auto c2 = b.conv2d(c1, 4, 3, 1, 1, false, "c2");
  const graph::Graph g = b.build(b.relu(b.add(c2, c1, "sum"), "out"));
  const auto input = random_tensor(Shape{1, 4, 6, 6}, 13);
  const auto whole = Interpreter(g).run({{"input", input}});

  for (std::size_t p = 0; p <= g.n(); ++p) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const auto plan = partition::partition_at(g, p);
    TensorMap bound = {{"input", input}};
    if (plan.device_part) {
      const Interpreter device(*plan.device_part);
      auto produced = device.run(bound);
      EXPECT_TRUE(bit_equal(bound.at("input"), input));
      if (!plan.server_part) {
        EXPECT_TRUE(bit_equal(produced[0], whole[0]));
        continue;
      }
      bound.clear();
      const auto names = device.output_names();
      for (std::size_t i = 0; i < names.size(); ++i)
        bound.emplace(names[i], std::move(produced[i]));
    }
    const TensorMap before = bound;
    RunStats stats;
    const auto out = Interpreter(*plan.server_part).run(bound, &stats);
    EXPECT_TRUE(bit_equal(out[0], whole[0]));
    for (const auto& [name, t] : before)
      EXPECT_TRUE(bit_equal(bound.at(name), t)) << name;
    // Borrowed boundary tensors still count as resident.
    std::int64_t bound_bytes = 0;
    for (const auto& [name, t] : before) bound_bytes += t.bytes();
    EXPECT_GE(stats.peak_resident_bytes, bound_bytes);
  }
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i)
      hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SmallRangeRunsInlineAndSerialIsUsable) {
  // total < 2*grain executes on the caller; a 1-thread pool always does.
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(10, 20, 100, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 145);  // 10+11+...+19
  }
}

TEST(Interpreter, MissingInputBindingThrows) {
  GraphBuilder b("missing");
  auto x = b.input({1, 2});
  graph::Graph g = b.build(b.relu(x));
  EXPECT_THROW(Interpreter(g).run({}), ContractError);
}

TEST(Interpreter, ShapeMismatchThrows) {
  GraphBuilder b("badshape");
  auto x = b.input({1, 2});
  graph::Graph g = b.build(b.relu(x));
  Tensor wrong(Shape{1, 3});
  EXPECT_THROW(Interpreter(g).run({{"input", wrong}}), ContractError);
}

}  // namespace
}  // namespace lp::exec
