#include "core/cp_problem.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hpp"

namespace alphawan {
namespace {

// Instance: 2 gateways (4 decoders each), 8 channels, 6 nodes.
CpInstance small_instance() {
  CpInstance inst;
  inst.spectrum = Spectrum{Hz{923.2e6}, Hz{1.6e6}};
  inst.num_channels = 8;
  inst.gateways = {{1, 4, 8, 8}, {2, 4, 8, 8}};
  for (int i = 0; i < 6; ++i) {
    CpNode node;
    node.id = static_cast<NodeId>(100 + i);
    node.traffic = 1.0;
    node.min_level = {0, 0};  // reaches both gateways at any level
    inst.nodes.push_back(node);
  }
  return inst;
}

CpSolution trivial_solution(const CpInstance& inst) {
  CpSolution s = CpSolution::empty_for(inst);
  for (auto& chans : s.gateway_channels) chans = {0, 1, 2, 3};
  for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
    s.node_channel[i] = static_cast<std::int32_t>(i % 4);
    s.node_level[i] = static_cast<std::int32_t>(i % kNumLevels);
  }
  return s;
}

TEST(CpProblem, ValidInstance) {
  EXPECT_TRUE(small_instance().valid());
  CpInstance bad = small_instance();
  bad.nodes[0].min_level.pop_back();
  EXPECT_FALSE(bad.valid());
  CpInstance no_gw = small_instance();
  no_gw.gateways.clear();
  EXPECT_FALSE(no_gw.valid());
}

TEST(CpProblem, Totals) {
  const auto inst = small_instance();
  EXPECT_DOUBLE_EQ(inst.total_decoders(), 8.0);
  EXPECT_DOUBLE_EQ(inst.total_traffic(), 6.0);
}

TEST(CpProblem, FeasibleAcceptsValidSolution) {
  const auto inst = small_instance();
  EXPECT_TRUE(feasible(inst, trivial_solution(inst)));
}

TEST(CpProblem, FeasibleRejectsViolations) {
  const auto inst = small_instance();
  auto too_many = trivial_solution(inst);
  too_many.gateway_channels[0] = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_TRUE(feasible(inst, too_many));  // 8 channels allowed
  CpInstance narrow = inst;
  narrow.gateways[0].max_channels = 2;
  EXPECT_FALSE(feasible(narrow, too_many));

  auto out_of_range = trivial_solution(inst);
  out_of_range.node_channel[0] = 99;
  EXPECT_FALSE(feasible(inst, out_of_range));

  auto unsorted = trivial_solution(inst);
  unsorted.gateway_channels[0] = {3, 1};
  EXPECT_FALSE(feasible(inst, unsorted));

  auto duplicate = trivial_solution(inst);
  duplicate.gateway_channels[0] = {1, 1};
  EXPECT_FALSE(feasible(inst, duplicate));

  auto bad_level = trivial_solution(inst);
  bad_level.node_level[0] = 6;
  EXPECT_FALSE(feasible(inst, bad_level));
}

TEST(CpProblem, SpanConstraint) {
  CpInstance inst = small_instance();
  inst.num_channels = 24;
  inst.gateways[0].max_span_channels = 8;
  auto s = trivial_solution(inst);
  s.gateway_channels[0] = {0, 10};  // span 11 > 8
  EXPECT_FALSE(feasible(inst, s));
  s.gateway_channels[0] = {0, 7};
  EXPECT_TRUE(feasible(inst, s));
}

TEST(CpProblem, RepairProducesFeasible) {
  Rng rng(3);
  CpInstance inst = small_instance();
  inst.num_channels = 24;
  for (int trial = 0; trial < 200; ++trial) {
    CpSolution s = CpSolution::empty_for(inst);
    for (auto& chans : s.gateway_channels) {
      const int n = static_cast<int>(rng.uniform_int(0, 12));
      for (int k = 0; k < n; ++k) {
        chans.push_back(static_cast<std::int32_t>(rng.uniform_int(-5, 30)));
      }
    }
    for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
      s.node_channel[i] = static_cast<std::int32_t>(rng.uniform_int(-5, 30));
      s.node_level[i] = static_cast<std::int32_t>(rng.uniform_int(-2, 9));
    }
    repair(inst, s);
    EXPECT_TRUE(feasible(inst, s)) << "trial " << trial;
  }
}

TEST(CpProblem, EvaluateZeroWithDisjointGatewayChannels) {
  // With disjoint gateway channel sets no packet is double-counted:
  // gw1 {0..3} serves 4 nodes, gw2 {4..7} serves 2 -> no overload.
  const auto inst = small_instance();
  CpSolution s = CpSolution::empty_for(inst);
  s.gateway_channels[0] = {0, 1, 2, 3};
  s.gateway_channels[1] = {4, 5, 6, 7};
  for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
    s.node_channel[i] = static_cast<std::int32_t>(i);
    s.node_level[i] = static_cast<std::int32_t>(i % kNumLevels);
  }
  const auto eval = evaluate(inst, s);
  EXPECT_DOUBLE_EQ(eval.overload_risk, 0.0);
  EXPECT_DOUBLE_EQ(eval.disconnected, 0.0);
  EXPECT_DOUBLE_EQ(eval.pair_overload, 0.0);
  EXPECT_DOUBLE_EQ(eval.gateway_load[0], 4.0);
  EXPECT_DOUBLE_EQ(eval.gateway_load[1], 2.0);
}

TEST(CpProblem, OverlappingCoverageDoubleCountsLoad) {
  // Both gateways operate channels 0-3 and every node reaches both: each
  // packet contends at BOTH gateways (the paper's one-to-many reception),
  // so k_j = 6 > C_j = 4 and every node carries risk phi = 2.
  const auto inst = small_instance();
  const auto s = trivial_solution(inst);
  const auto eval = evaluate(inst, s);
  EXPECT_DOUBLE_EQ(eval.gateway_load[0], 6.0);
  EXPECT_DOUBLE_EQ(eval.gateway_load[1], 6.0);
  EXPECT_DOUBLE_EQ(eval.overload_risk, 6.0 * (2.0 / 6.0));
  EXPECT_DOUBLE_EQ(eval.disconnected, 0.0);
}

TEST(CpProblem, EvaluateDetectsOverload) {
  CpInstance inst = small_instance();
  inst.gateways = {{1, 2, 8, 8}};  // one gateway, 2 decoders
  for (auto& node : inst.nodes) node.min_level = {0};
  CpSolution s = CpSolution::empty_for(inst);
  s.gateway_channels[0] = {0};
  for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
    s.node_channel[i] = 0;
    s.node_level[i] = static_cast<std::int32_t>(i % kNumLevels);
  }
  const auto eval = evaluate(inst, s);
  // k = 6 vs C = 2 -> phi = 4/6 expected loss fraction per packet.
  EXPECT_DOUBLE_EQ(eval.gateway_load[0], 6.0);
  EXPECT_DOUBLE_EQ(eval.overload_risk, 6.0 * (4.0 / 6.0));
}

TEST(CpProblem, EvaluateDetectsDisconnection) {
  CpInstance inst = small_instance();
  CpSolution s = trivial_solution(inst);
  // Put node 0 on a channel no gateway operates.
  s.node_channel[0] = 7;
  for (auto& chans : s.gateway_channels) chans = {0, 1, 2, 3};
  const auto eval = evaluate(inst, s);
  EXPECT_DOUBLE_EQ(eval.disconnected, 1.0);
  EXPECT_GT(eval.objective, 1.0);  // certain-loss penalty applied
}

TEST(CpProblem, EvaluateDetectsPairOverload) {
  CpInstance inst = small_instance();
  CpSolution s = trivial_solution(inst);
  // Two nodes on the same (channel, level): RF contention.
  s.node_channel[0] = s.node_channel[1] = 0;
  s.node_level[0] = s.node_level[1] = 0;
  const auto eval = evaluate(inst, s);
  EXPECT_DOUBLE_EQ(eval.pair_overload, 1.0);
}

TEST(CpProblem, UnreachableLevelBlocksLink) {
  CpInstance inst = small_instance();
  // Node 0 reaches gateway 1 only at level >= 3.
  inst.nodes[0].min_level = {3, kUnreachable};
  CpSolution s = trivial_solution(inst);
  s.node_channel[0] = 0;
  s.node_level[0] = 2;  // below the min level: disconnected
  auto eval = evaluate(inst, s);
  EXPECT_DOUBLE_EQ(eval.disconnected, 1.0);
  s.node_level[0] = 3;
  eval = evaluate(inst, s);
  EXPECT_DOUBLE_EQ(eval.disconnected, 0.0);
}

TEST(CpProblem, EvaluateServesChannelsAbove64) {
  // An 80-channel grid: gateway 1 operates 70..73, gateway 2 operates 0..3.
  // Nodes on channels >= 64 are served like any other.
  CpInstance inst = small_instance();
  inst.num_channels = 80;
  inst.spectrum = Spectrum{Hz{916.8e6}, 80 * kChannelSpacing};
  CpSolution s = CpSolution::empty_for(inst);
  s.gateway_channels[0] = {70, 71, 72, 73};
  s.gateway_channels[1] = {0, 1, 2, 3};
  for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
    s.node_channel[i] = i < 4 ? static_cast<std::int32_t>(70 + i) : 79;
    s.node_level[i] = 0;
  }
  ASSERT_TRUE(feasible(inst, s));
  const auto eval = evaluate(inst, s);
  EXPECT_DOUBLE_EQ(eval.gateway_load[0], 4.0);
  EXPECT_DOUBLE_EQ(eval.gateway_load[1], 0.0);
  // Only the two nodes on channel 79, which no gateway operates.
  EXPECT_DOUBLE_EQ(eval.disconnected, 2.0);
}

TEST(CpProblem, EvaluateRejectsSolutionsOutsideTheInstance) {
  const auto inst = small_instance();
  const auto good = trivial_solution(inst);
  ASSERT_NO_THROW((void)evaluate(inst, good));

  auto short_gateways = good;
  short_gateways.gateway_channels.pop_back();
  EXPECT_THROW((void)evaluate(inst, short_gateways), std::invalid_argument);
  auto short_channels = good;
  short_channels.node_channel.pop_back();
  EXPECT_THROW((void)evaluate(inst, short_channels), std::invalid_argument);
  auto short_levels = good;
  short_levels.node_level.pop_back();
  EXPECT_THROW((void)evaluate(inst, short_levels), std::invalid_argument);

  for (const std::int32_t bad : {-1, 8}) {
    auto node_channel = good;
    node_channel.node_channel[2] = bad;
    EXPECT_THROW((void)evaluate(inst, node_channel), std::invalid_argument)
        << "node channel " << bad;
    auto gateway_channel = good;
    gateway_channel.gateway_channels[1].back() = bad;
    EXPECT_THROW((void)evaluate(inst, gateway_channel), std::invalid_argument)
        << "gateway channel " << bad;
  }
  for (const std::int32_t bad : {-1, kNumLevels}) {
    auto level = good;
    level.node_level[3] = bad;
    EXPECT_THROW((void)evaluate(inst, level), std::invalid_argument)
        << "node level " << bad;
  }
}

TEST(CpProblem, EvaluateRejectsInvalidInstance) {
  CpInstance inst = small_instance();
  const auto s = trivial_solution(inst);
  inst.nodes[0].min_level.pop_back();
  EXPECT_THROW((void)evaluate(inst, s), std::invalid_argument);
}

TEST(CpProblem, MinLevelMustBeALevelOrUnreachable) {
  CpInstance inst = small_instance();
  inst.nodes[0].min_level[1] = kUnreachable;
  EXPECT_TRUE(inst.valid());
  inst.nodes[0].min_level[1] = kNumLevels;
  EXPECT_FALSE(inst.valid());
}

TEST(CpProblem, LevelDrMapping) {
  EXPECT_EQ(level_to_dr(0), DataRate::kDR5);
  EXPECT_EQ(level_to_dr(5), DataRate::kDR0);
  for (int l = 0; l < kNumLevels; ++l) {
    EXPECT_EQ(dr_to_level(level_to_dr(l)), l);
  }
}

}  // namespace
}  // namespace alphawan
