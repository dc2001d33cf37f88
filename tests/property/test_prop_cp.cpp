// CP fitness differential harness, two ways.
//
// Kernel oracle: evaluate() — through a shared CpReachIndex and through the
// public one-off entry point — must return every CpEvaluation field bit for
// bit equal to the straight-line reference loop in tests/cp_reference.hpp.
// The random instances cover 1..80 gateways (so the reach masks cross the
// 64-gateway word), 1..64 grid channels (where the reference is correct),
// kUnreachable levels, zero-traffic nodes and empty node sets.
//
// Solver oracle: solve_cp over random instances, crossed with
// frozen_nodes, forced_channel_count, initial and early_stop, must
// reproduce the digest recorded per case in
// tests/golden/ga_oracle_digests.txt (best solution, best_eval bits,
// generations_run, evaluations) at 1 and 8 threads.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/digest.hpp"
#include "common/rng.hpp"
#include "core/cp_problem.hpp"
#include "core/ga_solver.hpp"
#include "core/greedy_seed.hpp"
#include "cp_reference.hpp"

namespace alphawan {
namespace {

CpInstance random_instance(Rng& rng, int num_gw, int num_channels,
                           int max_nodes) {
  CpInstance inst;
  inst.spectrum = Spectrum{Hz{916.8e6}, num_channels * kChannelSpacing};
  inst.num_channels = num_channels;
  for (int j = 0; j < num_gw; ++j) {
    CpGateway gw;
    gw.id = static_cast<GatewayId>(j + 1);
    gw.decoders = static_cast<int>(rng.uniform_int(1, 24));
    gw.max_channels = static_cast<int>(rng.uniform_int(1, 8));
    gw.max_span_channels = static_cast<int>(rng.uniform_int(1, 16));
    inst.gateways.push_back(gw);
  }
  for (auto& cap : inst.pair_capacity) cap = rng.uniform(0.5, 3.0);
  const auto num_nodes = rng.uniform_int(0, max_nodes);
  for (std::int64_t i = 0; i < num_nodes; ++i) {
    CpNode node;
    node.id = static_cast<NodeId>(i + 1);
    node.traffic = rng.chance(0.15) ? 0.0 : rng.uniform(0.1, 3.0);
    node.min_level.resize(static_cast<std::size_t>(num_gw));
    for (auto& level : node.min_level) {
      const auto roll = rng.uniform_int(0, 7);
      level = roll >= kNumLevels ? kUnreachable
                                 : static_cast<std::uint8_t>(roll);
    }
    inst.nodes.push_back(std::move(node));
  }
  return inst;
}

// A repaired random plan; half the nodes sit on a channel their first
// reachable gateway operates, so most draws have served nodes to score.
CpSolution random_solution(const CpInstance& inst, Rng& rng) {
  CpSolution s = CpSolution::empty_for(inst);
  for (auto& chans : s.gateway_channels) {
    const auto count = rng.uniform_int(1, 8);
    for (std::int64_t c = 0; c < count; ++c) {
      chans.push_back(static_cast<std::int32_t>(
          rng.uniform_int(0, inst.num_channels - 1)));
    }
  }
  repair(inst, s);
  for (std::size_t i = 0; i < inst.nodes.size(); ++i) {
    s.node_channel[i] =
        static_cast<std::int32_t>(rng.uniform_int(0, inst.num_channels - 1));
    s.node_level[i] =
        static_cast<std::int32_t>(rng.uniform_int(0, kNumLevels - 1));
    if (!rng.chance(0.5)) continue;
    for (std::size_t j = 0; j < inst.gateways.size(); ++j) {
      const auto min_level = inst.nodes[i].min_level[j];
      if (min_level == kUnreachable) continue;
      const auto& chans = s.gateway_channels[j];
      s.node_channel[i] = chans[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(chans.size()) - 1))];
      s.node_level[i] =
          static_cast<std::int32_t>(rng.uniform_int(min_level, kNumLevels - 1));
      break;
    }
  }
  return s;
}

// The first field whose bits differ, or "" when all match.
std::string first_mismatch(const CpEvaluation& got, const CpEvaluation& want) {
  const auto differs = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b);
  };
  std::ostringstream out;
  out.precision(17);
  if (differs(got.objective, want.objective)) {
    out << "objective " << got.objective << " != " << want.objective;
  } else if (differs(got.overload_risk, want.overload_risk)) {
    out << "overload_risk " << got.overload_risk << " != "
        << want.overload_risk;
  } else if (differs(got.pair_overload, want.pair_overload)) {
    out << "pair_overload " << got.pair_overload << " != "
        << want.pair_overload;
  } else if (differs(got.disconnected, want.disconnected)) {
    out << "disconnected " << got.disconnected << " != " << want.disconnected;
  } else if (differs(got.level_bias, want.level_bias)) {
    out << "level_bias " << got.level_bias << " != " << want.level_bias;
  } else if (got.gateway_load.size() != want.gateway_load.size()) {
    out << "gateway_load size " << got.gateway_load.size()
        << " != " << want.gateway_load.size();
  } else {
    for (std::size_t j = 0; j < got.gateway_load.size(); ++j) {
      if (differs(got.gateway_load[j], want.gateway_load[j])) {
        out << "gateway_load[" << j << "] " << got.gateway_load[j]
            << " != " << want.gateway_load[j];
        break;
      }
    }
  }
  return out.str();
}

TEST(CpKernelOracle, ReachMaskKernelEqualsReferenceBitForBit) {
  constexpr int kInstances = 240;
  constexpr int kSolutionsPerInstance = 3;
  for (int k = 0; k < kInstances; ++k) {
    Rng rng(0xC0FFEEULL + static_cast<std::uint64_t>(k));
    // Every gateway count 1..80 three times; channels up to 64, where the
    // reference's single 64-bit channel mask is exact.
    const int num_gw = 1 + k % 80;
    const int num_channels = static_cast<int>(rng.uniform_int(1, 64));
    const CpInstance inst = random_instance(rng, num_gw, num_channels, 150);
    ASSERT_TRUE(inst.valid());
    const CpReachIndex index(inst);
    const CpWeights weights{rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0),
                            rng.uniform(0.0, 0.1)};
    for (int t = 0; t < kSolutionsPerInstance; ++t) {
      const CpSolution s = random_solution(inst, rng);
      const CpEvaluation want = test::reference_evaluate(inst, s, weights);
      const std::string context =
          "instance " + std::to_string(k) + " gateways=" +
          std::to_string(num_gw) + " channels=" + std::to_string(num_channels) +
          " nodes=" + std::to_string(inst.nodes.size()) + " solution " +
          std::to_string(t) + ": ";
      const std::string indexed =
          first_mismatch(evaluate(index, s, weights), want);
      ASSERT_EQ(indexed, "") << context << "shared index: " << indexed;
      const std::string one_off =
          first_mismatch(evaluate(inst, s, weights), want);
      ASSERT_EQ(one_off, "") << context << "public evaluate: " << one_off;
    }
  }
}

// ---- solver oracle ------------------------------------------------------

constexpr int kSolverInstances = 40;
// Flag bits of a solver case, crossed in full over every instance.
constexpr int kFrozen = 1;
constexpr int kForced = 2;
constexpr int kInitial = 4;
constexpr int kEarlyStop = 8;
constexpr int kFlagCombos = 16;

struct SolverCase {
  CpInstance instance;
  GaConfig config;
};

SolverCase solver_case(int k, int flags) {
  Rng rng(0x6A0000ULL + static_cast<std::uint64_t>(k));
  // Mostly small gateway counts; every tenth instance crosses the
  // 64-gateway word of the reach masks.
  const int num_gw = k % 10 == 9 ? static_cast<int>(rng.uniform_int(60, 70))
                                 : static_cast<int>(rng.uniform_int(1, 10));
  const int num_channels = static_cast<int>(rng.uniform_int(1, 40));
  SolverCase c{random_instance(rng, num_gw, num_channels, 60), GaConfig{}};
  GaConfig& cfg = c.config;
  cfg.population = 10;
  cfg.generations = 12;
  cfg.seed = 1000 + static_cast<std::uint64_t>(k);
  cfg.early_stop = (flags & kEarlyStop) != 0;
  const int forced = static_cast<int>(rng.uniform_int(1, 4));
  if ((flags & kForced) != 0) cfg.forced_channel_count = forced;
  // Draw both plans unconditionally so every flag combination of one
  // instance shares the same instance, seed and candidate plans.
  CpSolution frozen = greedy_seed(c.instance);
  for (std::size_t i = 0; i < frozen.node_channel.size(); ++i) {
    if (rng.chance(0.3)) {
      frozen.node_channel[i] = static_cast<std::int32_t>(
          rng.uniform_int(0, num_channels - 1));
    }
  }
  repair(c.instance, frozen);
  const CpSolution initial = random_solution(c.instance, rng);
  if ((flags & kFrozen) != 0) cfg.frozen_nodes = FrozenNodes{frozen};
  if ((flags & kInitial) != 0) cfg.initial = initial;
  return c;
}

std::uint64_t fold_u64(std::uint64_t v, std::uint64_t state) {
  return fnv1a(&v, sizeof v, state);
}
std::uint64_t fold_double(double v, std::uint64_t state) {
  return fold_u64(std::bit_cast<std::uint64_t>(v), state);
}
std::uint64_t fold_i32s(const std::vector<std::int32_t>& values,
                        std::uint64_t state) {
  state = fold_u64(values.size(), state);
  return values.empty()
             ? state
             : fnv1a(values.data(), values.size() * sizeof(std::int32_t),
                     state);
}

std::uint64_t ga_digest(const GaResult& r) {
  std::uint64_t h = kFnv1aOffset;
  h = fold_u64(r.best.gateway_channels.size(), h);
  for (const auto& chans : r.best.gateway_channels) h = fold_i32s(chans, h);
  h = fold_i32s(r.best.node_channel, h);
  h = fold_i32s(r.best.node_level, h);
  const CpEvaluation& e = r.best_eval;
  for (const double v : {e.objective, e.overload_risk, e.pair_overload,
                         e.disconnected, e.level_bias}) {
    h = fold_double(v, h);
  }
  h = fold_u64(e.gateway_load.size(), h);
  for (const double load : e.gateway_load) h = fold_double(load, h);
  h = fold_u64(static_cast<std::uint64_t>(r.generations_run), h);
  return fold_u64(r.evaluations, h);
}

std::string case_key(int k, int flags) {
  return std::to_string(k) + " " + std::to_string(flags);
}

// "<instance> <flags>" -> digest hex, parsed once per process.
const std::map<std::string, std::string>& recorded_ga_digests() {
  static const std::map<std::string, std::string> digests = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(std::string(ALPHAWAN_GOLDEN_DIR) +
                     "/ga_oracle_digests.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string k;
      std::string flags;
      std::string hex;
      if (fields >> k >> flags >> hex) out[k + " " + flags] = hex;
    }
    return out;
  }();
  return digests;
}

TEST(GaSolverOracle, SolveCpMatchesRecordedDigests) {
  const auto& recorded = recorded_ga_digests();
  ASSERT_EQ(recorded.size(),
            static_cast<std::size_t>(kSolverInstances * kFlagCombos))
      << "tests/golden/ga_oracle_digests.txt is missing cases";
  for (int k = 0; k < kSolverInstances; ++k) {
    for (int flags = 0; flags < kFlagCombos; ++flags) {
      SolverCase c = solver_case(k, flags);
      const std::string& want = recorded.at(case_key(k, flags));
      for (const int threads : {1, 8}) {
        c.config.threads = threads;
        const std::string got =
            digest_hex(ga_digest(solve_cp(c.instance, c.config)));
        ASSERT_EQ(got, want) << "case " << case_key(k, flags)
                             << " (flags: 1 frozen, 2 forced, 4 initial, "
                                "8 early_stop) at threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace alphawan
