#include "core/cp_problem.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace alphawan {

bool CpInstance::valid() const {
  if (num_channels <= 0 || gateways.empty()) return false;
  for (const auto& node : nodes) {
    if (node.min_level.size() != gateways.size()) return false;
    for (const auto level : node.min_level) {
      if (level >= kNumLevels && level != kUnreachable) return false;
    }
  }
  return pair_capacity.size() == static_cast<std::size_t>(kNumDataRates);
}

double CpInstance::total_decoders() const {
  double total = 0.0;
  for (const auto& gw : gateways) total += gw.decoders;
  return total;
}

double CpInstance::total_traffic() const {
  double total = 0.0;
  for (const auto& node : nodes) total += node.traffic;
  return total;
}

CpSolution CpSolution::empty_for(const CpInstance& instance) {
  CpSolution s;
  s.gateway_channels.resize(instance.gateways.size());
  s.node_channel.assign(instance.nodes.size(), 0);
  s.node_level.assign(instance.nodes.size(), 0);
  return s;
}

bool feasible(const CpInstance& instance, const CpSolution& solution) {
  if (solution.gateway_channels.size() != instance.gateways.size() ||
      solution.node_channel.size() != instance.nodes.size() ||
      solution.node_level.size() != instance.nodes.size()) {
    return false;
  }
  for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
    const auto& chans = solution.gateway_channels[j];
    const auto& gw = instance.gateways[j];
    if (chans.empty() ||
        static_cast<int>(chans.size()) > gw.max_channels) {
      return false;
    }
    if (!std::is_sorted(chans.begin(), chans.end())) return false;
    if (std::adjacent_find(chans.begin(), chans.end()) != chans.end()) {
      return false;
    }
    if (chans.front() < 0 || chans.back() >= instance.num_channels) {
      return false;
    }
    if (chans.back() - chans.front() + 1 > gw.max_span_channels) return false;
  }
  for (std::size_t i = 0; i < instance.nodes.size(); ++i) {
    if (solution.node_channel[i] < 0 ||
        solution.node_channel[i] >= instance.num_channels) {
      return false;
    }
    if (solution.node_level[i] < 0 || solution.node_level[i] >= kNumLevels) {
      return false;
    }
  }
  return true;
}

void repair(const CpInstance& instance, CpSolution& solution) {
  solution.gateway_channels.resize(instance.gateways.size());
  solution.node_channel.resize(instance.nodes.size(), 0);
  solution.node_level.resize(instance.nodes.size(), 0);
  for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
    auto& chans = solution.gateway_channels[j];
    const auto& gw = instance.gateways[j];
    for (auto& c : chans) {
      c = std::clamp(c, 0, instance.num_channels - 1);
    }
    std::sort(chans.begin(), chans.end());
    chans.erase(std::unique(chans.begin(), chans.end()), chans.end());
    if (chans.empty()) chans.push_back(0);
    // Enforce the bandwidth span: keep the densest window of allowed span.
    const int span = gw.max_span_channels;
    if (chans.back() - chans.front() + 1 > span) {
      std::size_t best_begin = 0;
      std::size_t best_count = 0;
      std::size_t begin = 0;
      for (std::size_t end = 0; end < chans.size(); ++end) {
        while (chans[end] - chans[begin] + 1 > span) ++begin;
        if (end - begin + 1 > best_count) {
          best_count = end - begin + 1;
          best_begin = begin;
        }
      }
      std::vector<std::int32_t> kept(
          chans.begin() + static_cast<std::ptrdiff_t>(best_begin),
          chans.begin() + static_cast<std::ptrdiff_t>(best_begin + best_count));
      chans = std::move(kept);
    }
    // Enforce the channel-count cap.
    if (static_cast<int>(chans.size()) > gw.max_channels) {
      chans.resize(static_cast<std::size_t>(gw.max_channels));
    }
  }
  for (std::size_t i = 0; i < instance.nodes.size(); ++i) {
    solution.node_channel[i] =
        std::clamp(solution.node_channel[i], 0, instance.num_channels - 1);
    solution.node_level[i] =
        std::clamp(solution.node_level[i], 0, kNumLevels - 1);
  }
}

CpReachIndex::CpReachIndex(const CpInstance& instance)
    : instance_(&instance),
      words_((instance.gateways.size() + 63) / 64),
      traffic_(instance.nodes.size()),
      reach_(instance.nodes.size() * kNumLevels * words_, 0) {
  for (std::size_t i = 0; i < instance.nodes.size(); ++i) {
    const auto& node = instance.nodes[i];
    traffic_[i] = node.traffic;
    for (std::size_t j = 0; j < instance.gateways.size(); ++j) {
      // Reachability is monotone in the level: set bit j from min_level up.
      for (int level = node.min_level[j]; level < kNumLevels; ++level) {
        reach_[(i * kNumLevels + static_cast<std::size_t>(level)) * words_ +
               j / 64] |= 1ULL << (j % 64);
      }
    }
  }
}

CpEvaluation evaluate(const CpInstance& instance, const CpSolution& solution,
                      const CpWeights& weights) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("evaluate: ") + what);
  };
  if (!instance.valid()) fail("invalid CP instance");
  if (solution.gateway_channels.size() != instance.gateways.size() ||
      solution.node_channel.size() != instance.nodes.size() ||
      solution.node_level.size() != instance.nodes.size()) {
    fail("solution sizes do not match the instance");
  }
  const auto channel_ok = [&](std::int32_t c) {
    return c >= 0 && c < instance.num_channels;
  };
  for (const auto& chans : solution.gateway_channels) {
    if (!std::all_of(chans.begin(), chans.end(), channel_ok)) {
      fail("gateway channel out of range");
    }
  }
  for (std::size_t i = 0; i < instance.nodes.size(); ++i) {
    if (!channel_ok(solution.node_channel[i])) {
      fail("node channel out of range");
    }
    if (solution.node_level[i] < 0 || solution.node_level[i] >= kNumLevels) {
      fail("node level out of range");
    }
  }
  return evaluate(CpReachIndex(instance), solution, weights);
}

// The serving set of node i is reach(i, level) & chan_gw[channel]. Both
// passes visit its set bits in ascending gateway order and the nodes in
// order, so each gateway_load[j] is a node-order sum and best_phi folds in
// gateway order: every field is bit-identical to the straight per-node,
// per-gateway loop (tests/cp_reference.hpp).
CpEvaluation evaluate(const CpReachIndex& index, const CpSolution& solution,
                      const CpWeights& weights) {
  const CpInstance& instance = index.instance();
  assert(feasible(instance, solution));
  CpEvaluation eval;
  const std::size_t num_gw = instance.gateways.size();
  const std::size_t num_nodes = instance.nodes.size();
  const std::size_t words = index.words();

  // One gateway mask row per grid channel: bit j set iff gateway j
  // operates the channel.
  std::vector<std::uint64_t> chan_gw(
      static_cast<std::size_t>(instance.num_channels) * words, 0);
  for (std::size_t j = 0; j < num_gw; ++j) {
    for (const auto c : solution.gateway_channels[j]) {
      chan_gw[static_cast<std::size_t>(c) * words + j / 64] |=
          1ULL << (j % 64);
    }
  }
  const auto for_each_server = [&](std::size_t i, auto&& visit) {
    const std::uint64_t* reach = index.reach(i, solution.node_level[i]);
    const std::uint64_t* row =
        chan_gw.data() +
        static_cast<std::size_t>(solution.node_channel[i]) * words;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = reach[w] & row[w]; bits != 0;
           bits &= bits - 1) {
        visit(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  };

  // Pass 1: gateway loads k_j and per-(channel, dr) pair loads.
  eval.gateway_load.assign(num_gw, 0.0);
  std::vector<double> pair_load(
      static_cast<std::size_t>(instance.num_channels) * kNumDataRates, 0.0);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const double traffic = index.traffic(i);
    for_each_server(i,
                    [&](std::size_t j) { eval.gateway_load[j] += traffic; });
    const auto ch = static_cast<std::size_t>(solution.node_channel[i]);
    const auto dr = static_cast<std::size_t>(
        dr_value(level_to_dr(solution.node_level[i])));
    pair_load[ch * kNumDataRates + dr] += traffic;
  }

  // Gateway overload phi_j, normalized to the expected FRACTION of this
  // gateway's packets lost to decoder exhaustion: (k_j - C_j) / k_j.
  // (The paper uses the raw overshoot k_j - C_j; normalizing makes the
  // risk commensurable with the certain losses of disconnection and RF
  // pair collisions, which matters once demand exceeds total capacity.)
  std::vector<double> phi(num_gw, 0.0);
  for (std::size_t j = 0; j < num_gw; ++j) {
    const double k = eval.gateway_load[j];
    const double c = static_cast<double>(instance.gateways[j].decoders);
    phi[j] = k > c ? (k - c) / k : 0.0;
  }

  // Pass 2: node risk Phi_i = min phi over serving gateways.
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const double traffic = index.traffic(i);
    double best_phi = -1.0;
    for_each_server(i, [&](std::size_t j) {
      if (best_phi < 0.0 || phi[j] < best_phi) best_phi = phi[j];
    });
    if (best_phi < 0.0) {
      eval.disconnected += traffic;
    } else {
      eval.overload_risk += traffic * best_phi;
    }
    eval.level_bias += weights.level_cost * traffic *
                       static_cast<double>(solution.node_level[i]);
  }
  eval.objective += eval.level_bias;

  // RF channel contention pressure: load beyond a pair's capacity.
  for (int ch = 0; ch < instance.num_channels; ++ch) {
    for (int dr = 0; dr < kNumDataRates; ++dr) {
      const double load =
          pair_load[static_cast<std::size_t>(ch) * kNumDataRates + dr];
      const double cap = instance.pair_capacity[static_cast<std::size_t>(dr)];
      if (load > cap) eval.pair_overload += load - cap;
    }
  }

  eval.objective += eval.overload_risk +
                    weights.pair_overload_weight * eval.pair_overload +
                    weights.disconnect_penalty * eval.disconnected;
  return eval;
}

}  // namespace alphawan
