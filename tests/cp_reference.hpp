// Test-only reference for the CP fitness kernel: the original per-node,
// per-gateway evaluate() loop, kept verbatim so the differential property
// suite (tests/property/test_prop_cp.cpp) can prove the reach-mask kernel
// returns bit-identical CpEvaluation fields. Each node re-tests every
// gateway's min_level and channel mask in both passes, and grid channels
// >= 64 are dropped — slow, and only correct up to 64 channels. Not for
// production use.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/cp_problem.hpp"

namespace alphawan::test {

inline CpEvaluation reference_evaluate(const CpInstance& instance,
                                       const CpSolution& solution,
                                       const CpWeights& weights = CpWeights{}) {
  assert(feasible(instance, solution));
  CpEvaluation eval;
  const std::size_t num_gw = instance.gateways.size();
  const std::size_t num_nodes = instance.nodes.size();

  // Channel masks per gateway (grid sizes used in practice are <= 64).
  std::vector<std::uint64_t> gw_mask(num_gw, 0);
  for (std::size_t j = 0; j < num_gw; ++j) {
    for (const auto c : solution.gateway_channels[j]) {
      if (c < 64) gw_mask[j] |= (1ULL << c);
    }
  }

  // Pass 1: gateway loads k_j and per-(channel, dr) pair loads.
  eval.gateway_load.assign(num_gw, 0.0);
  std::vector<double> pair_load(
      static_cast<std::size_t>(instance.num_channels) * kNumDataRates, 0.0);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const auto& node = instance.nodes[i];
    const int ch = solution.node_channel[i];
    const int level = solution.node_level[i];
    const std::uint64_t bit = ch < 64 ? (1ULL << ch) : 0;
    for (std::size_t j = 0; j < num_gw; ++j) {
      if (node.min_level[j] <= level && (gw_mask[j] & bit)) {
        eval.gateway_load[j] += node.traffic;
      }
    }
    const int dr = dr_value(level_to_dr(level));
    pair_load[static_cast<std::size_t>(ch) * kNumDataRates + dr] +=
        node.traffic;
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
    const auto& node = instance.nodes[i];
    const int ch = solution.node_channel[i];
    const int level = solution.node_level[i];
    const std::uint64_t bit = ch < 64 ? (1ULL << ch) : 0;
    double best_phi = -1.0;
    for (std::size_t j = 0; j < num_gw; ++j) {
      if (node.min_level[j] <= level && (gw_mask[j] & bit)) {
        if (best_phi < 0.0 || phi[j] < best_phi) best_phi = phi[j];
      }
    }
    if (best_phi < 0.0) {
      eval.disconnected += node.traffic;
    } else {
      eval.overload_risk += node.traffic * best_phi;
    }
    eval.level_bias += weights.level_cost * node.traffic *
                       static_cast<double>(level);
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

}  // namespace alphawan::test
