// The batched-kernel differential harness: the batched receive pipeline
// must be bit-identical to the scalar reference pipeline on every world —
// not just on average, not just statistically. The scalar pipeline is gone;
// its per-case digests are recorded in tests/golden/scalar_oracle_digests.txt
// (tests/scalar_oracle.hpp). Three layers:
//   - across >= 100 random worlds, the window fate digest equals the
//     recorded scalar digest at every (shards, threads) in {1,8} x {1,8} —
//     batching composes with sharding and the thread fan-out without
//     perturbing a single fate;
//   - every registered baseline scheme (MAC side and capture side,
//     including the policy schemes cic / ss5g / curvinglora whose
//     resolve() reads the columnar CaptureContext) reproduces its recorded
//     scalar digest on randomized worlds;
//   - a same-seed rerun replays bit-for-bit (all randomness flows through
//     keyed substreams, never iteration order).
//
// Cases are keyed by seed, so on a failure only the unshrunk case compares
// against its own recorded digest; the shrinker's smaller worlds have none.
#include <gtest/gtest.h>

#include "baselines/registry.hpp"
#include "check/digest.hpp"
#include "proptest.hpp"
#include "scalar_oracle.hpp"

namespace alphawan {
namespace {

using prop::CaseParams;

std::uint64_t window_digest(const CaseParams& params, int threads,
                            int shards) {
  prop::World world = prop::build_world(params);
  RunOptions options;
  options.threads = threads;
  options.shards = shards;
  ScenarioRunner runner(*world.deployment, params.seed, options);
  return fate_digest(runner.run_window(world.txs).fates);
}

TEST(BatchDifferential, BatchedEqualsScalarAcrossRandomWorlds) {
  CaseParams lo;
  lo.networks = 1;
  lo.gateways_per_net = 1;
  lo.nodes_per_net = 4;
  lo.plan_channels = 2;
  lo.decoders = 4;
  CaseParams hi;
  hi.networks = 3;
  hi.gateways_per_net = 4;
  hi.nodes_per_net = 40;
  hi.plan_channels = 8;
  hi.decoders = 16;
  prop::check_property(
      "batched kernels are bit-identical to the scalar reference",
      /*cases=*/100, /*seed=*/20260811, lo, hi,
      [](const CaseParams& params) -> std::optional<std::string> {
        const std::string scalar = oracle::scalar_digest(
            "BatchDifferential.BatchedEqualsScalarAcrossRandomWorlds",
            std::to_string(params.seed));
        for (const int shards : {1, 8}) {
          for (const int threads : {1, 8}) {
            const std::string batched =
                digest_hex(window_digest(params, threads, shards));
            if (batched != scalar) {
              return "batched digest " + batched + " at shards=" +
                     std::to_string(shards) + " threads=" +
                     std::to_string(threads) + " != recorded scalar digest " +
                     scalar;
            }
          }
        }
        return std::nullopt;
      });
}

TEST(BatchDifferential, SameSeedBatchedRunReplaysIdentically) {
  CaseParams lo;
  lo.networks = 1;
  lo.gateways_per_net = 1;
  lo.nodes_per_net = 4;
  lo.plan_channels = 2;
  lo.decoders = 4;
  CaseParams hi;
  hi.networks = 2;
  hi.gateways_per_net = 3;
  hi.nodes_per_net = 24;
  hi.plan_channels = 8;
  hi.decoders = 16;
  prop::check_property(
      "same-seed batched window replays identically", /*cases=*/20,
      /*seed=*/20260812, lo, hi,
      [](const CaseParams& params) -> std::optional<std::string> {
        const std::uint64_t first =
            window_digest(params, /*threads=*/8, /*shards=*/8);
        const std::uint64_t replay =
            window_digest(params, /*threads=*/8, /*shards=*/8);
        if (first != replay) {
          return "replay digest " + digest_hex(replay) + " != first run " +
                 digest_hex(first);
        }
        return std::nullopt;
      });
}

// ---- every scheme against the recorded scalar digests --------------------

// Registry tuning sized for property cheapness (same shape as
// test_prop_baselines.cpp).
BaselineTuning cheap_tuning() {
  BaselineTuning tuning;
  tuning.alphawan.controller.planner.ga.population = 8;
  tuning.alphawan.controller.planner.ga.generations = 2;
  tuning.alphawan.demand_per_node = 0.05;
  return tuning;
}

struct SchemeWorld {
  std::unique_ptr<Deployment> deployment;
  std::vector<Transmission> txs;
};

SchemeWorld build_scheme_world(const BaselineScheme& scheme,
                               const CaseParams& p) {
  SchemeWorld world;
  world.deployment = std::make_unique<Deployment>(
      Region{Meters{1000.0}, Meters{1000.0}}, spectrum_1m6(),
      ChannelModelConfig{});
  auto& network = world.deployment->add_network("op");
  GatewayProfile profile = default_profile();
  profile.decoders = p.decoders;
  Rng rng(p.seed);
  world.deployment->place_gateways(network, p.gateways_per_net, profile, rng);
  world.deployment->place_nodes(network, p.nodes_per_net, rng);
  scheme.configure(*world.deployment, network, rng);

  std::vector<EndNode*> nodes;
  for (auto& node : network.nodes()) nodes.push_back(&node);
  PacketIdSource ids;
  Rng traffic_rng = Rng(p.seed).substream("traffic");
  world.txs = p.burst
                  ? concurrent_burst(nodes, Seconds{0.0}, ids)
                  : poisson_traffic(nodes, Seconds{0.8}, 1.5, traffic_rng, ids);
  Rng shape_rng = Rng(p.seed).substream("mac-shape");
  world.txs = scheme.shape_window(std::move(world.txs), shape_rng);
  return world;
}

std::uint64_t scheme_digest(const BaselineScheme& scheme,
                            const CaseParams& p) {
  SchemeWorld world = build_scheme_world(scheme, p);
  RunOptions options;
  options.capture_policy = scheme.capture;
  ScenarioRunner runner(*world.deployment, p.seed, std::move(options));
  return fate_digest(runner.run_window(world.txs).fates);
}

TEST(BatchDifferential, EveryRegisteredSchemeBitIdenticalAcrossModes) {
  // Dense burst worlds differentiate the capture policies: heavy
  // collisions give cic / ss5g / curvinglora packets to rescue, so a
  // context-column mismatch between the pipelines would flip fates.
  CaseParams lo;
  lo.networks = 1;
  lo.gateways_per_net = 1;
  lo.nodes_per_net = 8;
  lo.plan_channels = 2;
  lo.decoders = 4;
  CaseParams hi;
  hi.networks = 1;
  hi.gateways_per_net = 3;
  hi.nodes_per_net = 32;
  hi.plan_channels = 6;
  hi.decoders = 12;
  for (const auto& name : BaselineRegistry::instance().names()) {
    const BaselineScheme scheme =
        BaselineRegistry::instance().make(name, cheap_tuning());
    prop::check_property(
        ("scheme '" + name + "' matches the scalar reference").c_str(),
        /*cases=*/5, /*seed=*/20260813, lo, hi,
        [&](const CaseParams& params) -> std::optional<std::string> {
          const std::string scalar = oracle::scalar_digest(
              "BatchDifferential.EveryRegisteredSchemeBitIdenticalAcrossModes/"
              + name,
              std::to_string(params.seed));
          const std::string batched =
              digest_hex(scheme_digest(scheme, params));
          if (batched != scalar) {
            return "batched digest " + batched +
                   " != recorded scalar digest " + scalar;
          }
          return std::nullopt;
        });
  }
}

}  // namespace
}  // namespace alphawan
