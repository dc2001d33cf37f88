// Property: spatial sharding is bit-identical to the monolithic engine.
// For random worlds, the ordered fate stream of a window (its FNV-1a
// digest) must not depend on the shard count — alone or composed with any
// thread count — and a boundary node's audible-shard set must cover every
// shard holding one of its candidate gateways, so no reception can be lost
// at a stripe border (docs/sharding.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "check/digest.hpp"
#include "phy/sensitivity.hpp"
#include "proptest.hpp"

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

TEST(ShardDeterminism, WindowDigestIdenticalAcrossShardCounts) {
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
      "window digest is shard-count invariant", /*cases=*/50,
      /*seed=*/20260808, lo, hi,
      [](const CaseParams& params) -> std::optional<std::string> {
        const std::uint64_t mono = window_digest(params, /*threads=*/1,
                                                 /*shards=*/1);
        for (const int shards : {2, 8}) {
          for (const int threads : {1, 8}) {
            const std::uint64_t sharded =
                window_digest(params, threads, shards);
            if (sharded != mono) {
              return "digest " + digest_hex(sharded) + " at shards=" +
                     std::to_string(shards) + " threads=" +
                     std::to_string(threads) + " != monolithic digest " +
                     digest_hex(mono);
            }
          }
        }
        return std::nullopt;
      });
}

TEST(ShardDeterminism, SameSeedReplaysIdenticallyUnderSharding) {
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
      "same-seed window replays identically under sharding", /*cases=*/20,
      /*seed=*/20260809, lo, hi,
      [](const CaseParams& params) -> std::optional<std::string> {
        for (const int shards : {2, 8}) {
          const std::uint64_t first = window_digest(params, /*threads=*/8,
                                                    shards);
          const std::uint64_t replay = window_digest(params, /*threads=*/8,
                                                     shards);
          if (first != replay) {
            return "replay digest " + digest_hex(replay) + " at shards=" +
                   std::to_string(shards) + " != first run " +
                   digest_hex(first);
          }
        }
        return std::nullopt;
      });
}

// One window's observable outcome: its fate digest and shard telemetry,
// plus how many (transmitting id, slice) pairs have no resident row.
struct WindowTrace {
  std::uint64_t digest = 0;
  ShardWindowStats stats;
  std::size_t unresident = 0;
};

std::string describe_stats(const ShardWindowStats& s) {
  return "{shards=" + std::to_string(s.shards) +
         " resident_rows=" + std::to_string(s.resident_rows) +
         " boundary_rows=" + std::to_string(s.boundary_rows) +
         " boundary_events=" + std::to_string(s.boundary_events) + "}";
}

// Four windows of emulated-user traffic on one runner over a world wide
// enough (24 km, audibility reaches ~7 km) that transmitters are resident
// in some stripes and rejected in others. Virtual ids are reused
// window to window: windows 0 and 1 map each id to the same physical node,
// so window 1 hits resident rows and memoized rejections; window 2 rotates
// the mapping, so every id moves (in-place row refresh, stale memos);
// window 3 restores it.
std::vector<WindowTrace> emulated_windows(const CaseParams& params,
                                          int threads, int shards) {
  Deployment deployment(Region{Meters{24000.0}, Meters{2000.0}},
                        spectrum_1m6(), ChannelModelConfig{});
  GatewayProfile profile = default_profile();
  profile.decoders = params.decoders;
  const Rng root(params.seed);
  Rng place = root.substream("place");
  std::vector<EndNode*> nodes;
  for (int n = 0; n < params.networks; ++n) {
    auto& network = deployment.add_network("net-" + std::to_string(n));
    const auto plan = standard_plan(deployment.spectrum(), 0);
    for (int g = 0; g < params.gateways_per_net; ++g) {
      const Point pos{Meters{place.uniform(0.0, 24000.0)},
                      Meters{place.uniform(0.0, 2000.0)}};
      network.add_gateway(deployment.next_gateway_id(), pos, profile)
          .apply_channels(GatewayChannelConfig{plan.channels});
    }
    for (int i = 0; i < params.nodes_per_net; ++i) {
      NodeRadioConfig cfg;
      cfg.channel = deployment.spectrum().grid_channel(static_cast<int>(
          place.uniform_int(0, params.plan_channels - 1)));
      cfg.dr = static_cast<DataRate>(place.uniform_int(0, 5));
      cfg.tx_power = Dbm{14.0};
      const Point pos{Meters{place.uniform(0.0, 24000.0)},
                      Meters{place.uniform(0.0, 2000.0)}};
      nodes.push_back(
          &network.add_node(deployment.next_node_id(), pos, cfg));
    }
  }
  RunOptions options;
  options.threads = threads;
  options.shards = shards;
  ScenarioRunner runner(deployment, params.seed, options);
  PacketIdSource ids;
  std::vector<WindowTrace> traces;
  for (std::uint64_t w = 0; w < 4; ++w) {
    std::vector<EndNode*> order = nodes;
    if (w == 2) std::rotate(order.begin(), order.begin() + 1, order.end());
    Rng traffic = root.substream("traffic").substream(w);
    const auto txs = emulated_user_traffic(order, /*users_per_node=*/3,
                                           Seconds{2.0}, 0.5, traffic, ids);
    const WindowResult result = runner.run_window(txs);
    WindowTrace trace{fate_digest(result.fates), runner.shard_stats()};
    std::set<NodeId> sent;
    for (const auto& tx : txs) sent.insert(tx.node);
    auto& caches = deployment.shard_caches(shards);
    for (const NodeId id : sent) {
      for (std::size_t s = 0; s < caches.shard_count(); ++s) {
        if (caches.row_of(s, id) == LinkCache::kInvalidRow) {
          ++trace.unresident;
        }
      }
    }
    traces.push_back(trace);
  }
  return traces;
}

// The prepass registers rows in one task per shard slice. Per-window fate
// digests and every ShardWindowStats field must not depend on the thread
// count, while reused ids drive the resident-row and memoized-rejection
// paths concurrently; the digests must also match the monolithic run.
TEST(ShardDeterminism, ReusedIdWindowsAreThreadCountInvariant) {
  CaseParams lo;
  lo.networks = 1;
  lo.gateways_per_net = 2;
  lo.nodes_per_net = 6;
  lo.plan_channels = 2;
  lo.decoders = 4;
  CaseParams hi;
  hi.networks = 3;
  hi.gateways_per_net = 5;
  hi.nodes_per_net = 30;
  hi.plan_channels = 8;
  hi.decoders = 16;
  std::size_t rejecting_windows = 0;
  prop::check_property(
      "reused-id windows are thread-count invariant", /*cases=*/12,
      /*seed=*/20261017, lo, hi,
      [&](const CaseParams& params) -> std::optional<std::string> {
        const auto mono = emulated_windows(params, /*threads=*/1,
                                           /*shards=*/1);
        for (const int shards : {2, 8}) {
          const auto serial = emulated_windows(params, /*threads=*/1, shards);
          for (std::size_t w = 0; w < serial.size(); ++w) {
            if (serial[w].digest != mono[w].digest) {
              return "window " + std::to_string(w) + " digest at shards=" +
                     std::to_string(shards) + " != monolithic digest";
            }
            if (serial[w].unresident > 0) ++rejecting_windows;
          }
          for (const int threads : {2, 8}) {
            const auto parallel = emulated_windows(params, threads, shards);
            for (std::size_t w = 0; w < serial.size(); ++w) {
              const std::string where =
                  "window " + std::to_string(w) + " at shards=" +
                  std::to_string(shards) + " threads=" +
                  std::to_string(threads);
              if (parallel[w].digest != serial[w].digest) {
                return where + ": digest " + digest_hex(parallel[w].digest) +
                       " != threads=1 digest " + digest_hex(serial[w].digest);
              }
              if (parallel[w].stats != serial[w].stats ||
                  parallel[w].unresident != serial[w].unresident) {
                return where + ": stats " +
                       describe_stats(parallel[w].stats) + " unresident " +
                       std::to_string(parallel[w].unresident) +
                       " != threads=1 stats " +
                       describe_stats(serial[w].stats) + " unresident " +
                       std::to_string(serial[w].unresident);
              }
            }
          }
        }
        return std::nullopt;
      });
  EXPECT_GT(rejecting_windows, 0u)
      << "no window rejected a transmitter in any slice";
}

// Candidate gateway ids of every transmitter in a monolithic cache,
// registered the way the runner does it.
std::map<NodeId, std::set<GatewayId>> monolithic_candidates(
    prop::World& world, Dbm floor) {
  auto& caches = world.deployment->shard_caches(1);
  LinkCache& cache = caches.slice(0);
  std::vector<GatewayId> column_ids;
  for (auto& network : world.deployment->networks()) {
    for (auto& gw : network.gateways()) column_ids.push_back(gw.id());
  }
  std::map<NodeId, std::set<GatewayId>> candidates;
  for (const auto& tx : world.txs) {
    const std::uint32_t row = cache.ensure_row(
        caches.directory().intern(tx.node), tx.node, tx.origin);
    auto& set = candidates[tx.node];
    for (const std::uint32_t col :
         cache.candidate_columns(row, floor, kMaxTxPower)) {
      set.insert(column_ids[col]);
    }
  }
  return candidates;
}

TEST(ShardDeterminism, BoundaryAudibilityCoversEveryCandidateShard) {
  CaseParams lo;
  lo.networks = 1;
  lo.gateways_per_net = 1;
  lo.nodes_per_net = 4;
  lo.plan_channels = 2;
  lo.decoders = 4;
  CaseParams hi;
  hi.networks = 3;
  hi.gateways_per_net = 4;
  hi.nodes_per_net = 32;
  hi.plan_channels = 8;
  hi.decoders = 16;
  prop::check_property(
      "audible-shard set is a superset of the candidate-gateway shards",
      /*cases=*/25, /*seed=*/20260810, lo, hi,
      [](const CaseParams& params) -> std::optional<std::string> {
        const Dbm floor =
            noise_floor_dbm(kLoRaBandwidth125k) - RunOptions{}.prune_margin;
        // Ground truth from a monolithic cache on a fresh world.
        prop::World mono_world = prop::build_world(params);
        const auto candidates = monolithic_candidates(mono_world, floor);

        // Sharded run on an identically built world: the runner registers
        // each transmitter only where audible.
        const int shards = 4;
        prop::World world = prop::build_world(params);
        RunOptions options;
        options.shards = shards;
        ScenarioRunner runner(*world.deployment, params.seed, options);
        (void)runner.run_window(world.txs);
        auto& caches = world.deployment->shard_caches(shards);
        const ShardLayout layout = world.deployment->shard_layout(shards);

        for (auto& network : world.deployment->networks()) {
          for (auto& gw : network.gateways()) {
            const auto home =
                static_cast<std::size_t>(layout.shard_of(gw.position()));
            for (const auto& [node, gws] : candidates) {
              if (!gws.contains(gw.id())) continue;
              // This gateway is a candidate for the node, so the node must
              // be resident in the gateway's shard slice.
              if (caches.row_of(home, node) == LinkCache::kInvalidRow) {
                return "node " + std::to_string(node) +
                       " missing from shard " + std::to_string(home) +
                       " holding candidate gateway " + std::to_string(gw.id());
              }
            }
          }
        }
        return std::nullopt;
      });
}

}  // namespace
}  // namespace alphawan
