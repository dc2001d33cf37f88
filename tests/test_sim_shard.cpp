#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include "check/digest.hpp"
#include "phy/sensitivity.hpp"
#include "sim/scenario.hpp"
#include "sim/traffic.hpp"

namespace alphawan {
namespace {

TEST(ShardLayout, StripesPartitionTheRegion) {
  const Region region{Meters{1000.0}, Meters{500.0}};
  const ShardLayout layout(region, 4);
  EXPECT_EQ(layout.shards(), 4);
  EXPECT_EQ(layout.shard_of(Point{Meters{0.0}, Meters{10.0}}), 0);
  EXPECT_EQ(layout.shard_of(Point{Meters{249.0}, Meters{10.0}}), 0);
  EXPECT_EQ(layout.shard_of(Point{Meters{250.0}, Meters{10.0}}), 1);
  EXPECT_EQ(layout.shard_of(Point{Meters{999.0}, Meters{10.0}}), 3);
}

TEST(ShardLayout, OutOfRegionPointsClampToNearestStripe) {
  const ShardLayout layout(Region{Meters{1000.0}, Meters{500.0}}, 2);
  EXPECT_EQ(layout.shard_of(Point{Meters{-50.0}, Meters{0.0}}), 0);
  EXPECT_EQ(layout.shard_of(Point{Meters{5000.0}, Meters{0.0}}), 1);
}

TEST(ShardLayout, SingleShardOwnsEverything) {
  const ShardLayout layout(Region{Meters{1000.0}, Meters{500.0}}, 1);
  EXPECT_EQ(layout.shard_of(Point{Meters{999.0}, Meters{499.0}}), 0);
}

TEST(ShardCount, ParseMirrorsThreadCountRules) {
  EXPECT_EQ(parse_shard_count(nullptr), 1);
  EXPECT_EQ(parse_shard_count(""), 1);
  EXPECT_EQ(parse_shard_count("garbage"), 1);
  EXPECT_EQ(parse_shard_count("0"), 1);
  EXPECT_EQ(parse_shard_count("-3"), 1);
  EXPECT_EQ(parse_shard_count("8"), 8);
  EXPECT_EQ(parse_shard_count("8x"), 1);
}

TEST(ShardCount, ResolvePicksDefaultForZero) {
  EXPECT_EQ(resolve_shard_count(4), 4);
  EXPECT_EQ(resolve_shard_count(-2), 1);
  EXPECT_GE(resolve_shard_count(0), 1);
}

// A region wide enough that audibility genuinely differs per stripe: with
// the default channel model the conservative audibility radius is ~6.6 km,
// so gateways 100 km apart cannot both hear one node.
struct WideFixture {
  Deployment deployment{Region{Meters{200000.0}, Meters{1000.0}},
                        spectrum_1m6()};
  Network* network = nullptr;
  PacketIdSource ids;

  // Gateways: one deep in each half, plus a pair straddling the border.
  Point gw_west{Meters{50000.0}, Meters{500.0}};
  Point gw_border_west{Meters{99000.0}, Meters{500.0}};
  Point gw_border_east{Meters{101000.0}, Meters{500.0}};
  Point gw_east{Meters{150000.0}, Meters{500.0}};

  WideFixture() {
    network = &deployment.add_network("op");
    const auto plan = standard_plan(deployment.spectrum(), 0);
    for (const auto& pos :
         {gw_west, gw_border_west, gw_border_east, gw_east}) {
      auto& gw = network->add_gateway(deployment.next_gateway_id(), pos,
                                      default_profile());
      gw.apply_channels(GatewayChannelConfig{plan.channels});
    }
  }

  EndNode& add_node(Point pos) {
    NodeRadioConfig cfg;
    cfg.channel = deployment.spectrum().grid_channel(0);
    cfg.dr = DataRate::kDR0;
    cfg.tx_power = Dbm{14.0};
    return network->add_node(deployment.next_node_id(), pos, cfg);
  }

  [[nodiscard]] Dbm prune_floor() const {
    return noise_floor_dbm(kLoRaBandwidth125k) - RunOptions{}.prune_margin;
  }

  // The runner's prepass probe: resolve the node's directory key, then
  // register it in slice `shard` only if it is audible there.
  std::uint32_t probe(ShardedLinkCache& caches, std::size_t shard,
                      NodeId node, const Point& origin) {
    return caches.slice(shard).ensure_row_if_audible(
        caches.directory().intern(node), node, origin, prune_floor(),
        kMaxTxPower);
  }
};

TEST(ShardMembership, NodeAudibleInOneShardOnly) {
  WideFixture f;
  auto& caches = f.deployment.shard_caches(2);
  const NodeId node = 1000;
  const Point near_west{Meters{50100.0}, Meters{500.0}};
  EXPECT_NE(f.probe(caches, 0, node, near_west), LinkCache::kInvalidRow);
  EXPECT_EQ(f.probe(caches, 1, node, near_west), LinkCache::kInvalidRow);
}

TEST(ShardMembership, BoundaryNodeAudibleInAllShards) {
  WideFixture f;
  auto& caches = f.deployment.shard_caches(2);
  const NodeId node = 1001;
  // Mid-border: ~1 km from both straddling gateways, one per stripe.
  const Point border{Meters{100000.0}, Meters{500.0}};
  EXPECT_NE(f.probe(caches, 0, node, border), LinkCache::kInvalidRow);
  EXPECT_NE(f.probe(caches, 1, node, border), LinkCache::kInvalidRow);
}

TEST(ShardMembership, DeadZoneNodeAudibleNowhere) {
  WideFixture f;
  auto& caches = f.deployment.shard_caches(2);
  const NodeId node = 1002;
  // ~49 km past the easternmost gateway.
  const Point dead{Meters{199000.0}, Meters{500.0}};
  EXPECT_EQ(f.probe(caches, 0, node, dead), LinkCache::kInvalidRow);
  EXPECT_EQ(f.probe(caches, 1, node, dead), LinkCache::kInvalidRow);
  // The rejection is memoized: same origin and structure, same answer.
  EXPECT_EQ(f.probe(caches, 1, node, dead), LinkCache::kInvalidRow);
  EXPECT_EQ(caches.row_of(1, node), LinkCache::kInvalidRow);
}

TEST(ShardMembership, NewGatewayInvalidatesRejectionMemo) {
  WideFixture f;
  auto& caches = f.deployment.shard_caches(2);
  const NodeId node = 1003;
  const Point dead{Meters{199000.0}, Meters{500.0}};
  LinkCache& east = caches.slice(1);
  ASSERT_EQ(f.probe(caches, 1, node, dead), LinkCache::kInvalidRow);
  const std::uint64_t epoch_before = east.structure_epoch();
  // A gateway appears next to the dead zone; the memo must not mask it.
  auto& gw = f.network->add_gateway(f.deployment.next_gateway_id(),
                                    Point{Meters{198500.0}, Meters{500.0}},
                                    default_profile());
  gw.apply_channels(GatewayChannelConfig{
      standard_plan(f.deployment.spectrum(), 0).channels});
  auto& refreshed = f.deployment.shard_caches(2);
  EXPECT_GT(refreshed.slice(1).structure_epoch(), epoch_before);
  EXPECT_NE(f.probe(refreshed, 1, node, dead), LinkCache::kInvalidRow);
}

TEST(ShardMembership, MovedOriginReprobesRejectedNode) {
  WideFixture f;
  auto& caches = f.deployment.shard_caches(2);
  const NodeId node = 1004;
  const Point dead{Meters{199000.0}, Meters{500.0}};
  ASSERT_EQ(f.probe(caches, 1, node, dead), LinkCache::kInvalidRow);
  // The same virtual id reappears near a gateway (id reuse by traffic
  // generators): the stale rejection must not stick.
  const Point near_east{Meters{150100.0}, Meters{500.0}};
  EXPECT_NE(f.probe(caches, 1, node, near_east), LinkCache::kInvalidRow);
}

TEST(ShardRunner, WideWorldDigestIsShardInvariant) {
  auto run_digest = [](int shards) {
    WideFixture f;
    std::vector<EndNode*> nodes;
    // Nodes spread across both stripes, the border, and the dead zone.
    for (const double x : {49800.0, 50300.0, 99500.0, 100000.0, 100600.0,
                           149700.0, 150400.0, 199000.0}) {
      nodes.push_back(&f.add_node(Point{Meters{x}, Meters{480.0}}));
    }
    RunOptions options;
    options.shards = shards;
    ScenarioRunner runner(f.deployment, /*seed=*/7, options);
    const auto txs = concurrent_burst(nodes, Seconds{0.0}, f.ids);
    return fate_digest(runner.run_window(txs).fates);
  };
  const std::uint64_t mono = run_digest(1);
  EXPECT_EQ(run_digest(2), mono);
  EXPECT_EQ(run_digest(8), mono);
}

TEST(ShardRunner, StatsReportBoundaryAndResidency) {
  WideFixture f;
  std::vector<EndNode*> nodes;
  nodes.push_back(&f.add_node(Point{Meters{50300.0}, Meters{480.0}}));
  nodes.push_back(&f.add_node(Point{Meters{99800.0}, Meters{480.0}}));
  nodes.push_back(&f.add_node(Point{Meters{199000.0}, Meters{480.0}}));
  RunOptions options;
  options.shards = 2;
  ScenarioRunner runner(f.deployment, /*seed=*/7, options);
  const auto txs = concurrent_burst(nodes, Seconds{0.0}, f.ids);
  (void)runner.run_window(txs);
  const ShardWindowStats& stats = runner.shard_stats();
  EXPECT_EQ(stats.shards, 2);
  // The west node is resident only in shard 0, the border node in both,
  // and the dead-zone node nowhere: three rows total, one of them across
  // the border from its home stripe.
  EXPECT_EQ(stats.resident_rows, 3u);
  EXPECT_EQ(stats.boundary_rows, 1u);
}

}  // namespace
}  // namespace alphawan
