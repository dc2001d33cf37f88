// Server-state oracle: what the window merge feeds each NetworkServer, and
// the shard telemetry it tallies, checked against digests recorded from the
// serial per-network merge.
//
// The fate digest covers classification only; it says nothing about the
// order and content of each server's operational log, its per-node delivery
// counts or its link profiles. Those depend on the merge handing every
// server its own gateways' uplinks in deployment order. For random
// multi-network worlds over three windows (Poisson traffic on physical ids,
// then emulated users, then the same virtual ids rotated onto other
// radios), every network's server digest and every ShardWindowStats field
// must match tests/golden/server_oracle_digests.txt at threads {1, 8} x
// shards {1, 2, 8}.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "check/digest.hpp"
#include "phy/sensitivity.hpp"
#include "proptest.hpp"

namespace alphawan {
namespace {

constexpr int kOracleCases = 48;
constexpr int kOracleWindows = 3;

std::uint64_t fold_u64(std::uint64_t v, std::uint64_t state) {
  return fnv1a(&v, sizeof v, state);
}
std::uint64_t fold_double(double v, std::uint64_t state) {
  return fold_u64(std::bit_cast<std::uint64_t>(v), state);
}

// Every UplinkRecord field of the log in order, then the per-node delivered
// counts and link profiles in key order.
std::uint64_t server_digest(const NetworkServer& server) {
  std::uint64_t h = kFnv1aOffset;
  h = fold_u64(server.log().size(), h);
  for (const UplinkRecord& rec : server.log()) {
    h = fold_u64(rec.packet, h);
    h = fold_u64(rec.node, h);
    h = fold_u64(rec.gateway, h);
    h = fold_u64(rec.network, h);
    h = fold_double(rec.timestamp.value(), h);
    h = fold_double(rec.channel.center.value(), h);
    h = fold_double(rec.channel.bandwidth.value(), h);
    h = fold_u64(static_cast<std::uint64_t>(rec.dr), h);
    h = fold_double(rec.snr.value(), h);
  }
  h = fold_u64(server.per_node_delivered().size(), h);
  for (const auto& [node, count] : server.per_node_delivered()) {
    h = fold_u64(node, h);
    h = fold_u64(count, h);
  }
  h = fold_u64(server.link_profiles().size(), h);
  for (const auto& [node, profile] : server.link_profiles()) {
    h = fold_u64(node, h);
    h = fold_u64(profile.uplinks, h);
    h = fold_u64(profile.gateway_snr.size(), h);
    for (const auto& [gw, snr] : profile.gateway_snr) {
      h = fold_u64(gw, h);
      h = fold_double(snr.value(), h);
    }
  }
  return h;
}

struct OracleRun {
  std::vector<std::uint64_t> servers;   // one digest per network
  std::vector<ShardWindowStats> stats;  // one per window
};

// Case k: 2-4 networks over a 16 km x 2 km strip (audibility reaches
// ~7 km, so every stripe count splits the world and transmitters go
// resident in some slices only). Every tenth case puts 22-24 gateways in
// each of 3 networks, so a single slice exceeds the 64-column mask path.
// Some nodes transmit above kMaxTxPower (the register-everywhere path), and
// some cases leave the last network without gateways.
OracleRun run_oracle_case(int k, int threads, int shards) {
  Rng rng(0x5E2E0000ULL + static_cast<std::uint64_t>(k));
  const bool wide = k % 10 == 9;
  const int networks = wide ? 3 : static_cast<int>(rng.uniform_int(2, 4));
  const int gateways_per_net = wide ? static_cast<int>(rng.uniform_int(22, 24))
                                    : static_cast<int>(rng.uniform_int(1, 6));
  const int nodes_per_net = static_cast<int>(rng.uniform_int(8, 40));
  const int plan_channels = static_cast<int>(rng.uniform_int(2, 8));
  const bool bare_last = rng.chance(0.2);
  Deployment deployment(Region{Meters{16000.0}, Meters{2000.0}},
                        spectrum_1m6(), ChannelModelConfig{});
  GatewayProfile profile = default_profile();
  profile.decoders = static_cast<int>(rng.uniform_int(4, 16));
  std::vector<EndNode*> nodes;
  for (int n = 0; n < networks; ++n) {
    auto& network = deployment.add_network("net-" + std::to_string(n));
    const auto plan = standard_plan(deployment.spectrum(), 0);
    const int gateways = bare_last && n == networks - 1 ? 0 : gateways_per_net;
    for (int g = 0; g < gateways; ++g) {
      const Point pos{Meters{rng.uniform(0.0, 16000.0)},
                      Meters{rng.uniform(0.0, 2000.0)}};
      network.add_gateway(deployment.next_gateway_id(), pos, profile)
          .apply_channels(GatewayChannelConfig{plan.channels});
    }
    for (int i = 0; i < nodes_per_net; ++i) {
      NodeRadioConfig cfg;
      cfg.channel = deployment.spectrum().grid_channel(
          static_cast<int>(rng.uniform_int(0, plan_channels - 1)));
      cfg.dr = static_cast<DataRate>(rng.uniform_int(0, 5));
      cfg.tx_power = rng.chance(0.1) ? kMaxTxPower + Db{6.0} : Dbm{14.0};
      const Point pos{Meters{rng.uniform(0.0, 16000.0)},
                      Meters{rng.uniform(0.0, 2000.0)}};
      nodes.push_back(&network.add_node(deployment.next_node_id(), pos, cfg));
    }
  }
  RunOptions options;
  options.threads = threads;
  options.shards = shards;
  const std::uint64_t seed = rng.next();
  ScenarioRunner runner(deployment, seed, options);
  const Rng root(seed);
  PacketIdSource ids;
  OracleRun run;
  for (int w = 0; w < kOracleWindows; ++w) {
    Rng traffic = root.substream("traffic").substream(
        static_cast<std::uint64_t>(w));
    std::vector<EndNode*> order = nodes;
    if (w == 2) std::rotate(order.begin(), order.begin() + 1, order.end());
    const auto txs =
        w == 0 ? poisson_traffic(order, Seconds{2.0}, 2.0, traffic, ids)
               : emulated_user_traffic(order, /*users_per_node=*/3,
                                       Seconds{2.0}, 1.0, traffic, ids);
    (void)runner.run_window(txs);
    run.stats.push_back(runner.shard_stats());
  }
  for (const auto& network : deployment.networks()) {
    run.servers.push_back(server_digest(network.server()));
  }
  return run;
}

// Lines "<case> net <index> <digest>" and "<case> stats <shards> <window>
// <shards> <resident_rows> <boundary_rows> <boundary_events>".
std::string stats_line(int k, int shards, int w, const ShardWindowStats& s) {
  return std::to_string(k) + " stats " + std::to_string(shards) + " " +
         std::to_string(w) + " " + std::to_string(s.shards) + " " +
         std::to_string(s.resident_rows) + " " +
         std::to_string(s.boundary_rows) + " " +
         std::to_string(s.boundary_events);
}
std::string server_line(int k, std::size_t n, std::uint64_t digest) {
  return std::to_string(k) + " net " + std::to_string(n) + " " +
         digest_hex(digest);
}

const std::vector<std::string>& recorded_lines() {
  static const std::vector<std::string> lines = [] {
    std::vector<std::string> out;
    std::ifstream in(std::string(ALPHAWAN_GOLDEN_DIR) +
                     "/server_oracle_digests.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] != '#') out.push_back(line);
    }
    return out;
  }();
  return lines;
}

// The recorded lines of one case, in file order.
std::vector<std::string> recorded_case(int k) {
  std::vector<std::string> out;
  const std::string prefix = std::to_string(k) + " ";
  for (const auto& line : recorded_lines()) {
    if (line.starts_with(prefix)) out.push_back(line);
  }
  return out;
}

TEST(ShardDeterminism, ServerStateMatchesRecordedOracle) {
  ASSERT_FALSE(recorded_lines().empty())
      << "tests/golden/server_oracle_digests.txt is missing";
  for (int k = 0; k < kOracleCases; ++k) {
    const std::vector<std::string> want = recorded_case(k);
    ASSERT_FALSE(want.empty()) << "no recorded lines for case " << k;
    for (const int threads : {1, 8}) {
      std::vector<std::string> got;
      std::vector<std::uint64_t> mono;
      for (const int shards : {1, 2, 8}) {
        const OracleRun run = run_oracle_case(k, threads, shards);
        if (shards == 1) {
          mono = run.servers;
          for (std::size_t n = 0; n < mono.size(); ++n) {
            got.push_back(server_line(k, n, mono[n]));
          }
        } else {
          // Server state never depends on the shard count.
          ASSERT_EQ(run.servers, mono)
              << "case " << k << " server state at shards=" << shards
              << " threads=" << threads << " differs from shards=1";
        }
        for (int w = 0; w < kOracleWindows; ++w) {
          got.push_back(stats_line(k, shards, w, run.stats[w]));
        }
      }
      ASSERT_EQ(got, want) << "case " << k << " at threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace alphawan
