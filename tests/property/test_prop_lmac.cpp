// LMAC shaping differential harness: LmacPolicy::shape_window (per-channel
// lanes, one sensed-set gather per packet) must return exactly the
// schedule of the straight-line reference pass in tests/lmac_reference.hpp
// — the same packet ids in the same order, bit-identical start times —
// and leave the shape Rng in the same state, which proves it made the
// same number of draws. The random worlds are built to reach the cases a
// grid-aligned scenario never does: several partially-overlapping lanes in
// one frequency bucket (off-grid centres, mixed 125/250/500 kHz
// bandwidths), transmitters exactly sense_range apart, equal start times,
// deferrals clamped at the deadline, and max_defer = 0. Single lanes whose
// length sits on either side of the 8-entry block search's boundaries,
// hidden terminals inside runs of time overlaps, a caller Rng with a
// cached normal pending, the empty window, a last-bit boundary on the
// packet's own duration, and one fig13 12k-user window are pinned
// separately.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/lmac.hpp"
#include "lmac_reference.hpp"
#include "phy/overlap.hpp"
#include "sim/topology.hpp"
#include "sim/traffic.hpp"

namespace alphawan {
namespace {

std::int64_t bucket_of(const Channel& channel) {
  return static_cast<std::int64_t>(channel.center / kChannelSpacing);
}

struct LmacWorld {
  std::vector<Transmission> txs;
  LmacOptions options;
};

LmacWorld random_world(std::uint64_t seed) {
  Rng rng(seed);
  LmacWorld world;
  constexpr std::array<double, 4> kDefers = {0.0, 0.02, 0.3, 5.0};
  constexpr std::array<double, 4> kRanges = {0.0, 200.0, 500.0, 1500.0};
  constexpr std::array<Hz, 3> kBandwidths = {
      kLoRaBandwidth125k, kLoRaBandwidth250k, kLoRaBandwidth500k};
  world.options.max_defer =
      Seconds{kDefers[static_cast<std::size_t>(rng.uniform_int(0, 3))]};
  world.options.min_gap = Seconds{rng.uniform(0.0, 0.02)};
  world.options.max_gap =
      rng.chance(0.2) ? world.options.min_gap
                      : world.options.min_gap + Seconds{rng.uniform(0.0, 0.05)};
  world.options.sense_range =
      Meters{kRanges[static_cast<std::size_t>(rng.uniform_int(0, 3))]};

  // Channel pool: grid channels, off-grid centres as random-cp / AlphaWAN
  // plans produce, and near-clones of an earlier channel that share its
  // bucket with a different bandwidth.
  const Hz base{916.8e6};
  std::vector<Channel> channels;
  const auto pool = rng.uniform_int(1, 6);
  for (std::int64_t c = 0; c < pool; ++c) {
    const auto kind = channels.empty() ? rng.uniform_int(0, 1)
                                       : rng.uniform_int(0, 2);
    Channel channel;
    channel.bandwidth =
        kBandwidths[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    if (kind == 0) {
      const auto grid = static_cast<double>(rng.uniform_int(0, 5));
      channel.center = base + Hz{100e3} + Hz{200e3} * grid;
      channel.bandwidth = kLoRaBandwidth125k;
    } else if (kind == 1) {
      const auto steps = static_cast<double>(rng.uniform_int(0, 96));
      channel.center = base + Hz{12.5e3} * steps;
    } else {
      const Channel& near = channels[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(channels.size()) - 1))];
      const auto steps = static_cast<double>(rng.uniform_int(-3, 3));
      channel.center = near.center + Hz{25e3} * steps;
    }
    channels.push_back(channel);
  }

  // Positions: a lattice sense_range apart (exact hidden-terminal edges),
  // plus free placements.
  const double r = world.options.sense_range.value() > 0.0
                       ? world.options.sense_range.value()
                       : 100.0;
  const std::array<Point, 4> lattice = {
      Point{Meters{0.0}, Meters{0.0}}, Point{Meters{r}, Meters{0.0}},
      Point{Meters{2.0 * r}, Meters{0.0}}, Point{Meters{0.0}, Meters{r}}};

  constexpr std::array<double, 3> kWindows = {0.5, 2.0, 6.0};
  constexpr std::array<double, 3> kQuanta = {0.0, 0.01, 0.25};
  const double window =
      kWindows[static_cast<std::size_t>(rng.uniform_int(0, 2))];
  const double quantum =
      kQuanta[static_cast<std::size_t>(rng.uniform_int(0, 2))];
  const bool burst = rng.chance(0.15);
  const auto count = rng.uniform_int(0, 150);
  for (std::int64_t i = 0; i < count; ++i) {
    Transmission tx;
    tx.id = static_cast<PacketId>(i + 1);
    tx.node = static_cast<NodeId>(i);
    tx.channel = channels[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(channels.size()) - 1))];
    tx.params.sf = static_cast<SpreadingFactor>(rng.uniform_int(7, 12));
    tx.params.bandwidth = tx.channel.bandwidth;
    tx.payload_bytes = static_cast<std::uint32_t>(rng.uniform_int(5, 30));
    tx.origin = rng.chance(0.6)
                    ? lattice[static_cast<std::size_t>(rng.uniform_int(0, 3))]
                    : Point{Meters{rng.uniform(0.0, 3.0 * r)},
                            Meters{rng.uniform(0.0, 3.0 * r)}};
    if (burst) {
      tx.start = Seconds{1.0};
    } else if (quantum > 0.0) {
      const auto slots = static_cast<std::int64_t>(window / quantum);
      tx.start = Seconds{
          quantum * static_cast<double>(rng.uniform_int(0, slots))};
    } else {
      tx.start = Seconds{rng.uniform(0.0, window)};
    }
    world.txs.push_back(tx);
  }
  return world;
}

// Runs both implementations from copies of `rng`; nullopt when the
// schedules and the post-run Rng states agree bit for bit.
std::optional<std::string> compare(
    const std::vector<Transmission>& txs, const LmacOptions& options,
    const Rng& rng, std::vector<Transmission>* reference_out = nullptr) {
  Rng reference_rng = rng;
  Rng lane_rng = rng;
  const auto reference =
      test::reference_lmac_shape_window(txs, reference_rng, options);
  const auto shaped = LmacPolicy(options).shape_window(txs, lane_rng);
  std::ostringstream out;
  if (reference.size() != shaped.size()) {
    out << "size " << shaped.size() << " != reference " << reference.size();
    return out.str();
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i].id != shaped[i].id ||
        std::bit_cast<std::uint64_t>(reference[i].start.value()) !=
            std::bit_cast<std::uint64_t>(shaped[i].start.value())) {
      out << "slot " << i << ": id " << shaped[i].id << " start "
          << shaped[i].start.value() << " != reference id " << reference[i].id
          << " start " << reference[i].start.value();
      return out.str();
    }
  }
  if (reference_rng.next() != lane_rng.next()) {
    return std::string("shape Rng state diverged (different draw count)");
  }
  if (reference_out != nullptr) *reference_out = reference;
  return std::nullopt;
}

TEST(LmacDifferential, LanesEqualReferenceAcrossRandomWorlds) {
  constexpr int kCases = 300;
  Rng meta(20261017);
  // How many worlds reached each case the benchmark never hits; asserted
  // below so the generator cannot silently stop producing them.
  int shared_bucket_lanes = 0;
  int exact_range_pairs = 0;
  int equal_starts = 0;
  int clamped = 0;
  int zero_defer = 0;
  int deferred = 0;
  for (int c = 0; c < kCases; ++c) {
    const std::uint64_t world_seed = meta.next();
    const std::uint64_t rng_seed = meta.next();
    const LmacWorld world = random_world(world_seed);
    std::vector<Transmission> reference;
    const auto failure =
        compare(world.txs, world.options, Rng(rng_seed), &reference);
    ASSERT_FALSE(failure.has_value())
        << "case " << c << " (world seed " << world_seed << ", rng seed "
        << rng_seed << "): " << *failure;

    std::map<PacketId, Seconds> offered;
    bool has_shared = false, has_exact = false, has_equal = false;
    for (std::size_t i = 0; i < world.txs.size(); ++i) {
      const Transmission& a = world.txs[i];
      offered[a.id] = a.start;
      for (std::size_t j = i + 1; j < world.txs.size(); ++j) {
        const Transmission& b = world.txs[j];
        const bool sensable = overlap_ratio(a.channel, b.channel) > 0.0;
        if (sensable && !(a.channel == b.channel) &&
            bucket_of(a.channel) == bucket_of(b.channel)) {
          has_shared = true;
        }
        if (sensable && world.options.sense_range > Meters{0.0} &&
            distance(a.origin, b.origin) == world.options.sense_range) {
          has_exact = true;
        }
        if (a.start == b.start) has_equal = true;
      }
    }
    bool has_clamp = false, has_deferral = false;
    for (const Transmission& tx : reference) {
      const Seconds original = offered.at(tx.id);
      if (tx.start != original) has_deferral = true;
      if (world.options.max_defer > Seconds{0.0} &&
          tx.start == original + world.options.max_defer) {
        has_clamp = true;
      }
    }
    shared_bucket_lanes += has_shared ? 1 : 0;
    exact_range_pairs += has_exact ? 1 : 0;
    equal_starts += has_equal ? 1 : 0;
    clamped += has_clamp ? 1 : 0;
    deferred += has_deferral ? 1 : 0;
    if (world.options.max_defer == Seconds{0.0} && !world.txs.empty()) {
      ++zero_defer;
    }
  }
  EXPECT_GE(shared_bucket_lanes, 20);
  EXPECT_GE(exact_range_pairs, 20);
  EXPECT_GE(equal_starts, 20);
  EXPECT_GE(clamped, 20);
  EXPECT_GE(zero_defer, 20);
  EXPECT_GE(deferred, 50);
}

// A burst on one grid channel: `count` transmissions start in [0, 10 ms),
// each still on the air when a last one starts at 10 ms (the shortest
// airtime, SF7 at 5 bytes, is longer), so the last packet scans a lane of
// exactly `count` entries. Transmitters sit on a line at multiples of half
// the sense range, so some hear the last packet's position and some do
// not, in an order the seed picks.
std::vector<Transmission> single_lane_burst(std::size_t count,
                                            std::uint64_t seed,
                                            const LmacOptions& options) {
  Rng rng(seed);
  const double half = options.sense_range.value() / 2.0;
  std::vector<Transmission> txs(count + 1);
  for (std::size_t i = 0; i <= count; ++i) {
    Transmission& tx = txs[i];
    tx.id = static_cast<PacketId>(i + 1);
    tx.channel.center = Hz{916.9e6};
    tx.params.sf = static_cast<SpreadingFactor>(rng.uniform_int(7, 12));
    tx.payload_bytes = static_cast<std::uint32_t>(rng.uniform_int(5, 30));
    tx.origin = Point{Meters{half * static_cast<double>(rng.uniform_int(0, 4))},
                      Meters{0.0}};
    tx.start = i == count ? Seconds{0.01} : Seconds{rng.uniform(0.0, 0.01)};
  }
  txs.back().origin = Point{};
  return txs;
}

TEST(LmacDifferential, SingleLanesAroundBlockBoundaries) {
  LmacOptions options;
  options.sense_range = Meters{1000.0};
  constexpr std::array<std::size_t, 7> kLengths = {7, 8, 9, 63, 64, 65, 300};
  for (const std::size_t length : kLengths) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto txs = single_lane_burst(length, seed, options);
      std::vector<Transmission> reference;
      const auto failure = compare(txs, options, Rng(seed + 100), &reference);
      ASSERT_FALSE(failure.has_value())
          << "lane of " << length << ", seed " << seed << ": " << *failure;
      // The last packet (from the origin) met the lane and deferred.
      const auto last = std::find_if(
          reference.begin(), reference.end(), [&](const Transmission& tx) {
            return tx.id == static_cast<PacketId>(length + 1);
          });
      ASSERT_NE(last, reference.end());
      EXPECT_GT(last->start, Seconds{0.01});
    }
  }
}

TEST(LmacDifferential, HiddenTerminalsInsideRunsOfOverlaps) {
  // One lane of 40 equal transmissions, 0.1 ms apart, so every one still
  // overlaps the next packets' windows. A fixed pattern puts hidden
  // terminals (2 km from the origin, 1 km sense range) between audible
  // ones (at the origin) inside those runs, across block boundaries and in
  // the scalar tail.
  constexpr std::string_view kPattern =
      "AHAAHHAHAAAHAHHHAAHAAAAHHAHAHAAHHHAAHAHA";
  LmacOptions options;
  options.sense_range = Meters{1000.0};
  for (const double gap : {0.0, 0.01}) {
    options.min_gap = Seconds{gap};
    options.max_gap = Seconds{2.0 * gap};
    std::vector<Transmission> txs(kPattern.size() + 1);
    for (std::size_t i = 0; i < txs.size(); ++i) {
      txs[i].id = static_cast<PacketId>(i + 1);
      txs[i].channel.center = Hz{916.9e6};
      txs[i].params.sf = SpreadingFactor::kSF9;
      txs[i].start = Seconds{1e-4 * static_cast<double>(i)};
      const bool hidden = i < kPattern.size() && kPattern[i] == 'H';
      txs[i].origin = Point{Meters{hidden ? 2000.0 : 0.0}, Meters{0.0}};
    }
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto failure = compare(txs, options, Rng(seed));
      ASSERT_FALSE(failure.has_value())
          << "gap " << gap << ", seed " << seed << ": " << *failure;
    }
  }
}

TEST(LmacDifferential, CachedNormalSurvivesShaping) {
  // Shaping draws only uniforms: a Box-Muller sample the caller left
  // cached is still the next normal(), and the stream after it is the
  // reference's. Rng copies drop the cached sample, so both generators are
  // built and primed in place rather than copied.
  LmacOptions options;
  options.sense_range = Meters{1000.0};
  const auto txs = single_lane_burst(65, 9, options);
  Rng reference_rng(77);
  Rng lane_rng(77);
  EXPECT_EQ(reference_rng.normal(), lane_rng.normal());
  const auto reference =
      test::reference_lmac_shape_window(txs, reference_rng, options);
  const auto shaped = LmacPolicy(options).shape_window(txs, lane_rng);
  ASSERT_EQ(reference.size(), shaped.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].id, shaped[i].id);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reference[i].start.value()),
              std::bit_cast<std::uint64_t>(shaped[i].start.value()));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reference_rng.normal()),
            std::bit_cast<std::uint64_t>(lane_rng.normal()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reference_rng.uniform()),
            std::bit_cast<std::uint64_t>(lane_rng.uniform()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reference_rng.normal()),
            std::bit_cast<std::uint64_t>(lane_rng.normal()));
}

TEST(LmacDifferential, ManyDistinctOriginsEqualReference) {
  // More distinct transmitter positions than the hearing memo tabulates
  // (2048), so every hearing test computes the distance afresh.
  Rng rng(31);
  LmacOptions options;
  options.sense_range = Meters{300.0};
  std::vector<Transmission> txs(2500);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    txs[i].id = static_cast<PacketId>(i + 1);
    txs[i].channel.center = Hz{916.9e6 + 200e3 * static_cast<double>(i % 2)};
    txs[i].params.sf = static_cast<SpreadingFactor>(rng.uniform_int(7, 10));
    txs[i].origin = Point{Meters{rng.uniform(0.0, 1000.0)},
                          Meters{rng.uniform(0.0, 1000.0)}};
    txs[i].start = Seconds{rng.uniform(0.0, 20.0)};
  }
  std::vector<Transmission> reference;
  const auto failure = compare(txs, options, Rng(5), &reference);
  ASSERT_FALSE(failure.has_value()) << *failure;
  std::size_t moved = 0;
  for (const Transmission& tx : reference) {
    if (tx.start != txs[tx.id - 1].start) ++moved;
  }
  EXPECT_GT(moved, txs.size() / 10);
}

TEST(LmacDifferential, EmptyWindowDrawsNothing) {
  Rng rng(7);
  const auto shaped = LmacPolicy().shape_window({}, rng);
  EXPECT_TRUE(shaped.empty());
  EXPECT_EQ(rng.next(), Rng(7).next());
  EXPECT_EQ(compare({}, LmacOptions{}, Rng(7)), std::nullopt);
}

TEST(LmacDifferential, DurationIsEndMinusStartNotAirtime) {
  // Four equal transmitters start together at t on one channel with zero
  // gaps and a 1 km sense range; V and X sit at 1 km, U at 0, Y at 2 km.
  // V goes first and ends at E1 = t + airtime. U defers behind V to E1
  // and ends at E2 = E1 + airtime; X defers behind V and U to E2. Y senses
  // V and X but not U, so it defers to E1 and then meets X starting at
  // E2. With t chosen so that E1 + (E1 - t) rounds above E1 + airtime, Y
  // overlaps X — and defers again — only if its duration keeps the
  // end() - start expression; E1 + airtime would land exactly on E2.
  TxParams params;
  params.sf = SpreadingFactor::kSF9;
  const Seconds airtime = time_on_air(params, 10);
  std::optional<Seconds> t0;
  for (int k = 1; k < 100000 && !t0; ++k) {
    const Seconds t{0.001 * k};
    const Seconds e1 = t + airtime;
    if (e1 + (e1 - t) > e1 + airtime) t0 = t;
  }
  ASSERT_TRUE(t0.has_value());
  const std::array<double, 4> x_km = {1.0, 0.0, 1.0, 2.0};  // V, U, X, Y
  std::vector<Transmission> txs(x_km.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    txs[i].id = static_cast<PacketId>(i + 1);
    txs[i].params = params;
    txs[i].payload_bytes = 10;
    txs[i].channel.center = Hz{916.9e6};
    txs[i].origin = Point{Meters{1000.0 * x_km[i]}, Meters{0.0}};
    txs[i].start = *t0;
  }
  LmacOptions options;
  options.min_gap = Seconds{0.0};
  options.max_gap = Seconds{0.0};
  options.sense_range = Meters{1000.0};
  std::vector<Transmission> reference;
  const auto failure = compare(txs, options, Rng(3), &reference);
  ASSERT_FALSE(failure.has_value()) << *failure;
  ASSERT_EQ(reference.back().id, 4u);  // Y, deferred past X
  EXPECT_GT(reference.back().start, reference[2].start);
}

TEST(LmacDifferential, EqualsReferenceOnFig13TwelveThousandUserWindow) {
  // The fig13 bench's 12k-user world (seed 905): 15 gateways and 144 nodes
  // in 2.1 x 1.6 km over 4.8 MHz, standard provisioning with the fig13
  // node-side tuning, 83 emulated users per node at 0.5% airtime.
  constexpr std::uint64_t kWorldSeed = 905;
  constexpr std::size_t kPhysicalNodes = 144;
  constexpr std::size_t kUsersPerNode = 12000 / kPhysicalNodes;
  constexpr double kUserUtilization = 0.005;
  ChannelModelConfig channel;
  channel.shadowing_sigma_db = Db{3.0};
  channel.fast_fading_sigma_db = Db{0.8};
  channel.seed = kWorldSeed;
  Deployment deployment{Region{Meters{2100}, Meters{1600}}, spectrum_4m8(),
                        channel};
  Network& network = deployment.add_network("op");
  Rng rng(kWorldSeed);
  deployment.place_gateways(network, 15, default_profile(), rng);
  deployment.place_nodes(network, kPhysicalNodes, rng);
  StandardLorawanOptions node_side;
  node_side.spread_gateways_across_plans = false;
  node_side.adr.installation_margin = Db{10.0};
  node_side.adr.min_tx_power = Dbm{8.0};
  LmacPolicy(LmacOptions{}, node_side).configure(deployment, network, rng);

  PacketIdSource ids;
  Rng traffic_rng(1);
  std::vector<Transmission> txs;
  NodeId virtual_base = 1'000'000;
  for (auto& node : network.nodes()) {
    const double rate =
        kUserUtilization / time_on_air(node.tx_params(), 10).value();
    auto node_txs = emulated_user_traffic({&node}, kUsersPerNode, Seconds{30.0},
                                          rate, traffic_rng, ids, virtual_base);
    virtual_base += kUsersPerNode;
    txs.insert(txs.end(), node_txs.begin(), node_txs.end());
  }
  sort_by_start(txs);
  ASSERT_GT(txs.size(), 30000u);

  std::vector<Transmission> reference;
  const auto failure = compare(txs, LmacOptions{},
                               Rng(1).substream("mac-shape"), &reference);
  ASSERT_FALSE(failure.has_value()) << *failure;
  std::map<PacketId, Seconds> offered;
  for (const Transmission& tx : txs) offered[tx.id] = tx.start;
  std::size_t moved = 0;
  for (const Transmission& tx : reference) {
    if (tx.start != offered.at(tx.id)) ++moved;
  }
  EXPECT_GT(moved, txs.size() / 10);
}

}  // namespace
}  // namespace alphawan
