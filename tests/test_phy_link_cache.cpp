#include "phy/link_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace alphawan {
namespace {

constexpr std::uint64_t kRxKeyBase = 1ULL << 32;

// A deterministic, position-dependent stand-in for a gateway antenna.
Db toy_antenna_gain(const Point& origin) {
  return Db{-(origin.x.value() + origin.y.value()) / 1000.0};
}

struct Site {
  GatewayId id;
  Point position;
};

struct Tx {
  NodeId node;
  Point origin;
};

std::vector<Site> test_sites() {
  return {{1, Point{Meters{0.0}, Meters{0.0}}},
          {2, Point{Meters{1200.0}, Meters{300.0}}},
          {7, Point{Meters{-400.0}, Meters{900.0}}}};
}

std::vector<Tx> test_nodes() {
  return {{0, Point{Meters{50.0}, Meters{80.0}}},
          {3, Point{Meters{700.0}, Meters{-200.0}}},
          {11, Point{Meters{1500.0}, Meters{1500.0}}},
          {42, Point{Meters{-900.0}, Meters{400.0}}}};
}

// Caches address transmitters by NodeDirectory key. One directory serves
// every cache here, as one serves every slice of a ShardedLinkCache: keys
// are only indices.
NodeDirectory& directory() {
  static NodeDirectory dir;
  return dir;
}

std::uint32_t ensure_row(LinkCache& cache, NodeId node, const Point& origin) {
  return cache.ensure_row(directory().intern(node), node, origin);
}

std::uint32_t ensure_row_if_audible(LinkCache& cache, NodeId node,
                                    const Point& origin, Dbm floor,
                                    Dbm power_bound) {
  return cache.ensure_row_if_audible(directory().intern(node), node, origin,
                                     floor, power_bound);
}

void upsert(LinkCache& cache, const Site& site, std::uint64_t epoch = 0) {
  cache.upsert_gateway(site.id, kRxKeyBase + site.id, site.position, epoch,
                       toy_antenna_gain);
}

// Two caches over identically configured models (frozen shadowing draws are
// keyed by (node, rx_key) and the config seed, so both see the same links)
// must agree gain for gain no matter the registration order.
TEST(LinkCache, IncrementalAddMatchesFromScratchRebuild) {
  ChannelModelConfig cfg;
  cfg.seed = 7;
  ChannelModel model_a(cfg), model_b(cfg);
  LinkCache incremental(model_a);
  LinkCache rebuilt(model_b);

  const auto sites = test_sites();
  const auto nodes = test_nodes();

  // Interleave: one gateway, two rows, the remaining gateways (which must
  // backfill existing rows), then the remaining rows.
  upsert(incremental, sites[0]);
  ensure_row(incremental, nodes[0].node, nodes[0].origin);
  ensure_row(incremental, nodes[1].node, nodes[1].origin);
  upsert(incremental, sites[1]);
  upsert(incremental, sites[2]);
  ensure_row(incremental, nodes[2].node, nodes[2].origin);
  ensure_row(incremental, nodes[3].node, nodes[3].origin);

  // From scratch: all gateways first, then all rows.
  for (const auto& site : sites) upsert(rebuilt, site);
  for (const auto& tx : nodes) ensure_row(rebuilt, tx.node, tx.origin);

  ASSERT_EQ(incremental.column_count(), rebuilt.column_count());
  ASSERT_EQ(incremental.row_count(), rebuilt.row_count());
  for (const auto& site : sites) {
    const auto col_a = incremental.column_of(site.id);
    const auto col_b = rebuilt.column_of(site.id);
    ASSERT_NE(col_a, LinkCache::kInvalidColumn);
    ASSERT_NE(col_b, LinkCache::kInvalidColumn);
    const auto gains_a = incremental.gains(col_a);
    const auto gains_b = rebuilt.gains(col_b);
    ASSERT_EQ(gains_a.size(), gains_b.size());
    for (std::size_t row = 0; row < gains_a.size(); ++row) {
      EXPECT_DOUBLE_EQ(gains_a[row].path_loss.value(),
                       gains_b[row].path_loss.value());
      EXPECT_DOUBLE_EQ(gains_a[row].antenna_gain.value(),
                       gains_b[row].antenna_gain.value());
    }
  }
}

TEST(LinkCache, EnsureRowIsIdempotent) {
  ChannelModel model;
  LinkCache cache(model);
  upsert(cache, test_sites()[0]);
  const auto tx = test_nodes()[0];
  const auto row = ensure_row(cache, tx.node, tx.origin);
  EXPECT_EQ(ensure_row(cache, tx.node, tx.origin), row);
  EXPECT_EQ(cache.row_count(), 1u);
}

TEST(LinkCache, ReusedNodeIdWithNewOriginIsRecomputedInPlace) {
  ChannelModelConfig cfg;
  cfg.seed = 3;
  ChannelModel model(cfg), fresh_model(cfg);
  LinkCache cache(model);
  const auto site = test_sites()[0];
  upsert(cache, site);

  const NodeId node = 1'000'123;  // virtual id, reused across positions
  const Point p1{Meters{100.0}, Meters{100.0}};
  const Point p2{Meters{2000.0}, Meters{-500.0}};
  const auto row = ensure_row(cache, node, p1);
  ASSERT_EQ(ensure_row(cache, node, p2), row);

  // The recomputed row must equal a cache that only ever saw p2.
  LinkCache fresh(fresh_model);
  upsert(fresh, site);
  ensure_row(fresh, node, p2);
  const auto got = cache.gains(cache.column_of(site.id))[row];
  const auto want = fresh.gains(fresh.column_of(site.id))[0];
  EXPECT_DOUBLE_EQ(got.path_loss.value(), want.path_loss.value());
  EXPECT_DOUBLE_EQ(got.antenna_gain.value(), want.antenna_gain.value());
}

TEST(LinkCache, AntennaEpochRefreshesGainsButNotPathLoss) {
  ChannelModel model;
  LinkCache cache(model);
  const auto site = test_sites()[0];
  upsert(cache, site, 0);
  const auto tx = test_nodes()[0];
  const auto row = ensure_row(cache, tx.node, tx.origin);
  const auto col = cache.column_of(site.id);
  const LinkGain before = cache.gains(col)[row];

  // Same epoch: the new gain function must be ignored.
  cache.upsert_gateway(site.id, kRxKeyBase + site.id, site.position, 0,
                       [](const Point&) { return Db{9.0}; });
  EXPECT_DOUBLE_EQ(cache.gains(col)[row].antenna_gain.value(),
                   before.antenna_gain.value());

  // Advanced epoch: antenna gain refreshes, path loss stays frozen.
  cache.upsert_gateway(site.id, kRxKeyBase + site.id, site.position, 1,
                       [](const Point&) { return Db{9.0}; });
  const LinkGain after = cache.gains(col)[row];
  EXPECT_DOUBLE_EQ(after.antenna_gain.value(), 9.0);
  EXPECT_DOUBLE_EQ(after.path_loss.value(), before.path_loss.value());
}

TEST(LinkCache, ColumnOfUnknownGatewayIsInvalid) {
  ChannelModel model;
  LinkCache cache(model);
  EXPECT_EQ(cache.column_of(99), LinkCache::kInvalidColumn);
}

// The candidate lists are a conservative superset: a pruned (row, column)
// pair must be undeliverable for EVERY fading draw the Rng can produce.
// kNormalTailSigmas bounds |normal()|, so the worst case is tx at the power
// bound plus that many sigmas of constructive fading.
TEST(LinkCache, CandidateListsAreConservativeSuperset) {
  ChannelModelConfig cfg;
  cfg.seed = 11;
  ChannelModel model(cfg);
  LinkCache cache(model);
  for (const auto& site : test_sites()) upsert(cache, site);
  // Spread rows from close-in to far beyond plausible reach so both
  // candidate and pruned pairs exist.
  std::vector<std::uint32_t> rows;
  for (int k = 0; k < 8; ++k) {
    const double d = 100.0 * std::pow(4.0, k);  // 100 m .. ~1638 km
    rows.push_back(
        ensure_row(cache, 100 + k, Point{Meters{d}, Meters{0.0}}));
  }

  const Dbm floor = noise_floor_dbm(kLoRaBandwidth125k) - Db{10.0};
  const Dbm power_bound{20.0};
  const double sigma = model.config().fast_fading_sigma_db.value();

  bool saw_pruned = false;
  for (const auto row : rows) {
    const auto candidates = cache.candidate_columns(row, floor, power_bound);
    for (std::uint32_t col = 0; col < cache.column_count(); ++col) {
      const bool is_candidate =
          std::find(candidates.begin(), candidates.end(), col) !=
          candidates.end();
      if (is_candidate) continue;
      saw_pruned = true;
      // Best case a pruned pair could ever realize must stay below floor.
      const LinkGain g = cache.gains(col)[row];
      const Db max_fading{kNormalTailSigmas * sigma};
      const Dbm best =
          power_bound - g.path_loss + max_fading + g.antenna_gain;
      EXPECT_LT(best.value(), floor.value())
          << "pruned pair (row " << row << ", col " << col
          << ") could have cleared the floor";
    }
  }
  EXPECT_TRUE(saw_pruned) << "test topology produced no pruned pairs";
}

// Rows added after the candidate layout is built extend it incrementally;
// the result must match a cold rebuild over the same rows.
TEST(LinkCache, IncrementalCandidatesMatchRebuild) {
  ChannelModelConfig cfg;
  cfg.seed = 13;
  ChannelModel model_a(cfg), model_b(cfg);
  LinkCache warm(model_a);
  LinkCache cold(model_b);
  for (const auto& site : test_sites()) {
    upsert(warm, site);
    upsert(cold, site);
  }

  const Dbm floor = noise_floor_dbm(kLoRaBandwidth125k) - Db{10.0};
  const Dbm power_bound{20.0};

  const Point near{Meters{200.0}, Meters{0.0}};
  const Point far{Meters{3.0e6}, Meters{0.0}};
  ensure_row(warm, 1, near);
  (void)warm.candidate_columns(0, floor, power_bound);  // build layout
  ensure_row(warm, 2, far);                             // incremental append
  ensure_row(warm, 3, near);

  ensure_row(cold, 1, near);
  ensure_row(cold, 2, far);
  ensure_row(cold, 3, near);

  for (std::uint32_t row = 0; row < 3; ++row) {
    const auto a = warm.candidate_columns(row, floor, power_bound);
    const auto b = cold.candidate_columns(row, floor, power_bound);
    ASSERT_EQ(a.size(), b.size()) << "row " << row;
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
}

// Brute-force candidate set of one row, from the documented bound:
//   power_bound - path_loss + antenna_gain + max fading + 1 dB >= floor.
std::vector<std::uint32_t> brute_force_candidates(const LinkCache& cache,
                                                  const ChannelModel& model,
                                                  std::uint32_t row, Dbm floor,
                                                  Dbm power_bound) {
  const Db max_fading{kNormalTailSigmas *
                      model.config().fast_fading_sigma_db.value()};
  std::vector<std::uint32_t> want;
  for (std::uint32_t col = 0; col < cache.column_count(); ++col) {
    const LinkGain g = cache.gains(col)[row];
    const Dbm best = power_bound - g.path_loss + g.antenna_gain + max_fading +
                     Db{1.0};
    if (best >= floor) want.push_back(col);
  }
  return want;
}

// Candidates are stored as a per-row bitmask up to kMaxMaskColumns columns
// and as flat per-row lists beyond. In both layouts they must match the
// brute-force bound after every mutation that can change a row's
// candidates, and in the mask layout candidate_mask must be the OR of
// candidate_columns.
void check_candidates_after_every_mutation(std::uint32_t gateways) {
  ChannelModelConfig cfg;
  cfg.seed = 17;
  ChannelModel model(cfg);
  LinkCache cache(model);
  // Gateways on a 400 m grid, eight to a row.
  auto site = [](std::uint32_t k) {
    return Site{k + 1, Point{Meters{400.0 * (k % 8)}, Meters{400.0 * (k / 8)}}};
  };
  for (std::uint32_t k = 0; k < gateways; ++k) upsert(cache, site(k));
  const bool masked = cache.column_count() <= LinkCache::kMaxMaskColumns;

  Dbm floor = noise_floor_dbm(kLoRaBandwidth125k) - Db{10.0};
  Dbm power_bound{20.0};
  std::size_t set_bits = 0;
  std::size_t clear_bits = 0;
  auto expect_candidates_match = [&](const char* step) {
    for (std::uint32_t row = 0; row < cache.row_count(); ++row) {
      const auto want =
          brute_force_candidates(cache, model, row, floor, power_bound);
      const auto got = cache.candidate_columns(row, floor, power_bound);
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want)
          << step << ", row " << row << ", " << gateways << " gateways";
      set_bits += want.size();
      clear_bits += cache.column_count() - want.size();
      if (!masked) continue;
      std::uint64_t columns_or = 0;
      for (const std::uint32_t col : want) {
        columns_or |= std::uint64_t{1} << col;
      }
      EXPECT_EQ(cache.candidate_mask(row, floor, power_bound), columns_or)
          << step << ", row " << row;
    }
  };

  // Rows near the grid and one out of everyone's reach.
  ensure_row(cache, 1, Point{Meters{100.0}, Meters{0.0}});
  ensure_row(cache, 2, Point{Meters{1300.0}, Meters{300.0}});
  ensure_row(cache, 3, Point{Meters{3.0e6}, Meters{0.0}});
  expect_candidates_match("initial rows");

  ensure_row(cache, 4, Point{Meters{2900.0}, Meters{250.0}});
  expect_candidates_match("row add");

  ensure_row(cache, 3, Point{Meters{-350.0}, Meters{880.0}});
  expect_candidates_match("same-id origin move");

  upsert(cache, Site{gateways + 1, Point{Meters{-300.0}, Meters{900.0}}});
  expect_candidates_match("upsert_gateway");

  const Site first = site(0);
  cache.upsert_gateway(first.id, kRxKeyBase + first.id, first.position, 1,
                       [](const Point&) { return Db{-200.0}; });
  expect_candidates_match("antenna-epoch refresh");

  floor = floor + Db{40.0};
  expect_candidates_match("floor change");
  power_bound = Dbm{2.0};
  expect_candidates_match("power-bound change");

  EXPECT_GT(set_bits, 0u);
  EXPECT_GT(clear_bits, 0u);
}

TEST(LinkCache, CandidateMaskMatchesBoundAfterEveryMutation) {
  check_candidates_after_every_mutation(/*gateways=*/3);
}

TEST(LinkCache, CandidateListsMatchBoundAfterEveryMutationPast64Columns) {
  check_candidates_after_every_mutation(/*gateways=*/70);
}

// A memoized rejection holds only for the audibility bound it was probed
// under: the same node at the same origin, probed against a lower floor or
// a higher power bound, must be probed again and admitted.
TEST(LinkCache, RejectionMemoIsKeyedByTheAudibilityBound) {
  ChannelModel model;
  LinkCache cache(model);
  upsert(cache, test_sites()[0]);
  const Point origin{Meters{300.0}, Meters{0.0}};
  const Dbm noise = noise_floor_dbm(kLoRaBandwidth125k);
  const Dbm strict = noise + Db{40.0};
  const Dbm lenient = noise - Db{10.0};
  EXPECT_EQ(ensure_row_if_audible(cache, 9, origin, strict, Dbm{14.0}),
            LinkCache::kInvalidRow);
  EXPECT_EQ(ensure_row_if_audible(cache, 9, origin, strict, Dbm{14.0}),
            LinkCache::kInvalidRow);
  EXPECT_NE(ensure_row_if_audible(cache, 9, origin, strict, Dbm{64.0}),
            LinkCache::kInvalidRow);

  EXPECT_EQ(ensure_row_if_audible(cache, 10, origin, strict, Dbm{14.0}),
            LinkCache::kInvalidRow);
  EXPECT_NE(ensure_row_if_audible(cache, 10, origin, lenient, Dbm{14.0}),
            LinkCache::kInvalidRow);
  EXPECT_EQ(cache.row_count(), 2u);
}

TEST(LinkCache, CandidateMaskRejectsMoreThan64Columns) {
  ChannelModel model;
  LinkCache cache(model);
  for (GatewayId id = 0; id < 64; ++id) {
    upsert(cache, Site{id, Point{Meters{10.0 * id}, Meters{0.0}}});
  }
  const auto row = ensure_row(cache, 1, Point{Meters{0.0}, Meters{0.0}});
  const Dbm floor = noise_floor_dbm(kLoRaBandwidth125k);
  EXPECT_NE(cache.candidate_mask(row, floor, Dbm{14.0}), 0u);
  upsert(cache, Site{64, Point{Meters{640.0}, Meters{0.0}}});
  EXPECT_THROW((void)cache.candidate_mask(row, floor, Dbm{14.0}),
               std::logic_error);
}

TEST(NodeDirectory, InternsDenseKeysInFirstSeenOrder) {
  NodeDirectory dir;
  EXPECT_EQ(dir.find(500), NodeDirectory::kInvalidKey);
  EXPECT_EQ(dir.intern(500), 0u);
  EXPECT_EQ(dir.intern(7), 1u);
  EXPECT_EQ(dir.intern(500), 0u);  // idempotent
  EXPECT_EQ(dir.find(7), 1u);
  EXPECT_EQ(dir.intern(9), 2u);
}

// Rows are looked up by directory key; a key the slice never probed, or
// only rejected, has no row. Through ShardedLinkCache::row_of, an id the
// directory never saw has none either.
TEST(LinkCache, RowOfGoesThroughTheDirectoryKey) {
  ChannelModel model;
  ShardedLinkCache caches(model);
  caches.reset(2);
  upsert(caches.slice(0), Site{1, Point{Meters{0.0}, Meters{0.0}}});
  upsert(caches.slice(1), Site{2, Point{Meters{1.0e6}, Meters{0.0}}});
  const Point near{Meters{100.0}, Meters{0.0}};
  const Dbm floor = noise_floor_dbm(kLoRaBandwidth125k);
  const NodeKey key = caches.directory().intern(77);
  const auto row =
      caches.slice(0).ensure_row_if_audible(key, 77, near, floor, Dbm{14.0});
  ASSERT_NE(row, LinkCache::kInvalidRow);
  EXPECT_EQ(caches.slice(1).ensure_row_if_audible(key, 77, near, floor,
                                                  Dbm{14.0}),
            LinkCache::kInvalidRow);
  EXPECT_EQ(caches.row_of(0, 77), row);
  EXPECT_EQ(caches.slice(0).row_of(key), row);
  EXPECT_EQ(caches.row_of(1, 77), LinkCache::kInvalidRow);
  EXPECT_EQ(caches.row_of(0, 78), LinkCache::kInvalidRow);
  EXPECT_EQ(caches.slice(0).row_of(key + 100), LinkCache::kInvalidRow);
}

}  // namespace
}  // namespace alphawan
