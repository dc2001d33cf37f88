// Window-invariant link-gain matrix. Everything about a (node, gateway)
// link that does not change between packets — mean path loss, the frozen
// shadowing draw, and the receive antenna gain toward the node — is
// precomputed once into flat per-gateway columns, so the per-packet cost in
// ScenarioRunner::run_window collapses to one array load plus the
// fast-fading draw (docs/performance.md).
//
// The two static terms are stored separately (not pre-summed) so the runner
// can replay the exact floating-point operation order of the uncached path:
//   rx = ((tx_power - path_loss) + fading) + antenna_gain
// which is what keeps the cached pipeline bit-identical to the original.
//
// The cache also derives per-row *candidate gateway lists*: the columns
// whose best-case static gain could let any transmission clear a prune
// floor, assuming the strongest legal tx power and the largest fast-fading
// draw the Rng can produce (kNormalTailSigmas). Pruning against them is a
// conservative superset filter — a skipped (row, column) pair is guaranteed
// to fall below the floor for every possible draw, so event lists are
// unchanged.
//
// A LinkCache is not internally synchronized. The runner registers rows
// in a per-window prepass that runs one task per slice of a
// ShardedLinkCache: a slice task mutates only its own slice (and its own
// shard scratch), and reads nothing shared but the stateless ChannelModel
// and the read-only gateway antenna functors, so slices register
// concurrently. The parallel gateway fan-out that follows only reads.
//
// For city-scale worlds the cache is partitioned: a ShardedLinkCache holds
// one independent slice per spatial shard, each covering a subset of the
// gateway columns, and rows are materialized per slice only when the node
// is audible there (ensure_row_if_audible). Memory follows the live
// (audible) links instead of the full node x gateway cross product, and
// every slice computes the same LinkGain values a monolithic cache would,
// so any partition of the columns is bit-identical (docs/sharding.md).
//
// Transmitters are addressed by a dense NodeKey from one NodeDirectory
// shared by every slice: the runner hashes each transmission's NodeId once
// per window, so a slice keeps its per-node state in a flat vector indexed
// by the key and makes no hash probe of its own.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/geometry.hpp"
#include "phy/channel_model.hpp"

namespace alphawan {

// Dense index of a transmitter id in a NodeDirectory.
using NodeKey = std::uint32_t;

// NodeId -> NodeKey, assigning keys 0, 1, 2, ... in first-intern order.
// Keys are never reused or removed, so a key stays valid as an index into
// every per-key vector for the directory's lifetime. Not synchronized:
// concurrent find() calls are safe, but intern() must run alone (the runner
// looks ids up concurrently, then interns the new ones serially).
class NodeDirectory {
 public:
  static constexpr NodeKey kInvalidKey = kInvalidIndex32;

  // The key of `node`, assigned on its first intern.
  NodeKey intern(NodeId node);
  // The key of `node`; kInvalidKey if it was never interned.
  [[nodiscard]] NodeKey find(NodeId node) const;

 private:
  // ALPHAWAN-LINT-ALLOW(determinism-unordered-member: keyed lookups only;
  // keys follow intern call order, never the map's iteration order)
  std::unordered_map<NodeId, NodeKey> key_of_;
};

// The frozen static terms of one (node, gateway) link.
struct LinkGain {
  Db path_loss{0.0};     // mean path loss + frozen shadowing
  Db antenna_gain{0.0};  // receive antenna gain toward the node
};

class LinkCache {
 public:
  // Queried for the receive antenna gain toward a transmitter position
  // whenever a column is (re)built; must stay valid until the gateway is
  // re-upserted or the cache destroyed (gateways live in stable deques).
  using AntennaGainFn = std::function<Db(const Point&)>;

  explicit LinkCache(ChannelModel& model) : model_(&model) {}

  // Register a gateway column, or refresh its antenna gains when
  // `antenna_epoch` advanced since the last upsert (Gateway::set_antenna
  // bumps the epoch). Gateway positions are immutable. Returns the column
  // index, stable for the lifetime of the cache.
  std::size_t upsert_gateway(GatewayId id, std::uint64_t rx_key,
                             const Point& position,
                             std::uint64_t antenna_epoch,
                             AntennaGainFn antenna_gain);

  // Register a transmitter row (idempotent), extending every column with
  // the link's static terms. A registered id whose origin later differs —
  // a traffic generator reusing virtual ids for different positions — is
  // recomputed in place. `key` is the node's NodeDirectory key (one
  // directory must serve every call on this cache). Returns the row index.
  std::uint32_t ensure_row(NodeKey key, NodeId node, const Point& origin);

  // Like ensure_row, but materializes the row only if the node is audible
  // here — some column's static gain clears the same conservative bound
  // candidate_columns prunes against (so a rejected node has no candidate
  // columns in this cache and skipping it drops no events). Returns
  // kInvalidRow on rejection; rejections are memoized per (origin,
  // column-structure, audibility bound) so steady-state windows don't
  // re-probe. A row that already exists is refreshed like ensure_row and
  // kept resident. Either way the probe is one indexed load.
  static constexpr std::uint32_t kInvalidRow = kInvalidIndex32;
  // ALPHAWAN-LINT-ALLOW(units-swappable-pair: (floor, power_bound) is
  // floor-first at every audibility call site, as below)
  std::uint32_t ensure_row_if_audible(NodeKey key, NodeId node,
                                      const Point& origin, Dbm floor,
                                      Dbm power_bound);

  // Row index of the transmitter with directory key `key`; kInvalidRow if
  // it has no resident row here.
  [[nodiscard]] std::uint32_t row_of(NodeKey key) const;

  // Bumped whenever the column set or an antenna changes — anything that
  // can turn an inaudible node audible invalidates rejection memos.
  [[nodiscard]] std::uint64_t structure_epoch() const {
    return structure_epoch_;
  }

  [[nodiscard]] std::size_t row_count() const { return row_origin_.size(); }
  [[nodiscard]] std::size_t column_count() const { return columns_.size(); }

  // Column index for a registered gateway id; kInvalidColumn if absent.
  static constexpr std::uint32_t kInvalidColumn = ~0U;
  [[nodiscard]] std::uint32_t column_of(GatewayId id) const;

  // The per-row static link terms of one gateway column (size row_count()).
  [[nodiscard]] std::span<const LinkGain> gains(std::size_t column) const {
    return columns_[column].gains;
  }

  // Columns whose best-case received power — tx power <= `power_bound`,
  // fading up to kNormalTailSigmas * fast_fading_sigma, plus a 1 dB slack
  // absorbing floating-point reassociation — can clear `floor` from `row`,
  // in ascending order. Built lazily for the (floor, power_bound) in use
  // and kept incrementally as rows are added; any gateway change rebuilds
  // from scratch. Up to kMaxMaskColumns columns the set is stored only as
  // the row's candidate_mask and decoded into scratch here, so the span is
  // valid until the next call on this cache.
  // ALPHAWAN-LINT-ALLOW(units-swappable-pair: (floor, power_bound) is
  // floor-first at every audibility call site)
  [[nodiscard]] std::span<const std::uint32_t> candidate_columns(
      std::uint32_t row, Dbm floor, Dbm power_bound);

  // candidate_columns as a bitmask (bit c == column c): the stored form up
  // to kMaxMaskColumns columns, so this is a load. Throws std::logic_error
  // beyond that. The mask is the dense-deployment fast path that lets the
  // runner test candidacy with one AND instead of materializing per-column
  // transmission lists.
  static constexpr std::size_t kMaxMaskColumns = 64;
  // ALPHAWAN-LINT-ALLOW(units-swappable-pair: (floor, power_bound) is
  // floor-first at every audibility call site)
  [[nodiscard]] std::uint64_t candidate_mask(std::uint32_t row, Dbm floor,
                                             Dbm power_bound);

 private:
  struct Column {
    GatewayId id = kInvalidGateway;
    std::uint64_t rx_key = 0;
    Point position{};
    std::uint64_t antenna_epoch = 0;
    AntennaGainFn antenna_gain;
    std::vector<LinkGain> gains;  // indexed by row
  };

  // What the cache knows about one transmitter key: its resident row, or
  // the index of its rejection memo in rejections_ (both kInvalidRow for a
  // key never probed here). Eight bytes per directory key. A key owns at
  // most one memo for the cache's lifetime; once it is resident its memo is
  // never read again.
  struct NodeSlot {
    std::uint32_t row = kInvalidRow;
    std::uint32_t rejection = kInvalidRow;
  };
  // Rejection memo for ensure_row_if_audible: valid while the node's
  // origin, the column structure, and the audibility threshold all match.
  struct Rejection {
    Point origin{};
    std::uint64_t epoch = 0;
    double threshold = 0.0;
  };

  [[nodiscard]] LinkGain compute_gain(const Column& column, NodeId node,
                                      const Point& origin);
  // Recompute a resident row in place if `origin` moved; returns `row`.
  std::uint32_t refresh_row(std::uint32_t row, NodeId node,
                            const Point& origin);
  // The slot of `key`, growing the slot vector to cover it.
  NodeSlot& slot_of(NodeKey key);
  // Register `node` as a new row in `slot`, once every column's gains
  // vector has been extended by the row's entry. Returns the row index.
  std::uint32_t append_row(NodeSlot& slot, NodeId node, const Point& origin);
  // Static-gain threshold below which a (row, column) pair can never clear
  // `floor` for tx powers up to `power_bound` — the shared bound behind
  // both candidate pruning and audibility gating.
  // ALPHAWAN-LINT-ALLOW(units-swappable-pair: (floor, power_bound) is
  // floor-first at every audibility call site)
  [[nodiscard]] double audible_threshold(Dbm floor, Dbm power_bound) const;
  [[nodiscard]] double candidate_threshold() const;
  void append_candidates_for_row(std::uint32_t row);
  // Rebuild the candidate layout unless it is valid for this bound.
  // ALPHAWAN-LINT-ALLOW(units-swappable-pair: (floor, power_bound) is
  // floor-first at every audibility call site)
  void ensure_candidates(Dbm floor, Dbm power_bound);

  ChannelModel* model_;
  std::vector<Column> columns_;
  // ALPHAWAN-LINT-ALLOW(determinism-unordered-member: keyed lookups only;
  // all iteration runs over the index-ordered columns_ vector)
  std::unordered_map<GatewayId, std::uint32_t> column_of_;

  std::vector<NodeId> row_node_;
  std::vector<Point> row_origin_;
  std::vector<NodeSlot> slots_;  // indexed by NodeKey
  std::vector<Rejection> rejections_;
  std::uint64_t structure_epoch_ = 0;
  std::vector<LinkGain> probe_gains_;  // scratch for the audibility probe

  // Candidate storage, one layout at a time: a per-row bitmask up to
  // kMaxMaskColumns columns (8 bytes a row), per-row [begin, end) ranges
  // into one flat vector beyond that. Every column change invalidates it,
  // so the layout always matches column_count().
  bool candidates_valid_ = false;
  Dbm candidate_floor_{0.0};
  Dbm candidate_power_bound_{0.0};
  std::vector<std::uint64_t> candidate_mask_;
  std::vector<std::uint32_t> candidate_flat_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> candidate_range_;
  std::vector<std::uint32_t> candidate_decoded_;  // candidate_columns scratch
};

// A set of independent LinkCache slices over one channel model, one per
// spatial shard. The phy layer knows nothing about shard geometry — the sim
// layer decides which slice a gateway column lives in (sim/shard.hpp); this
// class only guarantees slice independence: every slice computes the same
// LinkGain values a monolithic cache would (the model is a pure function of
// the link key), so any partition of the columns yields bit-identical
// physics while each slice's memory tracks only the links audible there.
// The slices share one NodeDirectory, so a transmission's key is resolved
// once for all of them.
class ShardedLinkCache {
 public:
  explicit ShardedLinkCache(ChannelModel& model) : model_(&model) {}

  // Drop every slice and start over with `count` empty ones. Gains are
  // recomputed on the next refresh, so re-partitioning mid-run is safe —
  // and bit-stable, since values depend only on the model. The directory
  // is kept: keys are only indices.
  void reset(std::size_t count) {
    slices_.clear();
    slices_.reserve(count);
    for (std::size_t s = 0; s < count; ++s) slices_.emplace_back(*model_);
  }

  [[nodiscard]] std::size_t shard_count() const { return slices_.size(); }
  [[nodiscard]] LinkCache& slice(std::size_t shard) { return slices_[shard]; }
  [[nodiscard]] const LinkCache& slice(std::size_t shard) const {
    return slices_[shard];
  }

  [[nodiscard]] NodeDirectory& directory() { return directory_; }

  // Row of transmitter `node` in slice `shard`; kInvalidRow if it has none.
  [[nodiscard]] std::uint32_t row_of(std::size_t shard, NodeId node) const {
    const NodeKey key = directory_.find(node);
    return key == NodeDirectory::kInvalidKey ? LinkCache::kInvalidRow
                                             : slices_[shard].row_of(key);
  }

 private:
  ChannelModel* model_;
  NodeDirectory directory_;
  std::vector<LinkCache> slices_;
};

}  // namespace alphawan
