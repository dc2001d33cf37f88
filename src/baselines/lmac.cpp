#include "baselines/lmac.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>

#include "common/geometry.hpp"
#include "phy/overlap.hpp"
#include "sim/traffic.hpp"

namespace alphawan {
namespace {

// Channels are bucketed by a coarse frequency key so partially-overlapping
// channels land in neighbouring buckets and are both checked.
std::int64_t freq_bucket(Hz center) {
  return static_cast<std::int64_t>(center / kChannelSpacing);
}

// Scheduled transmissions that may still be on the air, as columns in
// scheduling (`seq`) order. `end` is computed once, from the shifted start,
// with the same expression as Transmission::end(); `origin` indexes the
// window's distinct transmitter positions.
struct Columns {
  std::vector<std::uint64_t> seq;
  std::vector<double> start;
  std::vector<double> end;
  std::vector<std::uint32_t> origin;

  [[nodiscard]] std::size_t size() const { return seq.size(); }
  void push_back(std::uint64_t order, const Transmission& tx,
                 std::uint32_t where) {
    seq.push_back(order);
    start.push_back(tx.start.value());
    end.push_back(tx.end().value());
    origin.push_back(where);
  }
  void append(const Columns& from, std::size_t i) {
    seq.push_back(from.seq[i]);
    start.push_back(from.start[i]);
    end.push_back(from.end[i]);
    origin.push_back(from.origin[i]);
  }
  // (from, to) in std::copy's order.
  // NOLINTNEXTLINE(bugprone-easily-swappable-parameters)
  void move(std::size_t from, std::size_t to) {
    seq[to] = seq[from];
    start[to] = start[from];
    end[to] = end[from];
    origin[to] = origin[from];
  }
  void resize(std::size_t n) {
    seq.resize(n);
    start.resize(n);
    end.resize(n);
    origin.resize(n);
  }
};

// Block search: bit k of a mask stands for entry first + k of a column.
constexpr std::size_t kBlock = 8;
constexpr unsigned kWholeBlock = (1u << kBlock) - 1;

// The active transmissions on one exact channel. Entries that ended by a
// packet's original start can never overlap it or a later packet (starts
// are non-decreasing), so dropping them is unseen; the lane drops them only
// once it has grown by a quarter since the last drop, because until then
// the block search passes over them for one comparison each, which costs
// less than moving every later entry down on every packet.
struct Lane {
  Channel channel{};
  Columns entries;
  std::size_t drop_at = 0;

  [[nodiscard]] bool drop_due() const { return entries.size() >= drop_at; }
  void dropped() { drop_at = entries.size() + entries.size() / 4 + kBlock; }
};

// Whether a transmitter at one of the window's distinct origins senses one
// at another: `distance(other, tx) > sense_range` is evaluated at most once
// per ordered origin pair. A window with more distinct origins than
// kMaxMemoOrigins evaluates it on every query instead of holding the n^2
// table.
class Hearing {
 public:
  Hearing(std::vector<Point> origins, Meters range)
      : origins_(std::move(origins)), range_(range) {
    if (origins_.size() <= kMaxMemoOrigins) {
      memo_.assign(origins_.size() * origins_.size(), kUnknown);
    }
  }

  // Directs the following hears() queries at a transmitter at `tx`.
  void listen_from(std::uint32_t tx) {
    tx_ = tx;
    if (!memo_.empty()) {
      row_ = std::span<std::uint8_t>(memo_).subspan(
          static_cast<std::size_t>(tx) * origins_.size(), origins_.size());
    }
  }

  [[nodiscard]] bool hears(std::uint32_t other) {
    if (row_.empty()) return !hidden(other);
    std::uint8_t& known = row_[other];
    if (known == kUnknown) known = hidden(other) ? kHidden : kAudible;
    return known == kAudible;
  }

 private:
  static constexpr std::size_t kMaxMemoOrigins = 2048;
  static constexpr std::uint8_t kUnknown = 0;
  static constexpr std::uint8_t kAudible = 1;
  static constexpr std::uint8_t kHidden = 2;

  [[nodiscard]] bool hidden(std::uint32_t other) const {
    return distance(origins_[other], origins_[tx_]) > range_;
  }

  std::vector<Point> origins_;
  Meters range_;
  std::vector<std::uint8_t> memo_;  // [tx][other]
  std::uint32_t tx_ = 0;
  std::span<std::uint8_t> row_;
};

// Interns each transmission's origin by its exact bits: returns one id per
// transmission and appends the distinct positions to `points`.
std::vector<std::uint32_t> intern_origins(const std::vector<Transmission>& txs,
                                          std::vector<Point>& points) {
  struct Key {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::uint32_t tx = 0;
  };
  std::vector<Key> keys;
  keys.reserve(txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    keys.push_back({std::bit_cast<std::uint64_t>(txs[i].origin.x.value()),
                    std::bit_cast<std::uint64_t>(txs[i].origin.y.value()),
                    static_cast<std::uint32_t>(i)});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& lhs, const Key& rhs) {
    return lhs.x != rhs.x ? lhs.x < rhs.x : lhs.y < rhs.y;
  });
  std::vector<std::uint32_t> ids(txs.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (k == 0 || keys[k].x != keys[k - 1].x || keys[k].y != keys[k - 1].y) {
      points.push_back(txs[keys[k].tx].origin);
    }
    ids[keys[k].tx] = static_cast<std::uint32_t>(points.size() - 1);
  }
  return ids;
}

using Pair = double __attribute__((vector_size(16)));
using PairBits = std::uint64_t __attribute__((vector_size(16)));

Pair load_pair(std::span<const double> column, std::size_t first) {
  Pair pair;
  std::memcpy(&pair, column.subspan(first, 2).data(), sizeof pair);
  return pair;
}

// The double whose bit pattern is bit k alone. A lane select is a bitwise
// AND with the comparison mask, so selecting these and OR-ing the results
// as integers yields the block's bit mask.
constexpr double bit_pattern(std::size_t k) {
  return std::bit_cast<double>(std::uint64_t{1} << k);
}

// The start and end columns of a lane or of the merge scratch.
struct Times {
  std::span<const double> start;
  std::span<const double> end;
};

// Drops the lane's entries that ended by `now`, keeping the rest in order.
void drop_ended(Lane& lane, double now) {
  Columns& c = lane.entries;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (!(c.end[i] <= now)) c.move(i, kept++);
  }
  c.resize(kept);
  lane.dropped();
}

// One packet's carrier-sense deferral: the start it has reached and the
// time-overlap window [start, start + duration) the next entry is tested
// against.
class Deferral {
 public:
  Deferral(const Transmission& tx, const LmacOptions& options)
      : now_(tx.start.value()),
        start_(now_),
        duration_((tx.end() - tx.start).value()),
        limit_(start_ + duration_),
        gap_lo_(options.min_gap.value()),
        gap_hi_(options.max_gap.value()) {}

  [[nodiscard]] Seconds start() const { return Seconds{start_}; }

  // One deferral pass over `c`: every entry that overlaps the window as it
  // stands when the entry is reached, and that the packet hears, draws one
  // gap, in column order. With `drop` set, entries that ended by the
  // packet's original start are dropped from `c` on the way. Returns
  // whether the start moved.
  bool pass(Columns& c, Hearing& hearing, bool drop, Rng& rng) {
    // Local views, so that the memo writes in hears() cannot force the
    // column pointers to be reloaded between comparisons.
    const Times times{c.start, c.end};
    const std::span<const double> starts = times.start;
    const std::span<const double> ends = times.end;
    const std::span<const std::uint32_t> origins(c.origin);
    bool moved = false;
    const std::size_t n = c.size();
    std::size_t kept = 0;
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
      unsigned hits = overlap_mask(times, i);
      while (hits != 0) {
        const int k = std::countr_zero(hits);
        const std::size_t at = i + static_cast<std::size_t>(k);
        if (hearing.hears(origins[at])) {
          moved |= sense(ends[at], rng);
          // The window moved: retest the rest of the block against it.
          hits = overlap_mask(times, i) & (~1u << k);
        } else {
          hits &= hits - 1;  // hidden terminal: cannot be sensed
        }
      }
      if (!drop) continue;
      const unsigned live = live_mask(ends, i);
      if (live == kWholeBlock && kept == i) {
        kept += kBlock;
        continue;
      }
      for (std::size_t k = 0; k < kBlock; ++k) {
        c.move(i + k, kept);
        kept += (live >> k) & 1u;
      }
    }
    for (; i < n; ++i) {
      if (!(ends[i] <= start_ || starts[i] >= limit_) &&
          hearing.hears(origins[i])) {
        moved |= sense(ends[i], rng);
      }
      if (drop && !(ends[i] <= now_)) c.move(i, kept++);
    }
    if (drop) c.resize(kept);
    return moved;
  }

 private:
  // The bits of entries first..first+7 that overlap [start, limit) in
  // time, written as the negation of the reference's skip test so that
  // every comparison, NaN included, resolves as it does there.
  [[nodiscard]] unsigned overlap_mask(const Times& times,
                                      std::size_t first) const {
    PairBits bits{};
    for (std::size_t k = 0; k < kBlock; k += 2) {
      const Pair weight{bit_pattern(k), bit_pattern(k + 1)};
      const Pair ended =
          load_pair(times.end, first + k) <= start_ ? Pair{} : weight;
      bits |= std::bit_cast<PairBits>(
          load_pair(times.start, first + k) >= limit_ ? Pair{} : ended);
    }
    return static_cast<unsigned>(bits[0] | bits[1]);
  }

  // The bits of entries first..first+7 still on the air after the
  // packet's original start.
  [[nodiscard]] unsigned live_mask(std::span<const double> ends,
                                   std::size_t first) const {
    PairBits bits{};
    for (std::size_t k = 0; k < kBlock; k += 2) {
      const Pair weight{bit_pattern(k), bit_pattern(k + 1)};
      bits |= std::bit_cast<PairBits>(
          load_pair(ends, first + k) <= now_ ? Pair{} : weight);
    }
    return static_cast<unsigned>(bits[0] | bits[1]);
  }

  bool sense(double other_end, Rng& rng) {
    const double candidate = other_end + rng.uniform(gap_lo_, gap_hi_);
    if (!(candidate > start_)) return false;
    start_ = candidate;
    limit_ = start_ + duration_;
    return true;
  }

  double now_;
  double start_;
  double duration_;
  double limit_;
  double gap_lo_;
  double gap_hi_;
};

}  // namespace

LmacPolicy::LmacPolicy(LmacOptions options, StandardLorawanOptions node_side)
    : options_(options), node_side_(node_side) {
  if (!(options_.max_defer >= Seconds{0.0})) {
    throw std::invalid_argument("LmacPolicy: max_defer must be >= 0");
  }
  if (!(options_.min_gap >= Seconds{0.0})) {
    throw std::invalid_argument("LmacPolicy: min_gap must be >= 0");
  }
  if (!(options_.min_gap <= options_.max_gap)) {
    throw std::invalid_argument("LmacPolicy: min_gap must be <= max_gap");
  }
  if (!std::isfinite(options_.sense_range.value()) ||
      options_.sense_range < Meters{0.0}) {
    throw std::invalid_argument(
        "LmacPolicy: sense_range must be finite and >= 0");
  }
}

// Carrier sensing as a sequential deferral pass over the start-ordered
// schedule. A packet senses the transmissions in frequency buckets within
// +-1 of its own, on channels that overlap its channel, still on the air,
// and within sense_range; a deferral pass meets them bucket by bucket in
// scheduling order and draws one gap per sensed transmission that overlaps
// the packet's current window. Channel overlap and distance do not depend
// on the deferred start, so the passes run over each overlapping lane's
// columns directly when only one lane overlaps (always, on the 200 kHz
// grid), and over a per-bucket `seq` merge of the lanes otherwise.
std::vector<Transmission> LmacPolicy::shape_window(
    std::vector<Transmission> txs, Rng& rng) const {
  sort_by_start(txs);
  std::vector<Point> points;
  const std::vector<std::uint32_t> origin_of = intern_origins(txs, points);
  Hearing hearing(std::move(points), options_.sense_range);
  // Per frequency bucket: one lane per exact channel.
  std::map<std::int64_t, std::vector<Lane>> lanes;
  std::vector<Lane*> overlapping;
  std::vector<Lane*> group;
  std::vector<std::size_t> cursor;
  Columns merged;
  std::uint64_t next_seq = 0;

  for (std::size_t t = 0; t < txs.size(); ++t) {
    Transmission& tx = txs[t];
    const Seconds deadline = tx.start + options_.max_defer;
    const double now = tx.start.value();
    const std::int64_t bucket = freq_bucket(tx.channel.center);

    overlapping.clear();
    for (std::int64_t b = bucket - 1; b <= bucket + 1; ++b) {
      const auto it = lanes.find(b);
      if (it == lanes.end()) continue;
      for (Lane& lane : it->second) {
        if (overlap_ratio(lane.channel, tx.channel) > 0.0) {
          overlapping.push_back(&lane);
        }
      }
    }
    Deferral deferral(tx, options_);
    Columns* sensed = &merged;
    Lane* dropping = nullptr;
    if (overlapping.size() == 1) {
      sensed = &overlapping.front()->entries;
      if (overlapping.front()->drop_due()) dropping = overlapping.front();
    } else {
      // Several lanes overlap (or none): merge each bucket's lanes by `seq`,
      // buckets in ascending order, as one scan of every active entry meets
      // them.
      merged.resize(0);
      for (std::size_t first = 0; first < overlapping.size();) {
        const std::int64_t b = freq_bucket(overlapping[first]->channel.center);
        group.clear();
        while (first < overlapping.size() &&
               freq_bucket(overlapping[first]->channel.center) == b) {
          drop_ended(*overlapping[first], now);
          group.push_back(overlapping[first++]);
        }
        cursor.assign(group.size(), 0);
        while (true) {
          std::size_t pick = group.size();
          for (std::size_t g = 0; g < group.size(); ++g) {
            const Columns& c = group[g]->entries;
            if (cursor[g] < c.size() &&
                (pick == group.size() ||
                 c.seq[cursor[g]] <
                     group[pick]->entries.seq[cursor[pick]])) {
              pick = g;
            }
          }
          if (pick == group.size()) break;
          merged.append(group[pick]->entries, cursor[pick]++);
        }
      }
    }
    hearing.listen_from(origin_of[t]);
    bool moved = true;
    bool drop = dropping != nullptr;
    while (moved && deferral.start() <= deadline) {
      moved = deferral.pass(*sensed, hearing, drop, rng);
      drop = false;
    }
    if (dropping != nullptr) dropping->dropped();
    tx.start = std::min(deferral.start(), deadline);

    auto& bucket_lanes = lanes[bucket];
    auto lane = std::find_if(
        bucket_lanes.begin(), bucket_lanes.end(),
        [&](const Lane& l) { return l.channel == tx.channel; });
    if (lane == bucket_lanes.end()) {
      lane = bucket_lanes.insert(bucket_lanes.end(), Lane{tx.channel, {}});
    }
    lane->entries.push_back(next_seq++, tx, origin_of[t]);
  }
  sort_by_start(txs);
  return txs;
}

}  // namespace alphawan
