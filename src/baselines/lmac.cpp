#include "baselines/lmac.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
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

// A scheduled transmission that may still be on the air. `end` is computed
// once, from the shifted start, with the same expression as
// Transmission::end(); `seq` is the global scheduling order.
struct ActiveTx {
  std::uint64_t seq = 0;
  Seconds start{0.0};
  Seconds end{0.0};
  Point origin{};
};

// The active transmissions on one exact channel, in scheduling order.
struct Lane {
  Channel channel{};
  std::vector<ActiveTx> entries;
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
// schedule. For each packet, the transmissions it can sense (frequency
// bucket within +-1, positive channel overlap, within sense_range, still
// on the air at its original start) are gathered once, in the order the
// packet would meet them bucket by bucket; the deferral passes then run
// over that list alone. Channel overlap and distance do not depend on the
// deferred start, so the passes see the same entries in the same order and
// draw one gap per time-overlapping sensed transmission, exactly as a scan
// of every active transmission would.
std::vector<Transmission> LmacPolicy::shape_window(
    std::vector<Transmission> txs, Rng& rng) const {
  const LmacOptions& options = options_;
  sort_by_start(txs);
  // Per frequency bucket: one lane per exact channel, pruned lazily. An
  // entry that ended by a packet's original start can never block it or
  // any later packet (starts are non-decreasing), so pruning is unseen.
  std::map<std::int64_t, std::vector<Lane>> lanes;
  std::vector<ActiveTx> sensed;
  std::uint64_t next_seq = 0;

  for (auto& tx : txs) {
    const Seconds duration = tx.end() - tx.start;
    const Seconds deadline = tx.start + options.max_defer;
    const std::int64_t bucket = freq_bucket(tx.channel.center);

    sensed.clear();
    for (std::int64_t b = bucket - 1; b <= bucket + 1; ++b) {
      const auto it = lanes.find(b);
      if (it == lanes.end()) continue;
      const std::size_t bucket_first = sensed.size();
      int contributing = 0;
      for (Lane& lane : it->second) {
        if (overlap_ratio(lane.channel, tx.channel) <= 0.0) continue;
        auto& list = lane.entries;
        list.erase(std::remove_if(list.begin(), list.end(),
                                  [&](const ActiveTx& other) {
                                    return other.end <= tx.start;
                                  }),
                   list.end());
        const std::size_t lane_first = sensed.size();
        for (const ActiveTx& other : list) {
          if (distance(other.origin, tx.origin) > options.sense_range) {
            continue;  // hidden terminal: cannot be sensed
          }
          sensed.push_back(other);
        }
        if (sensed.size() > lane_first) ++contributing;
      }
      // Several overlapping channels share this bucket: restore the
      // bucket-wide scheduling order.
      if (contributing > 1) {
        std::sort(sensed.begin() + static_cast<std::ptrdiff_t>(bucket_first),
                  sensed.end(), [](const ActiveTx& lhs, const ActiveTx& rhs) {
                    return lhs.seq < rhs.seq;
                  });
      }
    }

    Seconds start = tx.start;
    bool moved = true;
    while (moved && start <= deadline) {
      moved = false;
      for (const ActiveTx& other : sensed) {
        if (other.end <= start || other.start >= start + duration) continue;
        const Seconds candidate =
            other.end +
            Seconds{rng.uniform(options.min_gap.value(), options.max_gap.value())};
        if (candidate > start) {
          start = candidate;
          moved = true;
        }
      }
    }
    tx.start = std::min(start, deadline);

    auto& bucket_lanes = lanes[bucket];
    auto lane = std::find_if(
        bucket_lanes.begin(), bucket_lanes.end(),
        [&](const Lane& l) { return l.channel == tx.channel; });
    if (lane == bucket_lanes.end()) {
      lane = bucket_lanes.insert(bucket_lanes.end(), Lane{tx.channel, {}});
    }
    lane->entries.push_back(
        ActiveTx{next_seq++, tx.start, tx.end(), tx.origin});
  }
  sort_by_start(txs);
  return txs;
}

}  // namespace alphawan
