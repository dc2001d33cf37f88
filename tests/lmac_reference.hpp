// Test-only reference for LmacPolicy::shape_window: the original
// straight-line carrier-sense pass, kept verbatim so the differential
// property suite (tests/property/test_prop_lmac.cpp) can prove the
// channel-lane implementation returns the same schedule and consumes the
// same random draws. Every comparison recomputes Transmission::end() and
// every deferral pass rescans whole frequency buckets — slow, but
// obviously correct. Not for production use.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "baselines/lmac.hpp"
#include "common/geometry.hpp"
#include "phy/overlap.hpp"
#include "sim/traffic.hpp"

namespace alphawan::test {

inline std::vector<Transmission> reference_lmac_shape_window(
    std::vector<Transmission> txs, Rng& rng, const LmacOptions& options) {
  const auto freq_bucket = [](Hz center) {
    return static_cast<std::int64_t>(center / kChannelSpacing);
  };
  sort_by_start(txs);
  // Per frequency bucket: transmissions still on the air (pruned lazily).
  std::map<std::int64_t, std::vector<Transmission>> active;

  std::vector<Transmission> scheduled;
  scheduled.reserve(txs.size());
  for (auto& tx : txs) {
    const Seconds duration = tx.end() - tx.start;
    const Seconds deadline = tx.start + options.max_defer;
    const std::int64_t bucket = freq_bucket(tx.channel.center);

    Seconds start = tx.start;
    bool moved = true;
    while (moved && start <= deadline) {
      moved = false;
      for (std::int64_t b = bucket - 1; b <= bucket + 1; ++b) {
        const auto it = active.find(b);
        if (it == active.end()) continue;
        auto& list = it->second;
        // Lazy prune: drop transmissions that ended before our window.
        list.erase(std::remove_if(list.begin(), list.end(),
                                  [&](const Transmission& other) {
                                    return other.end() <= tx.start;
                                  }),
                   list.end());
        for (const auto& other : list) {
          if (other.end() <= start || other.start >= start + duration) {
            continue;
          }
          if (overlap_ratio(other.channel, tx.channel) <= 0.0) continue;
          if (distance(other.origin, tx.origin) > options.sense_range) {
            continue;  // hidden terminal: cannot be sensed
          }
          const Seconds candidate =
              other.end() +
              Seconds{rng.uniform(options.min_gap.value(), options.max_gap.value())};
          if (candidate > start) {
            start = candidate;
            moved = true;
          }
        }
      }
    }
    tx.start = std::min(start, deadline);
    active[bucket].push_back(tx);
    scheduled.push_back(tx);
  }
  sort_by_start(scheduled);
  return scheduled;
}

}  // namespace alphawan::test
