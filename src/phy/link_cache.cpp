#include "phy/link_cache.hpp"

#include <bit>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace alphawan {
namespace {
// Absorbs any floating-point reassociation between the pruning inequality
// (one subtraction) and the full received-power expression it stands in
// for; dwarfs the few-ulp error either side can accumulate.
constexpr double kPruneSlackDb = 1.0;
}  // namespace

std::uint32_t LinkCache::column_of(GatewayId id) const {
  const auto it = column_of_.find(id);
  return it == column_of_.end() ? kInvalidColumn : it->second;
}

NodeKey NodeDirectory::intern(NodeId node) {
  const auto [it, inserted] = key_of_.try_emplace(node, 0);
  if (inserted) it->second = to_index32(key_of_.size() - 1);
  return it->second;
}

NodeKey NodeDirectory::find(NodeId node) const {
  const auto it = key_of_.find(node);
  return it == key_of_.end() ? kInvalidKey : it->second;
}

std::uint32_t LinkCache::row_of(NodeKey key) const {
  return key < slots_.size() ? slots_[key].row : kInvalidRow;
}

LinkCache::NodeSlot& LinkCache::slot_of(NodeKey key) {
  if (key >= slots_.size()) slots_.resize(std::size_t{key} + 1);
  return slots_[key];
}

LinkGain LinkCache::compute_gain(const Column& column, NodeId node,
                                 const Point& origin) {
  // Argument order matches the uncached runner path exactly:
  // distance(tx.origin, gw.position()) feeding link_path_loss.
  const Meters dist = distance(origin, column.position);
  return LinkGain{model_->link_path_loss(node, column.rx_key, dist),
                  column.antenna_gain(origin)};
}

std::size_t LinkCache::upsert_gateway(GatewayId id, std::uint64_t rx_key,
                                      const Point& position,
                                      std::uint64_t antenna_epoch,
                                      AntennaGainFn antenna_gain) {
  const auto it = column_of_.find(id);
  if (it != column_of_.end()) {
    Column& column = columns_[it->second];
    if (column.antenna_epoch != antenna_epoch) {
      // Path loss is position-bound and positions are immutable; only the
      // antenna term needs recomputing.
      column.antenna_epoch = antenna_epoch;
      column.antenna_gain = std::move(antenna_gain);
      for (std::uint32_t row = 0; row < row_origin_.size(); ++row) {
        column.gains[row].antenna_gain = column.antenna_gain(row_origin_[row]);
      }
      candidates_valid_ = false;
      ++structure_epoch_;  // a new antenna can make rejected nodes audible
    }
    return it->second;
  }

  Column column;
  column.id = id;
  column.rx_key = rx_key;
  column.position = position;
  column.antenna_epoch = antenna_epoch;
  column.antenna_gain = std::move(antenna_gain);
  column.gains.reserve(row_origin_.size());
  for (std::uint32_t row = 0; row < row_origin_.size(); ++row) {
    column.gains.push_back(
        compute_gain(column, row_node_[row], row_origin_[row]));
  }
  const auto index = columns_.size();
  columns_.push_back(std::move(column));
  column_of_.emplace(id, static_cast<std::uint32_t>(index));
  candidates_valid_ = false;
  ++structure_epoch_;  // a new column can make rejected nodes audible
  return index;
}

std::uint32_t LinkCache::ensure_row(NodeKey key, NodeId node,
                                    const Point& origin) {
  NodeSlot& slot = slot_of(key);
  if (slot.row != kInvalidRow) return refresh_row(slot.row, node, origin);
  for (auto& column : columns_) {
    column.gains.push_back(compute_gain(column, node, origin));
  }
  return append_row(slot, node, origin);
}

std::uint32_t LinkCache::refresh_row(std::uint32_t row, NodeId node,
                                     const Point& origin) {
  if (row_origin_[row] == origin) return row;
  // Same id, new position: recompute the row in place. Its candidates may
  // change, so the candidate layout is rebuilt lazily.
  row_origin_[row] = origin;
  for (auto& column : columns_) {
    column.gains[row] = compute_gain(column, node, origin);
  }
  candidates_valid_ = false;
  return row;
}

std::uint32_t LinkCache::append_row(NodeSlot& slot, NodeId node,
                                    const Point& origin) {
  slot.row = to_index32(row_origin_.size());
  row_node_.push_back(node);
  row_origin_.push_back(origin);
  if (candidates_valid_) append_candidates_for_row(slot.row);
  return slot.row;
}

std::uint32_t LinkCache::ensure_row_if_audible(NodeKey key, NodeId node,
                                               const Point& origin, Dbm floor,
                                               Dbm power_bound) {
  const double threshold = audible_threshold(floor, power_bound);
  NodeSlot& slot = slot_of(key);
  if (slot.row != kInvalidRow) {
    // Already materialized: take the ensure_row refresh path. The row stays
    // resident even if it has drifted inaudible — its candidate list just
    // goes empty, which is equally cheap in the fan-out.
    return refresh_row(slot.row, node, origin);
  }
  if (slot.rejection != kInvalidRow) {
    const Rejection& r = rejections_[slot.rejection];
    if (r.origin == origin && r.epoch == structure_epoch_ &&
        r.threshold == threshold) {
      return kInvalidRow;
    }
  }
  // Probe every column into scratch, materializing only on an audible hit
  // (so the probe's work is not thrown away when the node joins).
  probe_gains_.clear();
  probe_gains_.reserve(columns_.size());
  bool audible = false;
  for (auto& column : columns_) {
    const LinkGain g = compute_gain(column, node, origin);
    audible = audible ||
              g.antenna_gain.value() - g.path_loss.value() >= threshold;
    probe_gains_.push_back(g);
  }
  if (!audible) {
    if (slot.rejection == kInvalidRow) {
      slot.rejection = to_index32(rejections_.size());
      rejections_.emplace_back();
    }
    rejections_[slot.rejection] =
        Rejection{origin, structure_epoch_, threshold};
    return kInvalidRow;
  }
  for (std::size_t col = 0; col < columns_.size(); ++col) {
    columns_[col].gains.push_back(probe_gains_[col]);
  }
  return append_row(slot, node, origin);
}

double LinkCache::audible_threshold(Dbm floor, Dbm power_bound) const {
  const double fade_bound =
      kNormalTailSigmas * model_->config().fast_fading_sigma_db.value();
  return floor.value() - power_bound.value() - fade_bound - kPruneSlackDb;
}

double LinkCache::candidate_threshold() const {
  return audible_threshold(candidate_floor_, candidate_power_bound_);
}

void LinkCache::append_candidates_for_row(std::uint32_t row) {
  const double threshold = candidate_threshold();
  const auto is_candidate = [&](std::uint32_t col) {
    const LinkGain& g = columns_[col].gains[row];
    return g.antenna_gain.value() - g.path_loss.value() >= threshold;
  };
  const auto columns = static_cast<std::uint32_t>(columns_.size());
  if (columns <= kMaxMaskColumns) {
    std::uint64_t mask = 0;
    for (std::uint32_t col = 0; col < columns; ++col) {
      if (is_candidate(col)) mask |= std::uint64_t{1} << col;
    }
    candidate_mask_.push_back(mask);
    return;
  }
  const auto begin = static_cast<std::uint32_t>(candidate_flat_.size());
  for (std::uint32_t col = 0; col < columns; ++col) {
    if (is_candidate(col)) candidate_flat_.push_back(col);
  }
  candidate_range_.emplace_back(
      begin, static_cast<std::uint32_t>(candidate_flat_.size()));
}

void LinkCache::ensure_candidates(Dbm floor, Dbm power_bound) {
  if (candidates_valid_ && floor == candidate_floor_ &&
      power_bound == candidate_power_bound_) {
    return;
  }
  candidate_floor_ = floor;
  candidate_power_bound_ = power_bound;
  candidate_mask_.clear();
  candidate_flat_.clear();
  candidate_range_.clear();
  if (columns_.size() <= kMaxMaskColumns) {
    candidate_mask_.reserve(row_origin_.size());
  } else {
    candidate_range_.reserve(row_origin_.size());
  }
  candidates_valid_ = true;
  for (std::uint32_t row = 0; row < row_origin_.size(); ++row) {
    append_candidates_for_row(row);
  }
}

std::span<const std::uint32_t> LinkCache::candidate_columns(std::uint32_t row,
                                                            Dbm floor,
                                                            Dbm power_bound) {
  ensure_candidates(floor, power_bound);
  if (columns_.size() <= kMaxMaskColumns) {
    candidate_decoded_.clear();
    for (std::uint64_t m = candidate_mask_[row]; m != 0; m &= m - 1) {
      candidate_decoded_.push_back(
          static_cast<std::uint32_t>(std::countr_zero(m)));
    }
    return candidate_decoded_;
  }
  const auto [begin, end] = candidate_range_[row];
  return {candidate_flat_.data() + begin, end - begin};
}

std::uint64_t LinkCache::candidate_mask(std::uint32_t row, Dbm floor,
                                        Dbm power_bound) {
  if (columns_.size() > kMaxMaskColumns) {
    throw std::logic_error("LinkCache::candidate_mask: " +
                           std::to_string(columns_.size()) +
                           " columns do not fit a 64-bit mask");
  }
  ensure_candidates(floor, power_bound);
  return candidate_mask_[row];
}

}  // namespace alphawan
