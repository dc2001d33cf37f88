// Basic identifiers, physical-unit aliases, and constants shared by all
// AlphaWAN subsystems.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/units.hpp"

namespace alphawan {

// ---- identifiers ---------------------------------------------------------
using NodeId = std::uint32_t;
using GatewayId = std::uint32_t;
using NetworkId = std::uint16_t;
using ChannelIndex = std::int32_t;  // index into a band plan's channel grid
using PacketId = std::uint64_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr GatewayId kInvalidGateway =
    std::numeric_limits<GatewayId>::max();
inline constexpr ChannelIndex kInvalidChannel = -1;

// ---- 32-bit index columns ----------------------------------------------
// The per-window index columns (transmission indices, link-cache rows,
// node-directory keys, event positions) are 32 bits wide and reserve the
// all-ones value as their "absent" sentinel (LinkCache::kInvalidRow).
inline constexpr std::uint32_t kInvalidIndex32 =
    std::numeric_limits<std::uint32_t>::max();

// Narrow an index or count into a 32-bit index column. A value at or above
// the sentinel would wrap or alias it, so it throws std::length_error.
[[nodiscard]] inline std::uint32_t to_index32(std::size_t value) {
  if (value >= kInvalidIndex32) {
    throw std::length_error("index " + std::to_string(value) +
                            " does not fit a 32-bit index column");
  }
  return static_cast<std::uint32_t>(value);
}

// Gateways enter the shadowing-cache keyspace (phy/channel_model.hpp) offset
// by this base so node ids and gateway ids can never collide as link
// endpoints. Shared by the runner, the replay checker, and the link cache —
// all three must derive identical keys for the same physical link.
inline constexpr std::uint64_t kGatewayKeyBase = 1ULL << 32;

// ---- physical units ------------------------------------------------------
// Strong quantity types (see common/units.hpp). All frequencies in Hz, all
// powers in dBm (or dB for ratios), all times in seconds unless a name says
// otherwise. Construction from a raw double is explicit: `Dbm{-120.0}` or
// `-120.0_dBm`; `.value()` unwraps for transcendental math and I/O.

inline constexpr Hz kLoRaBandwidth125k{125e3};
inline constexpr Hz kLoRaBandwidth250k{250e3};
inline constexpr Hz kLoRaBandwidth500k{500e3};

// Standard LoRaWAN channel spacing used throughout the paper's testbed
// (8 channels per 1.6 MHz of spectrum).
inline constexpr Hz kChannelSpacing{200e3};

namespace detail {
// Not constexpr on purpose: reaching this in a constant expression is a
// compile error, which is how noise_floor_dbm rejects unknown bandwidths
// at compile time. At runtime an unknown bandwidth is a hard model error.
[[noreturn]] inline void unknown_noise_floor_bandwidth() { std::abort(); }
}  // namespace detail

// Thermal noise floor of a LoRa channel: -174 dBm/Hz + 10log10(BW) + a
// typical 6 dB receiver noise figure. Keyed exactly off the three named
// kLoRaBandwidth* constants; any other bandwidth is a compile-time error
// in constexpr context (and aborts at runtime).
[[nodiscard]] constexpr Dbm noise_floor_dbm(Hz bandwidth) {
  // 10*log10(BW) precomputed for the three LoRa bandwidths.
  if (bandwidth == kLoRaBandwidth125k) {
    return Dbm{-174.0 + 50.97 + 6.0};
  }
  if (bandwidth == kLoRaBandwidth250k) {
    return Dbm{-174.0 + 53.98 + 6.0};
  }
  if (bandwidth == kLoRaBandwidth500k) {
    return Dbm{-174.0 + 56.99 + 6.0};
  }
  detail::unknown_noise_floor_bandwidth();
}

}  // namespace alphawan
