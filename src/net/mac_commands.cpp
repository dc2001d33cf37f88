#include "net/mac_commands.hpp"

#include <cmath>

#include "net/channel_plan.hpp"

namespace alphawan {
namespace {

void put_u24_freq(std::vector<std::uint8_t>& out, Hz freq) {
  const auto units = static_cast<std::uint32_t>(std::llround(freq.value() / 100.0));
  out.push_back(static_cast<std::uint8_t>(units));
  out.push_back(static_cast<std::uint8_t>(units >> 8));
  out.push_back(static_cast<std::uint8_t>(units >> 16));
}

Hz get_u24_freq(std::span<const std::uint8_t> bytes, std::size_t offset) {
  const std::uint32_t units =
      static_cast<std::uint32_t>(bytes[offset]) |
      (static_cast<std::uint32_t>(bytes[offset + 1]) << 8) |
      (static_cast<std::uint32_t>(bytes[offset + 2]) << 16);
  return Hz{100.0 * static_cast<double>(units)};
}

}  // namespace

std::vector<std::uint8_t> encode_downlink_commands(
    std::span<const DownlinkMacCommand> commands) {
  std::vector<std::uint8_t> out;
  for (const auto& command : commands) {
    std::visit(
        [&](const auto& c) {
          using T = std::decay_t<decltype(c)>;
          if constexpr (std::is_same_v<T, LinkAdrReq>) {
            out.push_back(static_cast<std::uint8_t>(MacCid::kLinkAdrReq));
            out.push_back(static_cast<std::uint8_t>((c.data_rate << 4) |
                                                    (c.tx_power & 0x0F)));
            out.push_back(static_cast<std::uint8_t>(c.ch_mask));
            out.push_back(static_cast<std::uint8_t>(c.ch_mask >> 8));
            out.push_back(static_cast<std::uint8_t>(
                ((c.ch_mask_cntl & 0x07) << 4) | (c.nb_trans & 0x0F)));
          } else if constexpr (std::is_same_v<T, DutyCycleReq>) {
            out.push_back(static_cast<std::uint8_t>(MacCid::kDutyCycleReq));
            out.push_back(static_cast<std::uint8_t>(c.max_duty_cycle & 0x0F));
          } else if constexpr (std::is_same_v<T, DevStatusReq>) {
            out.push_back(static_cast<std::uint8_t>(MacCid::kDevStatusReq));
          } else if constexpr (std::is_same_v<T, NewChannelReq>) {
            out.push_back(static_cast<std::uint8_t>(MacCid::kNewChannelReq));
            out.push_back(c.ch_index);
            put_u24_freq(out, c.frequency);
            out.push_back(static_cast<std::uint8_t>((c.max_dr << 4) |
                                                    (c.min_dr & 0x0F)));
          }
        },
        command);
  }
  return out;
}

std::vector<std::uint8_t> encode_uplink_commands(
    std::span<const UplinkMacCommand> commands) {
  std::vector<std::uint8_t> out;
  for (const auto& command : commands) {
    std::visit(
        [&](const auto& c) {
          using T = std::decay_t<decltype(c)>;
          if constexpr (std::is_same_v<T, LinkAdrAns>) {
            out.push_back(static_cast<std::uint8_t>(MacCid::kLinkAdrAns));
            out.push_back(static_cast<std::uint8_t>(
                (c.power_ack ? 0x04 : 0) | (c.data_rate_ack ? 0x02 : 0) |
                (c.channel_mask_ack ? 0x01 : 0)));
          } else if constexpr (std::is_same_v<T, DutyCycleAns>) {
            out.push_back(static_cast<std::uint8_t>(MacCid::kDutyCycleAns));
          } else if constexpr (std::is_same_v<T, DevStatusAns>) {
            out.push_back(static_cast<std::uint8_t>(MacCid::kDevStatusAns));
            out.push_back(c.battery);
            out.push_back(static_cast<std::uint8_t>(c.margin & 0x3F));
          } else if constexpr (std::is_same_v<T, NewChannelAns>) {
            out.push_back(static_cast<std::uint8_t>(MacCid::kNewChannelAns));
            out.push_back(static_cast<std::uint8_t>((c.dr_ok ? 0x02 : 0) |
                                                    (c.freq_ok ? 0x01 : 0)));
          }
        },
        command);
  }
  return out;
}

std::optional<std::vector<DownlinkMacCommand>> decode_downlink_commands(
    std::span<const std::uint8_t> bytes) {
  std::vector<DownlinkMacCommand> out;
  std::size_t i = 0;
  while (i < bytes.size()) {
    const auto cid = static_cast<MacCid>(bytes[i]);
    switch (cid) {
      case MacCid::kLinkAdrReq: {
        if (i + 5 > bytes.size()) return std::nullopt;
        LinkAdrReq c;
        c.data_rate = bytes[i + 1] >> 4;
        c.tx_power = bytes[i + 1] & 0x0F;
        c.ch_mask = static_cast<std::uint16_t>(bytes[i + 2] |
                                               (bytes[i + 3] << 8));
        c.ch_mask_cntl = (bytes[i + 4] >> 4) & 0x07;
        c.nb_trans = bytes[i + 4] & 0x0F;
        out.push_back(c);
        i += 5;
        break;
      }
      case MacCid::kDutyCycleReq: {
        if (i + 2 > bytes.size()) return std::nullopt;
        out.push_back(DutyCycleReq{bytes[i + 1]});
        i += 2;
        break;
      }
      case MacCid::kDevStatusReq: {
        out.push_back(DevStatusReq{});
        i += 1;
        break;
      }
      case MacCid::kNewChannelReq: {
        if (i + 6 > bytes.size()) return std::nullopt;
        NewChannelReq c;
        c.ch_index = bytes[i + 1];
        c.frequency = get_u24_freq(bytes, i + 2);
        c.max_dr = bytes[i + 5] >> 4;
        c.min_dr = bytes[i + 5] & 0x0F;
        out.push_back(c);
        i += 6;
        break;
      }
      default:
        return std::nullopt;  // unknown CID: discard the remainder
    }
  }
  return out;
}

std::optional<std::vector<UplinkMacCommand>> decode_uplink_commands(
    std::span<const std::uint8_t> bytes) {
  std::vector<UplinkMacCommand> out;
  std::size_t i = 0;
  while (i < bytes.size()) {
    const auto cid = static_cast<MacCid>(bytes[i]);
    switch (cid) {
      case MacCid::kLinkAdrAns: {
        if (i + 2 > bytes.size()) return std::nullopt;
        LinkAdrAns c;
        c.power_ack = (bytes[i + 1] & 0x04) != 0;
        c.data_rate_ack = (bytes[i + 1] & 0x02) != 0;
        c.channel_mask_ack = (bytes[i + 1] & 0x01) != 0;
        out.push_back(c);
        i += 2;
        break;
      }
      case MacCid::kDutyCycleAns: {
        out.push_back(DutyCycleAns{});
        i += 1;
        break;
      }
      case MacCid::kDevStatusAns: {
        if (i + 3 > bytes.size()) return std::nullopt;
        DevStatusAns c;
        c.battery = bytes[i + 1];
        // 6-bit two's-complement margin.
        std::uint8_t raw = bytes[i + 2] & 0x3F;
        c.margin = raw >= 32 ? static_cast<std::int8_t>(raw - 64)
                             : static_cast<std::int8_t>(raw);
        out.push_back(c);
        i += 3;
        break;
      }
      case MacCid::kNewChannelAns: {
        if (i + 2 > bytes.size()) return std::nullopt;
        NewChannelAns c;
        c.dr_ok = (bytes[i + 1] & 0x02) != 0;
        c.freq_ok = (bytes[i + 1] & 0x01) != 0;
        out.push_back(c);
        i += 2;
        break;
      }
      default:
        return std::nullopt;
    }
  }
  return out;
}

std::uint8_t tx_power_index(Dbm dbm) {
  // LoRaWAN TXPower: index 0 = MaxEIRP (20 dBm here), each step -2 dB.
  const double steps = (20.0 - dbm.value()) / 2.0;
  const auto idx = static_cast<int>(std::lround(steps));
  return static_cast<std::uint8_t>(std::clamp(idx, 0, 7));
}

Dbm tx_power_from_index(std::uint8_t index) {
  return Dbm{20.0 - 2.0 * static_cast<double>(std::min<int>(index, 7))};
}

NodeConfigCommands commands_for_config_change(const NodeRadioConfig& current,
                                              const NodeRadioConfig& next,
                                              std::uint8_t ch_index) {
  NodeConfigCommands result;
  // At most two commands. Reserving up front also keeps GCC 12 at -O3 from
  // a false -Wstringop-overflow on the variant vector's reallocation.
  result.commands.reserve(2);
  if (!(current.channel == next.channel)) {
    NewChannelReq req;
    req.ch_index = ch_index;
    req.frequency = next.channel.center;
    req.min_dr = 0;
    req.max_dr = kNumDataRates - 1;
    result.commands.push_back(req);
  }
  if (current.dr != next.dr || current.tx_power != next.tx_power ||
      !(current.channel == next.channel)) {
    LinkAdrReq adr;
    adr.data_rate = static_cast<std::uint8_t>(dr_value(next.dr));
    adr.tx_power = tx_power_index(next.tx_power);
    adr.ch_mask = static_cast<std::uint16_t>(1u << (ch_index & 0x0F));
    adr.nb_trans = 1;
    result.commands.push_back(adr);
  }
  result.bytes = encode_downlink_commands(result.commands).size();
  return result;
}

}  // namespace alphawan
