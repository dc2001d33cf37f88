// Tests of the COTS gateway radio model against the black-box behaviours
// the paper measured in Sec. 3.1 (Figs. 3a-3f) and Appendix C.
#include "radio/gateway_radio.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "phy/band_plan.hpp"
#include "phy/capture.hpp"
#include "phy/overlap.hpp"
#include "net/sync_word.hpp"
#include "common/rng.hpp"

namespace alphawan {
namespace {

const Spectrum kSpec = spectrum_1m6();

GatewayRadio make_radio(NetworkId network = 0, int num_channels = 8) {
  GatewayRadio radio(default_profile(), network,
                     sync_word_for_network(network));
  std::vector<Channel> channels;
  for (int i = 0; i < num_channels; ++i) {
    channels.push_back(kSpec.grid_channel(i));
  }
  radio.configure_channels(channels);
  return radio;
}

Transmission make_tx(PacketId id, int channel, SpreadingFactor sf,
                     Seconds start, NetworkId network = 0) {
  Transmission tx;
  tx.id = id;
  tx.node = static_cast<NodeId>(id);
  tx.network = network;
  tx.sync_word = sync_word_for_network(network);
  tx.channel = kSpec.grid_channel(channel);
  tx.params.sf = sf;
  tx.start = start;
  return tx;
}

// 20 concurrent packets on orthogonal (channel, SF) pairs, staggered so
// lock-on order equals packet order (the paper's Scheme (b)).
std::vector<RxEvent> twenty_orthogonal(NetworkId network = 0,
                                       Dbm power = Dbm{-80.0}) {
  std::vector<RxEvent> events;
  for (int i = 0; i < 20; ++i) {
    const int channel = i % 8;
    const auto sf = sf_from_index((i / 8) % kNumSpreadingFactors);
    Transmission tx = make_tx(static_cast<PacketId>(i + 1), channel, sf,
                              Seconds{0.0}, network);
    // Shift start so lock-on lands at slot i (1 ms slots).
    tx.start = Seconds{0.001 * (i + 1)} - preamble_duration(tx.params);
    events.push_back(RxEvent{tx, power});
  }
  return events;
}

std::size_t count(const std::vector<RxOutcome>& outcomes, RxDisposition d) {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [&](const RxOutcome& o) { return o.disposition == d; }));
}

TEST(GatewayRadio, ConfigRejectsTooManyChannels) {
  GatewayRadio radio(default_profile(), 0, kPublicSyncWord);
  std::vector<Channel> nine;
  for (int i = 0; i < 8; ++i) nine.push_back(kSpec.grid_channel(i));
  nine.push_back(Channel{kSpec.grid_center(7) + Hz{10e3}, kLoRaBandwidth125k});
  EXPECT_THROW(radio.configure_channels(nine), std::invalid_argument);
}

TEST(GatewayRadio, ConfigRejectsExcessiveSpan) {
  GatewayRadio radio(default_profile(), 0, kPublicSyncWord);
  const Spectrum wide = spectrum_4m8();
  // Two channels 4.6 MHz apart exceed the 1.6 MHz radio bandwidth.
  EXPECT_THROW(radio.configure_channels(
                   {wide.grid_channel(0), wide.grid_channel(23)}),
               std::invalid_argument);
}

TEST(GatewayRadio, ConfigRejectsEmpty) {
  GatewayRadio radio(default_profile(), 0, kPublicSyncWord);
  EXPECT_THROW(radio.configure_channels({}), std::invalid_argument);
}

TEST(GatewayRadio, SixteenDecoderLimit) {
  // The paper's headline observation: 20 collision-free concurrent packets,
  // only 16 received (Fig. 3b).
  auto radio = make_radio();
  const auto outcomes = radio.process(twenty_orthogonal());
  EXPECT_EQ(count(outcomes, RxDisposition::kDelivered), 16u);
  EXPECT_EQ(count(outcomes, RxDisposition::kDroppedDecoderBusy), 4u);
}

TEST(GatewayRadio, FcfsDropsTheLateLockOns) {
  // Scheme (b): lock-on order == node order, so exactly nodes 17-20 drop.
  auto radio = make_radio();
  const auto outcomes = radio.process(twenty_orthogonal());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(outcomes[static_cast<std::size_t>(i)].disposition,
              RxDisposition::kDelivered)
        << "node " << i + 1;
  }
  for (int i = 16; i < 20; ++i) {
    EXPECT_EQ(outcomes[static_cast<std::size_t>(i)].disposition,
              RxDisposition::kDroppedDecoderBusy)
        << "node " << i + 1;
  }
}

TEST(GatewayRadio, SchemeADropsByLockOnNotStartOrder) {
  // Scheme (a): *starts* are ordered, but SF12 preambles are ~32x longer
  // than SF7 ones, so lock-on order differs from start order. The set of
  // dropped packets must follow lock-on order.
  auto radio = make_radio();
  std::vector<RxEvent> events;
  for (int i = 0; i < 20; ++i) {
    const int channel = i % 8;
    // Mix of SFs so preamble lengths differ wildly.
    const auto sf = sf_from_index((i * 5) % kNumSpreadingFactors);
    Transmission tx = make_tx(static_cast<PacketId>(i + 1), channel, sf,
                              Seconds{0.001 * (i + 1)});
    events.push_back(RxEvent{tx, Dbm{-80.0}});
  }
  const auto outcomes = radio.process(events);
  // Mixed preamble lengths scramble lock-on order relative to start order,
  // and short packets can release decoders before long preambles finish —
  // so the count can exceed 16, never fall below.
  EXPECT_GE(count(outcomes, RxDisposition::kDelivered), 16u);
  // FCFS invariant: a packet is dropped iff 16 decoders were held at its
  // lock-on instant; held = an earlier-locking, still-airing packet that
  // did consume a decoder.
  auto held_at = [&](Seconds t) {
    std::size_t held = 0;
    for (std::size_t j = 0; j < events.size(); ++j) {
      if (!consumed_decoder(outcomes[j].disposition)) continue;
      if (events[j].tx.lock_on() < t && events[j].tx.end() > t) ++held;
    }
    return held;
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Seconds lock = events[i].tx.lock_on();
    if (outcomes[i].disposition == RxDisposition::kDroppedDecoderBusy) {
      EXPECT_GE(held_at(lock), 16u) << "packet " << i;
    } else {
      ASSERT_TRUE(consumed_decoder(outcomes[i].disposition));
      EXPECT_LT(held_at(lock), 16u) << "packet " << i;
    }
  }
}

TEST(GatewayRadio, NoSnrPriority) {
  // Fig. 3c: low-SNR (but decodable) packets are not preempted by strong
  // ones — only lock-on order matters.
  auto radio = make_radio();
  auto events = twenty_orthogonal();
  // Make the first 16 arrivals weaker and the last 4 stronger (within the
  // cross-SF orthogonality tolerance, as in the paper's controlled SNR
  // experiment).
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].rx_power = i < 16 ? Dbm{-86.0} : Dbm{-80.0};
  }
  const auto outcomes = radio.process(events);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(outcomes[i].disposition, RxDisposition::kDelivered);
  }
  for (std::size_t i = 16; i < 20; ++i) {
    EXPECT_EQ(outcomes[i].disposition, RxDisposition::kDroppedDecoderBusy);
  }
}

TEST(GatewayRadio, ChannelFairness) {
  // Fig. 3d: packets from crowded channels and idle channels are treated
  // alike; drops depend only on lock-on rank.
  auto radio = make_radio();
  std::vector<RxEvent> events;
  // 15 packets crowd channels 0-2; 5 packets sit alone on channels 3-7.
  for (int i = 0; i < 20; ++i) {
    const int channel = i < 15 ? i % 3 : 3 + (i - 15);
    const auto sf = sf_from_index(i % kNumSpreadingFactors);
    Transmission tx = make_tx(static_cast<PacketId>(i + 1), channel, sf,
                              Seconds{0.0});
    tx.start = Seconds{0.001 * (i + 1)} - preamble_duration(tx.params);
    events.push_back(RxEvent{tx, Dbm{-80.0}});
  }
  const auto outcomes = radio.process(events);
  // Lock-on order is the index order; last 4 drop regardless of channel.
  for (std::size_t i = 16; i < 20; ++i) {
    EXPECT_EQ(outcomes[i].disposition, RxDisposition::kDroppedDecoderBusy);
  }
}

TEST(GatewayRadio, ForeignPacketsConsumeDecoders) {
  // Figs. 3e/3f: packets of another network are decoded (occupying
  // decoders) and only then filtered by sync word.
  auto radio = make_radio(/*network=*/0);
  // 20 mutually orthogonal (channel, SF) pairs; the 10 with the earliest
  // lock-ons belong to the foreign network.
  auto events = twenty_orthogonal();
  for (std::size_t i = 0; i < 10; ++i) {
    events[i].tx.network = 1;
    events[i].tx.sync_word = sync_word_for_network(1);
  }
  const auto outcomes = radio.process(events);
  EXPECT_EQ(count(outcomes, RxDisposition::kDecodedForeign), 10u);
  // Only 6 decoders remain for the 10 own packets.
  EXPECT_EQ(count(outcomes, RxDisposition::kDelivered), 6u);
  EXPECT_EQ(count(outcomes, RxDisposition::kDroppedDecoderBusy), 4u);
  // The drops must be flagged as inter-network contention.
  for (const auto& out : outcomes) {
    if (out.disposition == RxDisposition::kDroppedDecoderBusy) {
      EXPECT_TRUE(out.foreign_among_occupants);
    }
  }
}

TEST(GatewayRadio, FrontEndRejectsMisalignedChannels) {
  // Strategy 8: a packet 40% misaligned from every operating channel never
  // consumes a decoder.
  auto radio = make_radio();
  Transmission tx = make_tx(1, 0, SpreadingFactor::kSF7, Seconds{0.0});
  tx.channel.center += 0.4 * kLoRaBandwidth125k + Hz{20e3};
  const auto outcomes = radio.process({RxEvent{tx, Dbm{-60.0}}});
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kRejectedFrontEnd);
}

TEST(GatewayRadio, WeakPacketNotDetected) {
  auto radio = make_radio();
  Transmission tx = make_tx(1, 0, SpreadingFactor::kSF7, Seconds{0.0});
  // SF7 threshold is -7.5 dB SNR; noise floor ~-117 dBm -> -130 dBm is
  // undetectable.
  const auto outcomes = radio.process({RxEvent{tx, Dbm{-130.0}}});
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kNotDetected);
}

TEST(GatewayRadio, SubNoisePacketStillReceivedAtHighSf) {
  // LoRa's signature: SF12 decodes ~20 dB below noise. This is why
  // directional antennas cannot silence off-axis users (Fig. 7).
  auto radio = make_radio();
  Transmission tx = make_tx(1, 0, SpreadingFactor::kSF12, Seconds{0.0});
  const auto outcomes = radio.process({RxEvent{tx, Dbm{-133.0}}});  // SNR ~-16
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDelivered);
}

TEST(GatewayRadio, SameSfSameChannelCollision) {
  auto radio = make_radio();
  std::vector<RxEvent> events;
  for (int i = 0; i < 2; ++i) {
    Transmission tx = make_tx(static_cast<PacketId>(i + 1), 0,
                              SpreadingFactor::kSF9, Seconds{0.0});
    events.push_back(RxEvent{tx, Dbm{-90.0}});
  }
  const auto outcomes = radio.process(events);
  EXPECT_EQ(count(outcomes, RxDisposition::kDroppedCollision), 2u);
}

TEST(GatewayRadio, CaptureStrongerSameSfPacket) {
  auto radio = make_radio();
  Transmission strong = make_tx(1, 0, SpreadingFactor::kSF9, Seconds{0.0});
  Transmission weak = make_tx(2, 0, SpreadingFactor::kSF9, Seconds{0.0});
  const auto outcomes =
      radio.process({RxEvent{strong, Dbm{-80.0}}, RxEvent{weak, Dbm{-95.0}}});
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDelivered);
  EXPECT_EQ(outcomes[1].disposition, RxDisposition::kDroppedCollision);
}

TEST(GatewayRadio, OrthogonalSfShareChannel) {
  auto radio = make_radio();
  std::vector<RxEvent> events;
  for (int i = 0; i < kNumSpreadingFactors; ++i) {
    Transmission tx = make_tx(static_cast<PacketId>(i + 1), 0,
                              sf_from_index(i), Seconds{0.0});
    events.push_back(RxEvent{tx, Dbm{-85.0}});
  }
  const auto outcomes = radio.process(events);
  EXPECT_EQ(count(outcomes, RxDisposition::kDelivered), 6u);
}

TEST(GatewayRadio, FewerChannelsKeepAllDecoders) {
  // Strategy 1 mechanics: with 2 operating channels the same 16 decoders
  // serve far fewer contenders per spectrum slice.
  auto radio = make_radio(0, /*num_channels=*/2);
  std::vector<RxEvent> events;
  // 12 packets on the 2 channels (6 SFs each): all should be received.
  for (int i = 0; i < 12; ++i) {
    Transmission tx = make_tx(static_cast<PacketId>(i + 1), i % 2,
                              sf_from_index(i / 2 % 6), Seconds{0.0});
    tx.start = Seconds{0.0005 * i};
    events.push_back(RxEvent{tx, Dbm{-80.0}});
  }
  const auto outcomes = radio.process(events);
  EXPECT_EQ(count(outcomes, RxDisposition::kDelivered), 12u);
}

TEST(GatewayRadio, Sx1308ProfileHasEightDecoders) {
  GatewayRadio radio(profile_rak7246g(), 0, kPublicSyncWord);
  std::vector<Channel> channels;
  for (int i = 0; i < 8; ++i) channels.push_back(kSpec.grid_channel(i));
  radio.configure_channels(channels);
  const auto outcomes = radio.process(twenty_orthogonal());
  EXPECT_EQ(count(outcomes, RxDisposition::kDelivered), 8u);
}

TEST(GatewayRadio, MisalignedStrongInterfererActsAsNoiseNotCollision) {
  // Strategy 8 physics: a same-SF interferer 15 dB stronger on a channel
  // misaligned by 40% is filter-truncated — it neither collides with nor
  // preempts the wanted packet (an aligned one would destroy it).
  auto radio = make_radio();
  Transmission wanted = make_tx(1, 0, SpreadingFactor::kSF8, Seconds{0.0});
  Transmission foreign = make_tx(2, 0, SpreadingFactor::kSF8, Seconds{0.0}, 1);
  foreign.channel.center += 0.4 * kLoRaBandwidth125k;
  auto outcomes =
      radio.process({RxEvent{wanted, Dbm{-100.0}}, RxEvent{foreign, Dbm{-85.0}}});
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDelivered);
  EXPECT_EQ(outcomes[1].disposition, RxDisposition::kRejectedFrontEnd);

  // Control: the same interferer aligned destroys the wanted packet.
  auto radio2 = make_radio();
  Transmission aligned = foreign;
  aligned.channel = wanted.channel;
  outcomes =
      radio2.process({RxEvent{wanted, Dbm{-100.0}}, RxEvent{aligned, Dbm{-85.0}}});
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDroppedCollision);
  EXPECT_TRUE(outcomes[0].foreign_interferer);
}

TEST(GatewayRadio, BucketedScanMatchesBruteForce) {
  // Property: the frequency-bucketed interferer scan must agree with a
  // brute-force reference on the *set of delivered packets* for random
  // traffic. The reference here is an independent collision predicate.
  Rng rng(99);
  auto radio = make_radio();
  std::vector<RxEvent> events;
  for (int i = 0; i < 150; ++i) {
    Transmission tx = make_tx(static_cast<PacketId>(i + 1),
                              static_cast<int>(rng.uniform_int(0, 7)),
                              sf_from_index(static_cast<int>(
                                  rng.uniform_int(0, 5))),
                              Seconds{rng.uniform(0.0, 5.0)});
    events.push_back(RxEvent{tx, Dbm{rng.uniform(-95.0, -75.0)}});
  }
  const auto outcomes = radio.process(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (outcomes[i].disposition != RxDisposition::kDelivered) continue;
    // Brute force: no aligned interferer may beat the capture threshold.
    for (std::size_t j = 0; j < events.size(); ++j) {
      if (j == i) continue;
      if (!events[i].tx.overlaps_in_time(events[j].tx)) continue;
      if (overlap_ratio(events[j].tx.channel, events[i].tx.channel) <
          kDetectOverlapThreshold) {
        continue;
      }
      EXPECT_TRUE(survives_interference(
          events[i].tx.params.sf, events[i].rx_power,
          events[j].tx.params.sf, events[j].rx_power))
          << "delivered packet " << i << " should have collided with " << j;
    }
  }
}

TEST(GatewayRadio, AdjacentBucketInterfererIsScanned) {
  // The interferer scan buckets events by coarse frequency
  // (kChannelSpacing) and only walks the wanted packet's own bucket plus
  // its two neighbours. A misaligned interferer whose center falls in the
  // *adjacent* bucket but whose band still grazes the wanted channel must
  // be found there: its filter-truncated energy degrades SNR.
  Transmission wanted = make_tx(1, 0, SpreadingFactor::kSF8, Seconds{0.0});
  Transmission intf = make_tx(2, 0, SpreadingFactor::kSF8, Seconds{0.0}, 1);
  // +120 kHz crosses the 200 kHz bucket boundary (grid centers sit
  // mid-bucket, 100 kHz below it) while 5 kHz of band still overlaps.
  intf.channel.center += Hz{120e3};
  const auto bucket = [](Hz center) {
    return static_cast<std::int64_t>(center / kChannelSpacing);
  };
  ASSERT_NE(bucket(wanted.channel.center), bucket(intf.channel.center));
  ASSERT_GT(overlap_ratio(intf.channel, wanted.channel), 0.0);

  // Control: alone, the wanted packet is received.
  auto alone = make_radio();
  EXPECT_EQ(alone.process({RxEvent{wanted, Dbm{-100.0}}})[0].disposition,
            RxDisposition::kDelivered);

  // With the strong cross-bucket interferer, residual in-band energy
  // swamps the SNR. The interferer itself is front-end rejected — its RF
  // energy interferes anyway.
  auto radio = make_radio();
  const auto outcomes =
      radio.process({RxEvent{wanted, Dbm{-100.0}}, RxEvent{intf, Dbm{-30.0}}});
  EXPECT_EQ(outcomes[1].disposition, RxDisposition::kRejectedFrontEnd);
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDroppedLowSnr);
}

TEST(GatewayRadio, LookbackBoundaryInterfererEndingAtStartIsHarmless) {
  // The scan's lower_bound starts at exactly ev.start - lookback, where
  // lookback is the bucket's longest airtime. An interferer sitting
  // precisely on that boundary ends exactly at ev.start: it must be
  // scanned (lower_bound includes the equal key) yet cause nothing —
  // airtime intervals are half-open, touching is not overlapping.
  Transmission wanted = make_tx(1, 0, SpreadingFactor::kSF9, Seconds{10.0});
  Transmission intf = make_tx(2, 0, SpreadingFactor::kSF9, Seconds{0.0});
  const Seconds duration = intf.end() - intf.start;
  intf.start = wanted.start - duration;  // intf.end() == wanted.start
  {
    auto radio = make_radio();
    const auto outcomes =
        radio.process({RxEvent{wanted, Dbm{-90.0}}, RxEvent{intf, Dbm{-60.0}}});
    EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDelivered);
    EXPECT_EQ(outcomes[1].disposition, RxDisposition::kDelivered);
  }
  // One millisecond later the same interferer genuinely overlaps and its
  // 30 dB advantage destroys the wanted packet.
  intf.start = intf.start + Seconds{0.001};
  {
    auto radio = make_radio();
    const auto outcomes =
        radio.process({RxEvent{wanted, Dbm{-90.0}}, RxEvent{intf, Dbm{-60.0}}});
    EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDroppedCollision);
    EXPECT_EQ(outcomes[1].disposition, RxDisposition::kDelivered);
  }
}

TEST(GatewayRadio, ForwardScanStopsAtEventsStartingAtWantedEnd) {
  // Mirror boundary: the forward scan breaks at the first event whose
  // start reaches ev.end. An interferer starting exactly there shares no
  // airtime; one starting a millisecond earlier collides.
  Transmission wanted = make_tx(1, 0, SpreadingFactor::kSF9, Seconds{0.0});
  Transmission intf = make_tx(2, 0, SpreadingFactor::kSF9, wanted.end());
  {
    auto radio = make_radio();
    const auto outcomes =
        radio.process({RxEvent{wanted, Dbm{-90.0}}, RxEvent{intf, Dbm{-60.0}}});
    EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDelivered);
    EXPECT_EQ(outcomes[1].disposition, RxDisposition::kDelivered);
  }
  intf.start = wanted.end() - Seconds{0.001};
  {
    auto radio = make_radio();
    const auto outcomes =
        radio.process({RxEvent{wanted, Dbm{-90.0}}, RxEvent{intf, Dbm{-60.0}}});
    EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDroppedCollision);
    EXPECT_EQ(outcomes[1].disposition, RxDisposition::kDelivered);
  }
}

TEST(GatewayRadio, DecoderFreedAfterPacketEnd) {
  // Sequential (non-overlapping) packets never contend, regardless of
  // count.
  auto radio = make_radio();
  std::vector<RxEvent> events;
  Seconds t{0.0};
  for (int i = 0; i < 40; ++i) {
    Transmission tx = make_tx(static_cast<PacketId>(i + 1), i % 8,
                              SpreadingFactor::kSF7, t);
    t = tx.end() + Seconds{0.001};
    events.push_back(RxEvent{tx, Dbm{-80.0}});
  }
  const auto outcomes = radio.process(events);
  EXPECT_EQ(count(outcomes, RxDisposition::kDelivered), 40u);
}

TEST(GatewayRadio, MalformedViewThrows) {
  // A view that claims events but lacks one of its columns is a caller
  // bug: fail loudly instead of dereferencing null.
  WindowTxTable table;
  table.build({make_tx(1, 0, SpreadingFactor::kSF7, Seconds{0.0})});
  const std::uint32_t index = 0;
  const Dbm power{-80.0};
  auto radio = make_radio();
  std::vector<RxOutcome> outcomes;
  EXPECT_THROW(radio.process_into(RxEventView{nullptr, &index, &power, 1},
                                  outcomes),
               std::invalid_argument);
  EXPECT_THROW(radio.process_into(RxEventView{&table, nullptr, &power, 1},
                                  outcomes),
               std::invalid_argument);
  EXPECT_THROW(radio.process_into(RxEventView{&table, &index, nullptr, 1},
                                  outcomes),
               std::invalid_argument);
  // An empty view needs no columns; a complete one runs.
  radio.process_into(RxEventView{}, outcomes);
  EXPECT_TRUE(outcomes.empty());
  radio.process_into(RxEventView{&table, &index, &power, 1}, outcomes);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].disposition, RxDisposition::kDelivered);
}

}  // namespace
}  // namespace alphawan
