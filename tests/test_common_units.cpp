#include "common/units.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/types.hpp"
#include "phy/capture.hpp"

namespace alphawan {
namespace {

// ---- zero-overhead guarantees -------------------------------------------

static_assert(sizeof(Hz) == sizeof(double));
static_assert(sizeof(Dbm) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Seconds>);
static_assert(std::is_trivially_copyable_v<Dbm>);

// ---- construction and literals ------------------------------------------

TEST(Units, LiteralsMatchExplicitConstruction) {
  // Scaled literals compare against the identical scaling expression so
  // the test is immune to last-ulp differences vs. a hand-typed constant.
  EXPECT_EQ(868.1_MHz, Hz{868.1 * 1e6});
  EXPECT_EQ(125_kHz, Hz{125.0 * 1e3});
  EXPECT_EQ(500_Hz, Hz{500.0});
  EXPECT_EQ(-120.0_dBm, Dbm{-120.0});
  EXPECT_EQ(6_dB, Db{6.0});
  EXPECT_EQ(50.0_ms, Seconds{50.0 * 1e-3});
  EXPECT_EQ(2_s, Seconds{2.0});
  EXPECT_EQ(1.5_km, Meters{1.5 * 1e3});
  EXPECT_EQ(75_m, Meters{75.0});
}

TEST(Units, DefaultConstructionIsZero) {
  EXPECT_DOUBLE_EQ(Hz{}.value(), 0.0);
  EXPECT_DOUBLE_EQ(Dbm{}.value(), 0.0);
  EXPECT_DOUBLE_EQ(Seconds{}.value(), 0.0);
}

TEST(Units, ValueRoundTrips) {
  constexpr double raw = -117.25;
  constexpr Dbm p{raw};
  static_assert(p.value() == raw);
  EXPECT_DOUBLE_EQ(Dbm{p.value()}.value(), raw);
}

// ---- linear-unit arithmetic identities ----------------------------------

TEST(Units, LinearAdditionAndSubtraction) {
  constexpr Hz a{125e3};
  constexpr Hz b{200e3};
  static_assert((a + b).value() == 325e3);
  static_assert((b - a).value() == 75e3);
  static_assert(a + b == b + a);               // commutative
  static_assert((a + b) - b == a);             // inverse
  static_assert(a + Hz{0.0} == a);             // identity
}

TEST(Units, ScalarScaling) {
  constexpr Seconds t{0.25};
  static_assert((t * 4.0).value() == 1.0);
  static_assert((4.0 * t).value() == 1.0);     // both orders
  static_assert((t / 0.5).value() == 0.5);
  static_assert((t * 2.0) / 2.0 == t);         // inverse
}

TEST(Units, SameUnitRatioIsDimensionless) {
  constexpr Hz width{4.8e6};
  constexpr double channels = width / kChannelSpacing;
  static_assert(channels == 24.0);
  EXPECT_DOUBLE_EQ(Meters{1500.0} / Meters{300.0}, 5.0);
}

TEST(Units, CompoundAssignment) {
  Seconds now{1.0};
  now += Seconds{0.5};
  EXPECT_EQ(now, Seconds{1.5});
  now -= Seconds{1.0};
  EXPECT_EQ(now, Seconds{0.5});
  now *= 4.0;
  EXPECT_EQ(now, Seconds{2.0});
  now /= 2.0;
  EXPECT_EQ(now, Seconds{1.0});
}

TEST(Units, UnaryMinusAndAbs) {
  constexpr Db margin{-3.5};
  static_assert((-margin).value() == 3.5);
  static_assert(abs(margin) == Db{3.5});
  static_assert(abs(Db{3.5}) == Db{3.5});
  static_assert(abs(Db{0.0}) == Db{0.0});
}

// ---- log-domain power algebra -------------------------------------------

TEST(Units, DbmOffsetByDb) {
  constexpr Dbm tx{14.0};
  constexpr Db path_loss{120.0};
  constexpr Dbm rx = tx - path_loss;
  static_assert(rx.value() == -106.0);
  static_assert(rx + path_loss == tx);         // round trip
  static_assert(Db{3.0} + tx == tx + Db{3.0}); // both orders
}

TEST(Units, DbmDifferenceIsDb) {
  constexpr Dbm signal{-100.0};
  constexpr Dbm noise{-117.0};
  constexpr Db snr = signal - noise;
  static_assert(snr.value() == 17.0);
  static_assert(noise + snr == signal);        // round trip
}

TEST(Units, DbmCompoundAssignment) {
  Dbm p{-80.0};
  p += Db{6.0};
  EXPECT_EQ(p, Dbm{-74.0});
  p -= Db{6.0};
  EXPECT_EQ(p, Dbm{-80.0});
}

// ---- combine_powers_dbm round trips -------------------------------------

TEST(Units, CombinePowersEqualInputsAddThreeDb) {
  const Dbm sum = combine_powers_dbm(Dbm{-90.0}, Dbm{-90.0});
  EXPECT_NEAR(sum.value(), -90.0 + 10.0 * std::log10(2.0), 1e-9);
}

TEST(Units, CombinePowersIsCommutative) {
  const Dbm ab = combine_powers_dbm(Dbm{-85.0}, Dbm{-97.0});
  const Dbm ba = combine_powers_dbm(Dbm{-97.0}, Dbm{-85.0});
  EXPECT_DOUBLE_EQ(ab.value(), ba.value());
}

TEST(Units, CombinePowersDominatedByStronger) {
  // A 40 dB weaker interferer barely moves the total.
  const Dbm sum = combine_powers_dbm(Dbm{-80.0}, Dbm{-120.0});
  EXPECT_GT(sum, Dbm{-80.0});
  EXPECT_LT(sum - Dbm{-80.0}, Db{0.01});
}

TEST(Units, CombinePowersRoundTripThroughLinearDomain) {
  const Dbm a{-92.3};
  const Dbm b{-95.7};
  const double linear =
      std::pow(10.0, a.value() / 10.0) + std::pow(10.0, b.value() / 10.0);
  const Dbm expected{10.0 * std::log10(linear)};
  EXPECT_NEAR(combine_powers_dbm(a, b).value(), expected.value(), 1e-12);
}

// ---- comparisons ---------------------------------------------------------

TEST(Units, ComparisonsAreOrderedWithinAUnit) {
  static_assert(Dbm{-120.0} < Dbm{-80.0});
  static_assert(Hz{125e3} < Hz{250e3});
  static_assert(Seconds{1.0} >= Seconds{1.0});
  static_assert(Db{3.0} != Db{6.0});
  EXPECT_LT(Meters{10.0}, Meters{20.0});
  EXPECT_GE(Dbm{-80.0}, Dbm{-80.0});
}

TEST(Units, StreamInsertionPrintsRawValue) {
  std::ostringstream os;
  os << Dbm{-117.5} << " " << Hz{868.1e6};
  EXPECT_EQ(os.str(), "-117.5 8.681e+08");
}

// ---- noise floor keyed off the named bandwidth constants ----------------

TEST(Units, NoiseFloorIsConstexprForNamedBandwidths) {
  constexpr Dbm nf125 = noise_floor_dbm(kLoRaBandwidth125k);
  constexpr Dbm nf250 = noise_floor_dbm(kLoRaBandwidth250k);
  constexpr Dbm nf500 = noise_floor_dbm(kLoRaBandwidth500k);
  static_assert(nf125 < nf250 && nf250 < nf500);  // wider band, more noise
  EXPECT_NEAR(nf125.value(), -117.03, 1e-6);
  // Doubling the bandwidth raises the floor by ~3 dB.
  EXPECT_NEAR((nf250 - nf125).value(), 3.01, 1e-6);
  EXPECT_NEAR((nf500 - nf250).value(), 3.01, 1e-6);
}

// ---- 32-bit index columns ----------------------------------------------

// The 32-bit index columns reserve all-ones as their sentinel, so the
// largest index they accept is one below it.
TEST(Index32, NarrowingThrowsAtTheSentinel) {
  EXPECT_EQ(to_index32(0), 0u);
  EXPECT_EQ(to_index32(0xFFFFFFFEULL), 0xFFFFFFFEu);
  EXPECT_THROW((void)to_index32(0xFFFFFFFFULL), std::length_error);
  EXPECT_THROW((void)to_index32(0x100000000ULL), std::length_error);
}

}  // namespace
}  // namespace alphawan
