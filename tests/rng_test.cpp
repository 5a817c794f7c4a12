// Tests for the deterministic RNG substrate (S2).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "rng/random.hpp"
#include "rng/stream_bank.hpp"
#include "rng/xoshiro.hpp"
#include "rng/ziggurat_tables.hpp"
#include "util/assert.hpp"

namespace sops::rng {
namespace {

TEST(Xoshiro, DeterministicFromSeed) {
  Xoshiro256PlusPlus a(7);
  Xoshiro256PlusPlus b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256PlusPlus a(7);
  Xoshiro256PlusPlus b(8);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Xoshiro, JumpDecorrelates) {
  Xoshiro256PlusPlus a(7);
  Xoshiro256PlusPlus b(7);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Random, BelowIsInRange) {
  Random rng(1);
  for (std::uint32_t bound : {1u, 2u, 3u, 6u, 7u, 100u, 12345u}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Random, BelowIsApproximatelyUniform) {
  // Chi-square test over 6 buckets (the chain's direction draw).
  Random rng(42);
  std::array<int, 6> counts{};
  const int samples = 600000;
  for (int i = 0; i < samples; ++i) ++counts[rng.below(6)];
  const double expected = samples / 6.0;
  double chi2 = 0.0;
  for (const int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  // 5 degrees of freedom: P(chi2 > 20.5) < 0.001.
  EXPECT_LT(chi2, 20.5);
}

TEST(Random, BetweenIsInclusive) {
  Random rng(3);
  bool sawLo = false;
  bool sawHi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    sawLo |= v == -2;
    sawHi |= v == 2;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Random, UniformIsInUnitInterval) {
  Random rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Random, UniformMeanIsHalf) {
  Random rng(5);
  double sum = 0.0;
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / samples, 0.5, 0.005);
}

TEST(Random, ExponentialHasRequestedMean) {
  Random rng(6);
  for (const double rate : {0.5, 1.0, 4.0}) {
    double sum = 0.0;
    const int samples = 200000;
    for (int i = 0; i < samples; ++i) sum += rng.exponential(rate);
    EXPECT_NEAR(sum / samples, 1.0 / rate, 0.02 / rate);
  }
}

TEST(Random, ExponentialIsPositive) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(rng.exponential(1.0), 0.0);
  }
}

TEST(Random, BernoulliFrequency) {
  Random rng(8);
  int hits = 0;
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / samples, 0.3, 0.005);
}

TEST(Random, ForkedStreamsAreIndependent) {
  Random base(77);
  Random a = base.fork(1);
  Random b = base.fork(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.bits() == b.bits()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Random, ForkIsDeterministic) {
  Random base(77);
  Random a = base.fork(9);
  Random b = Random(77).fork(9);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.bits(), b.bits());
  }
}

TEST(Random, ShufflePreservesElements) {
  Random rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Random, ShuffleIsNotIdentityUsually) {
  Random rng(12);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);
}

// --- Exponential ziggurat ------------------------------------------------
// rng::drawStandardExponential replaces -log(u) in the stripe clocks, so
// its law is pinned here: the draws against Exp(1), each rare branch
// reached and right, and the hex-float tables against the recurrence.

/// An engine that counts the 64-bit words drawn from it: a fast-path draw
/// takes one word, a wedge or tail draw more.
struct CountingEngine {
  using result_type = std::uint64_t;
  Xoshiro256PlusPlus engine;
  std::uint64_t words = 0;
  result_type operator()() noexcept {
    ++words;
    return engine();
  }
};

TEST(Ziggurat, StandardExponentialPassesKolmogorovSmirnov) {
  // Pre-registered: 10^6 draws, fail when √n·D exceeds 1.95, the
  // asymptotic Kolmogorov critical value at α = 0.001.
  Random rng(2024);
  constexpr std::size_t kDraws = 1000000;
  std::vector<double> draws(kDraws);
  for (double& x : draws) x = rng.standardExponential();
  std::sort(draws.begin(), draws.end());
  EXPECT_GE(draws.front(), 0.0);
  double d = 0.0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double cdf = -std::expm1(-draws[i]);
    d = std::max({d, static_cast<double>(i + 1) / kDraws - cdf,
                  cdf - static_cast<double>(i) / kDraws});
  }
  EXPECT_LT(std::sqrt(static_cast<double>(kDraws)) * d, 1.95);
}

TEST(Ziggurat, TailAndWedgeBranchesAreReached) {
  // Only the tail returns x ≥ r, and a draw below r that took more than
  // one word went through a wedge.  Given X > r, X − r is Exp(1), so the
  // tail's mean is r + 1 with standard error 1/√tail; the share of
  // one-word draws is Σ k_i / 2^61.  Both bounds are 5 standard errors,
  // fixed in advance.
  CountingEngine engine{Xoshiro256PlusPlus(77), 0};
  const double r = kExponentialZigguratX[1];
  constexpr int kDraws = 4000000;
  std::uint64_t fast = 0;
  std::uint64_t wedge = 0;
  std::uint64_t tail = 0;
  double tailSum = 0.0;
  for (int k = 0; k < kDraws; ++k) {
    const std::uint64_t before = engine.words;
    const double x = drawStandardExponential(engine);
    const std::uint64_t words = engine.words - before;
    if (x >= r) {
      ++tail;
      tailSum += x;
    } else if (words > 1) {
      ++wedge;
    } else {
      ++fast;
    }
  }
  EXPECT_GT(wedge, 0u);
  ASSERT_GT(tail, 0u);
  EXPECT_NEAR(tailSum / static_cast<double>(tail), r + 1.0,
              5.0 / std::sqrt(static_cast<double>(tail)));

  double fastShare = 0.0;
  for (const ZigguratLayer& layer : kExponentialZigguratLayers) {
    fastShare += static_cast<double>(layer.k) * 0x1.0p-61;
  }
  EXPECT_NEAR(fastShare, 0.978, 0.001);
  const double observed = static_cast<double>(fast) / kDraws;
  EXPECT_NEAR(observed, fastShare,
              5.0 * std::sqrt(fastShare * (1.0 - fastShare) / kDraws));
}

/// Distance in units in the last place between two finite doubles of the
/// same sign.
std::uint64_t ulpDistance(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return static_cast<std::uint64_t>(ia > ib ? ia - ib : ib - ia);
}

TEST(Ziggurat, TablesMatchTheRecurrence) {
  // Recomputes x_0 … x_256 from x_1 = r, v = (r + 1)e^{-r} and
  // x_{i+1} = −log(e^{-x_i} + v / x_i) in extended precision.
  if (std::numeric_limits<long double>::digits < 64) {
    GTEST_SKIP() << "needs a 64-bit long double mantissa";
  }
  const long double r = 7.697117470131049714044628048L;
  const long double v = (r + 1.0L) * std::exp(-r);
  std::array<long double, kZigguratLayers + 1> x{};
  x[0] = v * std::exp(r);
  x[1] = r;
  for (std::size_t i = 1; i + 1 < kZigguratLayers; ++i) {
    x[i + 1] = -std::log(std::exp(-x[i]) + v / x[i]);
  }
  // r is the root at which the recurrence closes at 0.
  const long double last = kZigguratLayers - 1;
  EXPECT_LT(std::fabs(std::log(std::exp(-x[last]) + v / x[last])), 1e-12L);
  x[kZigguratLayers] = 0.0L;

  for (std::size_t i = 0; i <= kZigguratLayers; ++i) {
    EXPECT_LE(ulpDistance(kExponentialZigguratX[i],
                          static_cast<double>(x[i])),
              2u)
        << "x_" << i;
    EXPECT_LE(ulpDistance(kExponentialZigguratF[i],
                          static_cast<double>(std::exp(-x[i]))),
              2u)
        << "f_" << i;
  }
  // k_i = ⌊2^53·x_{i+1}/x_i⌋ on the doubles of the table, checked
  // exactly: k·x_i ≤ 2^53·x_{i+1} < (k + 1)·x_i, each side's sign from
  // one fused multiply-add (k + 1 ≤ 2^53 and 2^53·x are exact doubles).
  for (std::size_t i = 0; i < kZigguratLayers; ++i) {
    const double k = static_cast<double>(kExponentialZigguratLayers[i].k);
    const double scaled = 0x1.0p53 * kExponentialZigguratX[i + 1];
    EXPECT_LE(std::fma(k, kExponentialZigguratX[i], -scaled), 0.0)
        << "k_" << i;
    EXPECT_GT(std::fma(k + 1.0, kExponentialZigguratX[i], -scaled), 0.0)
        << "k_" << i;
    // Within 2 of the bound on the real-valued x, from which the doubles
    // are rounded.
    const long double exact = std::floor(x[i + 1] / x[i] * 0x1.0p53L);
    EXPECT_LE(std::fabs(exact - static_cast<long double>(k)), 2.0L)
        << "k_" << i;
    EXPECT_EQ(kExponentialZigguratLayers[i].w,
              kExponentialZigguratX[i] * 0x1.0p-53)
        << "w_" << i;
  }
}

// --- SoA stream banks --------------------------------------------------
// The banks must be bit-equivalent to the AoS discipline they replaced:
// a StreamBank stream is particleStream(seed, i, lane) draw-for-draw, and
// PoissonClockBank::fillEpoch emits exactly the waiting times the old
// per-event loop drew.  This is what lets the sharded runners keep every
// pre-existing golden trajectory after the SoA/batched rewrite.

TEST(StreamBank, MatchesParticleStreamDrawForDraw) {
  constexpr std::uint64_t kSeed = 4242;
  constexpr std::uint64_t kLane = 2;
  constexpr std::size_t kCount = 17;
  StreamBank bank(kSeed, kCount, kLane);
  std::vector<Random> reference;
  for (std::size_t i = 0; i < kCount; ++i) {
    reference.push_back(particleStream(kSeed, i, kLane));
  }
  // Interleaved access across many short Use sessions: the store/reload
  // round-trip through the packed state must be lossless.
  Random order(5);
  for (int round = 0; round < 500; ++round) {
    const std::size_t i = order.below(static_cast<std::uint32_t>(kCount));
    StreamBank::Use use = bank.use(i);
    switch (order.below(4)) {
      case 0:
        ASSERT_EQ(use.rng().bits(), reference[i].bits());
        break;
      case 1:
        ASSERT_EQ(use.rng().uniform(), reference[i].uniform());
        break;
      case 2:
        ASSERT_EQ(use.rng().below(1000), reference[i].below(1000));
        break;
      default:
        ASSERT_EQ(use.rng().exponential(1.5), reference[i].exponential(1.5));
        break;
    }
  }
}

TEST(PoissonClockBank, FillEpochMatchesPerEventLoop) {
  constexpr std::uint64_t kSeed = 99;
  constexpr std::uint64_t kLane = 1;
  constexpr std::size_t kCount = 9;
  const std::vector<double> rates{0.25, 1.0, 1.0, 3.5, 2.0,
                                  1.0,  0.5, 4.0, 1.0};
  PoissonClockBank bank(kSeed, kCount, kLane, rates);
  EXPECT_DOUBLE_EQ(bank.totalRate(), 14.25);

  // Reference: the old AoS loop — one Random per particle, first firing
  // drawn at construction, then one scattered exponential per event.
  std::vector<Random> streams;
  std::vector<double> next;
  for (std::size_t i = 0; i < kCount; ++i) {
    streams.push_back(particleStream(kSeed, i, kLane));
    next.push_back(streams.back().exponential(rates[i]));
    ASSERT_EQ(bank.nextTime(i), next.back()) << "initial draw, particle " << i;
  }

  PoissonClockBank::EpochDraws draws;
  double now = 0.0;
  const double epochLength = 48.0 / bank.totalRate();
  for (int epoch = 0; epoch < 50; ++epoch) {
    const double epochEnd = now + epochLength;
    bank.fillEpoch(epochEnd, draws);
    for (std::size_t i = 0; i < kCount; ++i) {
      std::uint64_t k = draws.offsets[i];
      while (next[i] < epochEnd) {
        ASSERT_LT(k, draws.offsets[i + 1]);
        ASSERT_EQ(draws.times[k], next[i]) << "epoch " << epoch;
        ++k;
        next[i] += streams[i].exponential(rates[i]);
      }
      ASSERT_EQ(k, draws.offsets[i + 1]) << "extra draws, particle " << i;
      ASSERT_EQ(bank.nextTime(i), next[i]);
    }
    now = epochEnd;
  }
}

TEST(PoissonClockBank, UniformDefaultEqualsExplicitOnes) {
  PoissonClockBank a(7, 5, 1);
  PoissonClockBank b(7, 5, 1, std::vector<double>(5, 1.0));
  EXPECT_EQ(a.totalRate(), b.totalRate());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a.nextTime(i), b.nextTime(i));
    EXPECT_EQ(a.state(i), b.state(i));
  }
}

TEST(PoissonClockBank, RejectsBadRates) {
  EXPECT_THROW(PoissonClockBank(1, 3, 1, {1.0, 0.0, 1.0}),
               sops::ContractViolation);
  EXPECT_THROW(PoissonClockBank(1, 3, 1, {1.0, -2.0, 1.0}),
               sops::ContractViolation);
  EXPECT_THROW(PoissonClockBank(1, 3, 1, {1.0, 1.0}),
               sops::ContractViolation);
}

}  // namespace
}  // namespace sops::rng
