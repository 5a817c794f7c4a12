#ifndef SOPS_RNG_RANDOM_HPP
#define SOPS_RNG_RANDOM_HPP

/// \file random.hpp
/// Simulation-facing randomness facade over xoshiro256++.
///
/// All stochastic components of the library (chain steps, Poisson clocks,
/// workload generators) draw through this class so that every experiment is
/// reproducible from a single seed and substreams can be forked without
/// correlation.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "rng/xoshiro.hpp"
#include "rng/ziggurat_tables.hpp"
#include "util/assert.hpp"
#include "util/mix.hpp"

namespace sops::rng {

/// Shared draw formulas, templated over any uniform-random-bit engine
/// producing 64-bit words.  `Random` delegates to these, and the SoA stream
/// banks (stream_bank.hpp) call them directly on a register-resident
/// engine — one definition, so the two paths cannot drift bit-wise.
/// The per-event draws (drawUniform, drawUniformPositive, drawBelow) are
/// always inlined: with only an `inline` hint, gcc left them out of line in
/// TUs that instantiate both the sequential engine and the sharded
/// runners, and the sequential chain step then paid a call per draw.

/// Uniform double in [0, 1) with 53 bits of precision.
template <typename Engine>
[[nodiscard, gnu::always_inline]] inline double drawUniform(
    Engine& engine) noexcept {
  return static_cast<double>(engine() >> 11) * 0x1.0p-53;
}

/// Uniform double in (0, 1]; safe as an argument to log().
template <typename Engine>
[[nodiscard, gnu::always_inline]] inline double drawUniformPositive(
    Engine& engine) noexcept {
  return (static_cast<double>(engine() >> 11) + 1.0) * 0x1.0p-53;
}

/// Exponential with the given rate (mean 1/rate) by inversion: one libm
/// log() per draw.  Behind Random::exponential (the event-queue scheduler
/// of amoebot/scheduler.cpp) and the per-particle clock bank of
/// stream_bank.hpp; the sharded runners draw their gaps with
/// drawStandardExponential instead.  Divides by rate (rather than
/// multiplying by a cached reciprocal) so the heterogeneous-rate draws
/// stay bit-identical to the historical `Random::exponential` results.
template <typename Engine>
[[nodiscard]] double drawExponential(Engine& engine,
                                     double rate = 1.0) noexcept {
  SOPS_DASSERT(rate > 0.0);
  return -std::log(drawUniformPositive(engine)) / rate;
}

namespace detail {

/// The ziggurat's rare branches, kept out of line so the fast path inlines
/// small: `layer` and `x` are the rejected first try.  The wedge of layer
/// i ≥ 1 accepts x under e^{-x} with one more uniform, else the draw
/// starts over; the base layer's overhang is the tail, r + Exp(1).
template <typename Engine>
[[gnu::noinline, gnu::cold]] double exponentialZigguratSlow(
    Engine& engine, std::size_t layer, double x) noexcept {
  for (;;) {
    if (layer == 0) {
      return kExponentialZigguratX[1] -
             std::log(drawUniformPositive(engine));
    }
    const double low = kExponentialZigguratF[layer];
    const double high = kExponentialZigguratF[layer + 1];
    if (low + drawUniform(engine) * (high - low) < std::exp(-x)) return x;
    const std::uint64_t u = engine();
    layer = u & (kZigguratLayers - 1);
    const std::uint64_t j = u >> 11;
    x = static_cast<double>(j) * kExponentialZigguratLayers[layer].w;
    if (j < kExponentialZigguratLayers[layer].k) return x;
  }
}

}  // namespace detail

/// Exp(1) by the 256-layer exponential ziggurat (rng/ziggurat_tables.hpp):
/// one 64-bit word gives the layer (low 8 bits) and a 53-bit abscissa
/// (high 53 bits), and 97.8 % of draws end at one integer compare and one
/// multiply, with no libm call.  The rest go to the wedge and tail
/// branches, which call exp() or log().  Scale by 1/rate for other rates.
template <typename Engine>
[[nodiscard, gnu::always_inline]] inline double drawStandardExponential(
    Engine& engine) noexcept {
  const std::uint64_t u = engine();
  const std::size_t layer = u & (kZigguratLayers - 1);
  const std::uint64_t j = u >> 11;
  const double x =
      static_cast<double>(j) * kExponentialZigguratLayers[layer].w;
  if (j < kExponentialZigguratLayers[layer].k) [[likely]] return x;
  return detail::exponentialZigguratSlow(engine, layer, x);
}

/// Uniform integer in [0, bound).  Uses Lemire's multiply-shift rejection
/// method: unbiased for every bound, one division only on rejection.
template <typename Engine>
[[nodiscard, gnu::always_inline]] inline std::uint32_t drawBelow(
    Engine& engine, std::uint32_t bound) noexcept {
  SOPS_DASSERT(bound > 0);
  std::uint64_t x = engine() >> 32;  // 32 uniform bits
  std::uint64_t m = x * bound;
  auto low = static_cast<std::uint32_t>(m);
  if (low < bound) {
    const std::uint32_t threshold = (0u - bound) % bound;
    while (low < threshold) {
      x = engine() >> 32;
      m = x * bound;
      low = static_cast<std::uint32_t>(m);
    }
  }
  return static_cast<std::uint32_t>(m >> 32);
}

class Random {
 public:
  explicit Random(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept
      : engine_(seed), seed_(seed) {}

  /// Adopts a captured engine state verbatim (no splitmix seeding pass).
  /// This is the cheap per-event materialization path used by
  /// `StreamBank::use`: the bank stores only the four state words per
  /// stream, and seed() reports the bank's master seed.
  Random(const std::array<std::uint64_t, 4>& engineState,
         std::uint64_t seed) noexcept
      : engine_(engineState), seed_(seed) {}

  /// Seed this generator was constructed with (for experiment logging).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Derives an independent generator for a named substream.  Forked
  /// streams are decorrelated by hashing (seed, streamId) and jumping.
  [[nodiscard]] Random fork(std::uint64_t streamId) const noexcept {
    std::uint64_t sm = seed_ ^ (0x9e3779b97f4a7c15ULL * (streamId + 1));
    Random child(splitmix64(sm));
    child.engine_.jump();
    return child;
  }

  /// Raw 64 uniform random bits.
  std::uint64_t bits() noexcept { return engine_(); }

  /// Uniform integer in [0, bound) via Lemire rejection (see drawBelow).
  std::uint32_t below(std::uint32_t bound) noexcept {
    return drawBelow(engine_, bound);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    SOPS_DASSERT(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint32_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept { return drawUniform(engine_); }

  /// Uniform double in (0, 1]; safe as an argument to log().
  double uniformPositive() noexcept { return drawUniformPositive(engine_); }

  /// Bernoulli(p) draw.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential with the given rate (mean 1/rate), by inversion (see
  /// drawExponential).
  double exponential(double rate = 1.0) noexcept {
    return drawExponential(engine_, rate);
  }

  /// Exp(1) by the ziggurat (see drawStandardExponential).
  double standardExponential() noexcept {
    return drawStandardExponential(engine_);
  }

  /// Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = below(static_cast<std::uint32_t>(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Exposes the underlying engine for std::distributions in tests.
  [[nodiscard]] Xoshiro256PlusPlus& engine() noexcept { return engine_; }
  [[nodiscard]] const Xoshiro256PlusPlus& engine() const noexcept {
    return engine_;
  }

  /// Rebuilds a generator from a snapshotted (seed, engine state) pair.
  /// The result continues the original draw stream exactly where the
  /// snapshot captured it; seed() keeps reporting the original seed.
  [[nodiscard]] static Random fromState(
      std::uint64_t seed,
      const std::array<std::uint64_t, 4>& engineState) noexcept {
    Random r(seed);
    r.engine_.setState(engineState);
    return r;
  }

 private:
  Xoshiro256PlusPlus engine_;
  std::uint64_t seed_;
};

/// Decorrelated per-particle stream `lane` (1-based) of `particle` under a
/// master seed: avalanche (seed, 2·particle + lane) through util::mix64
/// rather than fork()'s engine jump, whose ~256 state advances would
/// dominate construction at 10⁶ particles.  Every draw from the returned
/// generator is a pure function of (seed, particle, lane, draw index).
/// This seeds the SoA per-particle banks of stream_bank.hpp.
[[nodiscard]] inline Random particleStream(std::uint64_t seed,
                                           std::uint64_t particle,
                                           std::uint64_t lane) noexcept {
  return Random(
      util::mix64(seed ^ (0x9e3779b97f4a7c15ULL * (2 * particle + lane))));
}

/// The stream of one (epoch, key) pair under a master seed — all the
/// randomness of the sharded runners (core/stripe_epoch_executor.hpp): in
/// each epoch every active stripe draws its superposed clock (gaps, member
/// picks, thinning coins) from the stream keyed by its stripe index and
/// its interior events' coins from a second key, and the deferred sweep
/// draws from one more key.  (seed, epoch, key) is folded
/// through util::mix64 one word at a time, so every draw is a pure
/// function of (seed, epoch, key, draw index) and distinct pairs seed
/// decorrelated generators.  Creating one costs a few multiplies, so a
/// stripe makes its stream afresh each epoch instead of storing it.
[[nodiscard]] inline Random epochStream(std::uint64_t seed,
                                        std::uint64_t epoch,
                                        std::uint64_t key) noexcept {
  return Random(util::mix64(util::mix64(util::mix64(seed) ^ epoch) ^ key));
}

}  // namespace sops::rng

#endif  // SOPS_RNG_RANDOM_HPP
