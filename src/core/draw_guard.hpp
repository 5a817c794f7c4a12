#ifndef SOPS_CORE_DRAW_GUARD_HPP
#define SOPS_CORE_DRAW_GUARD_HPP

/// \file draw_guard.hpp
/// Construction-time guard for 32-bit uniform particle selection.
///
/// Every chain runner draws particles with rng::Random::below(uint32), so a
/// system of 2³² or more particles would silently sample only a truncated
/// prefix.  The particle count is conserved by all move kinds, so checking
/// once at construction protects every subsequent step.  The sequential
/// engine (BiasedChainEngine) and the reference separation chain
/// (oracles/separation_chain.hpp) share this one helper so the guard
/// cannot be forgotten by the next scenario.

#include <cstdint>
#include <limits>

#include "util/assert.hpp"

namespace sops::core {

/// Validates that `count` particles are drawable with a 32-bit uniform and
/// returns the count as the draw bound.  Throws ContractViolation for zero
/// (below(0) is undefined) and for counts that would truncate.
[[nodiscard]] inline std::uint32_t checkedParticleDrawBound(std::size_t count) {
  SOPS_REQUIRE(count > 0, "chain requires at least one particle");
  SOPS_REQUIRE(count <= std::numeric_limits<std::uint32_t>::max(),
               "particle selection is 32-bit; system too large");
  return static_cast<std::uint32_t>(count);
}

}  // namespace sops::core

#endif  // SOPS_CORE_DRAW_GUARD_HPP
