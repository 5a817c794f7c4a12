#ifndef SOPS_ORACLES_SEPARATION_CHAIN_HPP
#define SOPS_ORACLES_SEPARATION_CHAIN_HPP

/// \file separation_chain.hpp
/// Heterogeneous (two-color) extension of the compression chain, à la the
/// separation work the paper's conclusion points to ([9], Cannon, Daymude,
/// Gokmen, Randall, Richa 2018).
///
/// The Hamiltonian gains a homogeneity term: w(σ) = λ^{e(σ)} · γ^{hom(σ)},
/// where hom(σ) counts monochromatic induced edges.  The chain mixes two
/// reversible move kinds: the movement moves of M (with the same Property
/// 1/2 and gap conditions, so all connectivity/hole invariants carry over)
/// accepted with min(1, λ^{Δe}·γ^{Δhom}), and color swaps across a
/// heterogeneous edge accepted with min(1, γ^{Δhom}).  γ > 1 favors
/// segregation of colors; γ < 1 favors integration.  Exact details differ
/// from [9] (documented substitution; the qualitative phase behavior is
/// what bench_separation reproduces).
///
/// This class is the *reference* implementation: every neighbor-color
/// count goes through its own cell → id hash map, kept in step with its
/// own accepted moves and independent of the system's bitboard, and no
/// state beyond the color vector and that map is cached.  It lives in the
/// sops_oracles library, which only tests and benches link.  The
/// production path is the identical kernel on the bitboard engine —
/// core::SeparationEngine (core/scenario_models.hpp), draw-for-draw equal
/// to this chain by tests/biased_engine_test.cpp and ≥3× faster
/// (BENCH_perf.json).

#include <cstdint>
#include <vector>

#include "core/compression_chain.hpp"
#include "rng/random.hpp"
#include "system/particle_system.hpp"
#include "util/flat_hash.hpp"

namespace sops::extensions {

struct SeparationOptions {
  double lambda = 4.0;  ///< compression bias (edges)
  double gamma = 4.0;   ///< homogeneity bias (monochromatic edges)
  bool enableSwaps = true;
};

enum class SeparationMoveKind : std::uint8_t { Movement, Swap };

/// The movement-move Metropolis threshold λ^{Δe}·γ^{Δhom}, computed from
/// the shared core::lambdaPower so it cannot drift from the compression
/// chain's per-mask decision table (at γ = 1 it *is* the chain's threshold,
/// pinned by Separation.MovementThresholdMatchesChainMAtGammaOne).
[[nodiscard]] double separationMovementThreshold(
    const SeparationOptions& options, int edgeDelta, int homDelta);

/// The swap-move threshold γ^{Δhom}, same single-source λ^δ helper.
[[nodiscard]] double separationSwapThreshold(const SeparationOptions& options,
                                             int homDelta);

struct SeparationStats {
  std::uint64_t steps = 0;
  std::uint64_t movesAccepted = 0;
  std::uint64_t swapsAccepted = 0;
};

class SeparationChain {
 public:
  /// colors[i] ∈ {0, 1} for particle i of `initial` (must be connected).
  SeparationChain(system::ParticleSystem initial,
                  std::vector<std::uint8_t> colors, SeparationOptions options,
                  std::uint64_t seed);

  /// One step: a fair coin picks movement vs swap (when swaps enabled).
  void step();
  void run(std::uint64_t iterations);

  [[nodiscard]] const system::ParticleSystem& system() const noexcept {
    return system_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& colors() const noexcept {
    return colors_;
  }
  [[nodiscard]] const SeparationStats& stats() const noexcept { return stats_; }

  /// Number of monochromatic induced edges hom(σ) (exact recount).
  [[nodiscard]] std::int64_t homogeneousEdges() const;

  /// Number of particles of color 1 (conserved; asserted in tests).
  [[nodiscard]] std::size_t colorOneCount() const;

 private:
  void movementStep();
  void swapStep();

  /// Same-color neighbor count of `cell` for color `c`, excluding `exclude`.
  [[nodiscard]] int sameColorNeighbors(lattice::TriPoint cell, std::uint8_t c,
                                       lattice::TriPoint exclude) const;

  /// Id of the particle at `cell`, or nullptr when the cell is empty.
  [[nodiscard]] const std::uint32_t* idAt(lattice::TriPoint cell) const {
    return ids_.find(lattice::pack(cell));
  }

  system::ParticleSystem system_;
  util::FlatMap64<std::uint32_t> ids_;  ///< cell → particle id
  std::vector<std::uint8_t> colors_;
  SeparationOptions options_;
  rng::Random rng_;
  SeparationStats stats_;
  std::uint32_t particleCount32_ = 0;
};

}  // namespace sops::extensions

#endif  // SOPS_ORACLES_SEPARATION_CHAIN_HPP
