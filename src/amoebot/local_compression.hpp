#ifndef SOPS_AMOEBOT_LOCAL_COMPRESSION_HPP
#define SOPS_AMOEBOT_LOCAL_COMPRESSION_HPP

/// \file local_compression.hpp
/// Algorithm A (paper §3.2): the fully local, distributed, asynchronous
/// translation of the Markov chain M, executed one particle activation at a
/// time.
///
/// A contracted activation (steps 1–7) picks a uniformly random private
/// port, expands into it if empty and no neighbor is expanded, and records
/// in the particle's single flag bit whether the whole (ℓ, ℓ')
/// neighborhood was free of expanded particles.  An expanded activation
/// (steps 8–13) re-evaluates the move with the N* oracle (heads of expanded
/// neighbors are ignored — such neighbors must contract back) and contracts
/// to the head iff (1) e ≠ 5, (2) Property 1 or 2 holds, (3) q < λ^{e'−e},
/// and (4) the flag is set; otherwise it contracts back.
///
/// Hot path.  The expanded-activation conditions (1)–(3) are pure
/// functions of the 8-bit N* ring mask, so construction folds
/// core::moveTable() and λ into a 256-entry decision table: one ring
/// gather (AmoebotSystem::nStarRingMask — two bit-plane loads per word),
/// one 16-byte table load, one uniform draw.  RNG draw order is
/// *bit-identical* to the frozen seed kernel in
/// oracles/reference_local_kernel.hpp (the uniform is drawn exactly when
/// e ≠ 5 and Property 1 or 2 holds, before the flag test short-circuits)
/// — tests/local_golden_test.cpp locks this down draw-for-draw under
/// every scheduler.
///
/// Byzantine particles (§3.3) expand whenever physically possible and
/// refuse to contract; crashed particles never act.

#include <cstdint>

#include "amoebot/amoebot_system.hpp"
#include "rng/random.hpp"

namespace sops::amoebot {

struct LocalOptions {
  double lambda = 4.0;
};

enum class ActivationResult : std::uint8_t {
  Idle,            ///< crashed, or contracted with no legal expansion
  Expanded,        ///< contracted particle expanded (movement pending)
  MovedToHead,     ///< expanded particle completed its move
  ContractedBack,  ///< expanded particle aborted its move
};

class LocalCompressionAlgorithm {
 public:
  explicit LocalCompressionAlgorithm(LocalOptions options);

  /// One atomic activation of particle `id` (the amoebot model's unit of
  /// computation).  Randomness is drawn from `rng` — conceptually the
  /// particle's private coin.
  ActivationResult activate(AmoebotSystem& sys, std::size_t id,
                            rng::Random& rng) const;

  [[nodiscard]] const LocalOptions& options() const noexcept {
    return options_;
  }

 private:
  /// Per-ring-mask fold of conditions (1)+(2) and the λ^{e'−e} threshold.
  struct Decision {
    double threshold = 0.0;  ///< λ^{e'−e} for this mask
    bool structOk = false;   ///< e ≠ 5 and Property 1 or 2 holds
  };

  LocalOptions options_;
  Decision decisions_[256];

  ActivationResult activateContracted(AmoebotSystem& sys, std::size_t id,
                                      rng::Random& rng) const;
  ActivationResult activateExpanded(AmoebotSystem& sys, std::size_t id,
                                    rng::Random& rng) const;
  ActivationResult activateByzantine(AmoebotSystem& sys, std::size_t id,
                                     rng::Random& rng) const;
};

}  // namespace sops::amoebot

#endif  // SOPS_AMOEBOT_LOCAL_COMPRESSION_HPP
