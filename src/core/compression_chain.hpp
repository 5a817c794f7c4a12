#ifndef SOPS_CORE_COMPRESSION_CHAIN_HPP
#define SOPS_CORE_COMPRESSION_CHAIN_HPP

/// \file compression_chain.hpp
/// The rules of the paper's Markov chain M for compression (Algorithm M,
/// §3.1).
///
/// One iteration: choose a particle P at ℓ and a direction uniformly at
/// random; let ℓ' be the neighboring cell.  If ℓ' is unoccupied and
/// (1) e ≠ 5, (2) ℓ,ℓ' satisfy Property 1 or Property 2, and (3) a uniform
/// q < λ^{e'−e}, then P moves to ℓ'.  With λ > 2+√2 the stationary
/// distribution is α-compressed w.h.p. (Theorem 4.5); with λ < 2.17 it is
/// β-expanded (Theorem 5.7).
///
/// This header holds the rules only: the options, the per-ring-mask
/// decision fold, and the acceptance probability of the exact transition
/// matrix.  The chain itself runs as core::CompressionEngine
/// (BiasedChainEngine<CompressionModel>, core/scenario_models.hpp) —
/// sequentially — or on core::ShardedChainRunner under Poisson clocks.
/// The expand/contract mechanics of the amoebot model are atomic at this
/// level (§3.2 shows the decoupled local algorithm A is equivalent); the
/// faithful two-phase implementation lives in sops::amoebot.
///
/// ChainOptions carries ablation switches (used only by bench_ablation to
/// demonstrate why each rule exists — E13 in DESIGN.md); defaults implement
/// the paper's chain exactly.

#include <array>
#include <cstdint>
#include <type_traits>

#include "core/chain_stats.hpp"
#include "core/move_table.hpp"
#include "core/properties.hpp"

namespace sops::core {

struct ChainOptions {
  /// Bias parameter λ > 0.  λ > 1 favors neighbors (compression regime for
  /// λ > 2+√2); λ < 1 disfavors them.
  double lambda = 4.0;
  /// Condition (1) of step 6: forbid moves when e = 5 (prevents holes).
  bool enforceGapCondition = true;
  /// Condition (2): require Property 1 or Property 2 (keeps connectivity).
  bool enforceProperties = true;
  /// Fig 3 ablation: with Property 2 disallowed (P1 only), Ω* is no longer
  /// irreducible.  Only meaningful while enforceProperties is true.
  bool allowProperty2 = true;
  /// Zero-temperature baseline: replace the Metropolis filter with
  /// "accept iff e' ≥ e" (the λ→∞ limit).  Used by bench_ablation/baseline.
  bool greedy = false;
};

/// Probability with which M accepts a structurally valid move, per the
/// Metropolis filter (condition (3)).  Exposed so the exact
/// transition-matrix builder uses the identical kernel.
[[nodiscard]] double acceptanceProbability(
    const MoveEvaluation& eval, const ChainOptions& options) noexcept;

/// Fully resolved per-ring-mask decision, folding kMoveTable together with
/// a chain's ChainOptions and λ.  A movement step is then: occupancy test
/// for ℓ', ring-mask gather, one 16-byte load, and (only when the
/// Metropolis threshold is < 1) one lazy uniform draw — RNG draw order is
/// bit-identical to the branch-ladder reference kernel
/// (oracles/reference_kernel.hpp).
struct MoveDecision {
  double threshold;      ///< λ^{e'−e} (exact filter threshold)
  std::int8_t delta;     ///< e' − e
  /// StepOutcome of the structural rejection (RejectedGap /
  /// RejectedProperty), or kFilterStage when the move reaches the filter.
  std::uint8_t stage;
  /// Accept without drawing q: greedy ? e' ≥ e : threshold ≥ 1.
  bool acceptNoDraw;
};
inline constexpr std::uint8_t kDecisionFilterStage = 0xFF;
// "One 16-byte load" is a layout contract, not a figure of speech: the
// step's inner branch reads threshold/delta/stage/acceptNoDraw from one
// cache-resident row.  Pinning the size keeps a well-meaning field
// addition from silently doubling the table's cache footprint.
static_assert(std::is_trivially_copyable_v<MoveDecision> &&
              sizeof(MoveDecision) == 16);

/// The structural half of a decision — which rejection stage a mask stops
/// at, or kDecisionFilterStage if it reaches the Metropolis filter —
/// folded from a move-table entry and the ablation switches.  constexpr
/// and shared with buildDecisionTable, so the proofs below cover the very
/// fold the runtime table is built from.  (The numeric half — threshold =
/// λ^δ via lambdaPower — deliberately stays runtime: std::pow is not a
/// constant expression and must not be reimplemented even a ulp apart.)
[[nodiscard]] constexpr std::uint8_t decisionStage(
    const MoveTableEntry& entry, bool enforceGapCondition,
    bool enforceProperties, bool allowProperty2) noexcept {
  const bool propertyOk = !enforceProperties ||
                          (entry.flags & kMoveProperty1) != 0 ||
                          (allowProperty2 && (entry.flags & kMoveProperty2));
  if (enforceGapCondition && (entry.flags & kMoveGapOk) == 0) {
    return static_cast<std::uint8_t>(StepOutcome::RejectedGap);
  }
  if (!propertyOk) {
    return static_cast<std::uint8_t>(StepOutcome::RejectedProperty);
  }
  return kDecisionFilterStage;
}

// Stage-fold proofs over all 256 masks × the ablation lattice.  The
// paper's chain (all switches on) must route a mask to the filter exactly
// when the move table says it is structurally valid, blame e = 5 before
// blaming the properties (the StepOutcome histogram tests depend on that
// precedence), and each ablation switch must disable exactly its own
// rejection stage.
static_assert([] {
  constexpr auto kGap =
      static_cast<std::uint8_t>(StepOutcome::RejectedGap);
  constexpr auto kProp =
      static_cast<std::uint8_t>(StepOutcome::RejectedProperty);
  for (int m = 0; m < 256; ++m) {
    const MoveTableEntry& e = kMoveTable[static_cast<std::size_t>(m)];
    const bool p1 = (e.flags & kMoveProperty1) != 0;
    const bool p2 = (e.flags & kMoveProperty2) != 0;
    const bool gapOk = (e.flags & kMoveGapOk) != 0;
    // Paper defaults: filter iff kMoveStructOk, gap checked first.
    const std::uint8_t full = decisionStage(e, true, true, true);
    if ((full == kDecisionFilterStage) != ((e.flags & kMoveStructOk) != 0)) {
      return false;
    }
    if (!gapOk && full != kGap) return false;
    if (gapOk && !(p1 || p2) && full != kProp) return false;
    // Fig 3 ablation: disallowing Property 2 rejects the P2-only masks.
    const std::uint8_t noP2 = decisionStage(e, true, true, false);
    if (gapOk && (noP2 == kDecisionFilterStage) != p1) return false;
    // Dropping a condition must never introduce its rejection stage.
    if (decisionStage(e, false, true, true) == kGap) return false;
    if (decisionStage(e, true, false, true) == kProp) return false;
    // With both structural conditions off, everything reaches the filter.
    if (decisionStage(e, false, false, true) != kDecisionFilterStage) {
      return false;
    }
  }
  return true;
}(), "decision-stage fold must match the move table across the ablation "
     "switches");

/// Builds the 256-entry decision table for the given options — the single
/// fold shared by BiasedChainEngine and ShardedChainRunner, so the
/// ablation semantics cannot drift between the two execution disciplines.
[[nodiscard]] std::array<MoveDecision, 256> buildDecisionTable(
    const ChainOptions& options);

}  // namespace sops::core

#endif  // SOPS_CORE_COMPRESSION_CHAIN_HPP
