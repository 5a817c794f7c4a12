#ifndef SOPS_CORE_MODEL_CONTRACT_HPP
#define SOPS_CORE_MODEL_CONTRACT_HPP

/// \file model_contract.hpp
/// The compile-time contract between a chain weight model and its two
/// execution disciplines.
///
/// BiasedChainEngine<Model> (sequential) and ShardedChainRunner<Model>
/// (Poissonized multi-core) defer to the model for everything
/// scenario-specific: the extra weight factor of a movement move, the
/// auxiliary move kind, the interaction radius the stripe discipline
/// sizes its halo bands from, and the snapshot round-trip of the model's
/// evolving state.  Before this header the contract lived in a doc
/// comment and surfaced as template soup three instantiation levels deep
/// when a model drifted.  The C++20 concepts here turn that drift into a
/// one-line diagnostic naming the violated requirement:
///
///   ChainWeightModel<M>   the full contract both disciplines require —
///                         applied as a requires-clause on
///                         BiasedChainEngine, ShardedChainRunner and the
///                         registry scenario wrappers.
///   AuxMoveModel<M>       the auxiliary-move surface (swap, rotation,
///                         ...); required exactly when M::kHasAuxMove.
///
/// The load-bearing members are required outright:
///
///   kInteractionRadius    every model must declare how far one event
///                         reads/writes (in lattice columns) — the
///                         sharded runner's correctness depends on it,
///                         so "forgot to declare it" must not silently
///                         select a default.  Must be in [2, 32): a
///                         movement ring alone spans 2 columns, and a
///                         radius at or beyond the 64-column stripe
///                         width would leave no interior band at all.
///   serialize/deserialize the durable-run layer snapshots every model;
///                         serialize must be const (it runs on a live
///                         engine at a checkpoint) and also takes the
///                         system, since a model may keep its state in
///                         planes keyed by position; both take the
///                         snapshot stream by reference.
///
/// tests/compile_fail/ holds the negative half of the proof: deliberately
/// contract-violating models, compiled via try_compile, must be rejected
/// with the concept's name in the diagnostic.

#include <concepts>
#include <cstdint>
#include <type_traits>

#include "core/compression_chain.hpp"
#include "lattice/direction.hpp"
#include "lattice/tri_point.hpp"
#include "rng/random.hpp"
#include "system/particle_system.hpp"
#include "system/snapshot.hpp"

namespace sops::core {

/// Outcome of a scenario's auxiliary move (swap, rotation, ...).
enum class AuxOutcome : std::uint8_t {
  Skipped,   ///< proposal was structurally void (no partner, same color, ...)
  Rejected,  ///< reached the filter and failed the Metropolis draw
  Accepted,  ///< applied
};

/// The model's declared interaction radius: the largest column distance
/// (|Δx|) any read or write of one event spans from the activated
/// particle's cell.  A movement move alone needs 2 (the 8-cell ring); a
/// pair aux move whose partner sits one cell over and whose edge ring is
/// gathered around that partner needs 3.  The sharded chain runner sizes
/// its stripe halo bands from this.  ChainWeightModel requires the member
/// outright; the trait remains the single accessor both disciplines read.
template <typename Model>
struct ModelInteractionRadius
    : std::integral_constant<int, Model::kInteractionRadius> {};

/// Lower/upper bounds on a declarable interaction radius: the movement
/// ring spans 2 columns, and the stripe discipline needs an interior band
/// to exist within a 64-column stripe (radius columns of halo on each
/// side), so a radius at or beyond half a stripe is a contract error.
inline constexpr int kMinInteractionRadius = 2;
inline constexpr int kMaxInteractionRadius = 31;

/// The auxiliary-move surface of a model that mixes a second move kind
/// into the chain (color swap, orientation rotation, ...).  (particle,
/// draw6) are the engine's hoisted draws; further draws come lazily from
/// the per-event RNG.
template <typename Model>
concept AuxMoveModel =
    requires(Model& m, const Model& cm, system::ParticleSystem& sys,
             rng::Random& rng, std::size_t particle, int draw6) {
      { cm.auxEnabled() } -> std::convertible_to<bool>;
      { cm.auxProbability() } -> std::convertible_to<double>;
      { m.auxStep(sys, rng, particle, draw6) } -> std::same_as<AuxOutcome>;
    };

/// Everything both execution disciplines require of every model: the
/// compile-time switches (as genuine constant expressions — they drive
/// `if constexpr` in the shared event step), the movement-weight hook,
/// the attach/onMoved plane-sync hooks, and the snapshot round-trip.
template <typename Model>
concept ChainWeightModelBase =
    std::move_constructible<Model> &&
    requires(Model& m, const Model& cm, const system::ParticleSystem& sys,
             system::SnapshotWriter& w, system::SnapshotReader& r,
             std::size_t particle, TriPoint cell, Direction d,
             std::uint8_t ringOcc) {
      // Move-kind switches, usable in constant expressions.
      typename std::bool_constant<Model::kUniformWeight>;
      typename std::bool_constant<Model::kHasAuxMove>;
      // Declared event footprint for the stripe/halo discipline.
      { Model::kInteractionRadius } -> std::convertible_to<int>;
      requires int{Model::kInteractionRadius} >= kMinInteractionRadius;
      requires int{Model::kInteractionRadius} <= kMaxInteractionRadius;
      // Chain-level options (λ and the ablation switches).
      { cm.chainOptions() } -> std::convertible_to<ChainOptions>;
      // Validation + shadow-plane construction against the initial system.
      m.attach(sys);
      // Extra w-ratio of a movement move (beyond the table's λ^{e'−e}).
      { m.movementFactor(sys, particle, cell, d, ringOcc) } ->
          std::convertible_to<double>;
      // Post-move plane sync.
      m.onMoved(sys, particle, cell, cell);
      // Snapshot round-trip of the model's evolving state; serialize runs
      // on a const engine at a checkpoint.
      { cm.serialize(w, sys) } -> std::same_as<void>;
      { m.deserialize(r) } -> std::same_as<void>;
    };

/// The full contract: the base surface, and the auxiliary surface exactly
/// when the model declares an aux move.
template <typename Model>
concept ChainWeightModel =
    ChainWeightModelBase<Model> && (!Model::kHasAuxMove || AuxMoveModel<Model>);

}  // namespace sops::core

#endif  // SOPS_CORE_MODEL_CONTRACT_HPP
