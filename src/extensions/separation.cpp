#include "extensions/separation.hpp"

#include "core/draw_guard.hpp"
#include "core/move_table.hpp"
#include "core/properties.hpp"
#include "lattice/direction.hpp"
#include "system/metrics.hpp"

namespace sops::extensions {

namespace {
using lattice::Direction;
using lattice::kAllDirections;
using lattice::neighbor;
using lattice::TriPoint;
}  // namespace

double separationMovementThreshold(const SeparationOptions& options,
                                   int edgeDelta, int homDelta) {
  return core::lambdaPower(options.lambda, edgeDelta) *
         core::lambdaPower(options.gamma, homDelta);
}

double separationSwapThreshold(const SeparationOptions& options, int homDelta) {
  return core::lambdaPower(options.gamma, homDelta);
}

SeparationChain::SeparationChain(system::ParticleSystem initial,
                                 std::vector<std::uint8_t> colors,
                                 SeparationOptions options, std::uint64_t seed)
    : system_(std::move(initial)),
      ids_(system_.size()),
      colors_(std::move(colors)),
      options_(options),
      rng_(seed) {
  SOPS_REQUIRE(options_.lambda > 0.0 && options_.gamma > 0.0,
               "biases must be positive");
  SOPS_REQUIRE(colors_.size() == system_.size(), "one color per particle");
  for (const std::uint8_t c : colors_) {
    SOPS_REQUIRE(c <= 1, "colors are 0 or 1");
  }
  // Both step kinds draw the particle with a 32-bit uniform; the count is
  // conserved, so the construction-time guard covers every step.
  particleCount32_ = core::checkedParticleDrawBound(system_.size());
  SOPS_REQUIRE(system::isConnected(system_), "must start connected");
  for (std::size_t i = 0; i < system_.size(); ++i) {
    ids_.insert(lattice::pack(system_.position(i)),
                static_cast<std::uint32_t>(i));
  }
}

int SeparationChain::sameColorNeighbors(TriPoint cell, std::uint8_t c,
                                        TriPoint exclude) const {
  int count = 0;
  for (const Direction d : kAllDirections) {
    const TriPoint q = neighbor(cell, d);
    if (q == exclude) continue;
    const std::uint32_t* id = idAt(q);
    if (id != nullptr && colors_[*id] == c) ++count;
  }
  return count;
}

void SeparationChain::movementStep() {
  const auto particle = static_cast<std::size_t>(rng_.below(particleCount32_));
  const Direction d =
      lattice::directionFromIndex(static_cast<int>(rng_.below(6)));
  const TriPoint l = system_.position(particle);
  const core::MoveEvaluation eval = core::evaluateMove(system_, l, d);
  if (eval.targetOccupied || !eval.gapOk || !eval.propertyOk) return;

  const TriPoint target = neighbor(l, d);
  const std::uint8_t myColor = colors_[particle];
  const int homBefore = sameColorNeighbors(l, myColor, target);
  const int homAfter = sameColorNeighbors(target, myColor, l);
  const double threshold = separationMovementThreshold(
      options_, eval.eAfter - eval.eBefore, homAfter - homBefore);
  if (threshold >= 1.0 || rng_.uniform() < threshold) {
    system_.moveParticle(particle, target);
    ids_.erase(lattice::pack(l));
    ids_.insert(lattice::pack(target), static_cast<std::uint32_t>(particle));
    ++stats_.movesAccepted;
  }
}

void SeparationChain::swapStep() {
  const auto particle = static_cast<std::size_t>(rng_.below(particleCount32_));
  const Direction d =
      lattice::directionFromIndex(static_cast<int>(rng_.below(6)));
  const TriPoint p = system_.position(particle);
  const TriPoint q = neighbor(p, d);
  const std::uint32_t* found = idAt(q);
  if (found == nullptr) return;
  const std::uint32_t other = *found;
  const std::uint8_t colorP = colors_[particle];
  const std::uint8_t colorQ = colors_[other];
  if (colorP == colorQ) return;

  // Δhom from exchanging the two colors; the p—q edge stays heterochromatic.
  const int before =
      sameColorNeighbors(p, colorP, q) + sameColorNeighbors(q, colorQ, p);
  const int after =
      sameColorNeighbors(p, colorQ, q) + sameColorNeighbors(q, colorP, p);
  const double threshold = separationSwapThreshold(options_, after - before);
  if (threshold >= 1.0 || rng_.uniform() < threshold) {
    colors_[particle] = colorQ;
    colors_[other] = colorP;
    ++stats_.swapsAccepted;
  }
}

void SeparationChain::step() {
  ++stats_.steps;
  if (options_.enableSwaps && rng_.bernoulli(0.5)) {
    swapStep();
  } else {
    movementStep();
  }
}

void SeparationChain::run(std::uint64_t iterations) {
  for (std::uint64_t i = 0; i < iterations; ++i) step();
}

std::int64_t SeparationChain::homogeneousEdges() const {
  constexpr Direction kPositive[3] = {Direction::East, Direction::NorthEast,
                                      Direction::SouthEast};
  std::int64_t hom = 0;
  for (std::size_t id = 0; id < system_.size(); ++id) {
    const TriPoint p = system_.position(id);
    for (const Direction d : kPositive) {
      const std::uint32_t* other = idAt(neighbor(p, d));
      if (other != nullptr && colors_[*other] == colors_[id]) ++hom;
    }
  }
  return hom;
}

std::size_t SeparationChain::colorOneCount() const {
  std::size_t count = 0;
  for (const std::uint8_t c : colors_) count += c;
  return count;
}

}  // namespace sops::extensions
