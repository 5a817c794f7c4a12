#include "core/move_planner.hpp"

#include <algorithm>
#include <deque>
#include <string>
#include <unordered_map>

#include "lattice/direction.hpp"
#include "system/canonical.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"

namespace sops::core {

namespace {

using lattice::Direction;
using lattice::kAllDirections;
using lattice::neighbor;
using lattice::TriPoint;
using system::ParticleSystem;

/// Structural validity: positive acceptance probability for any λ > 0.
bool moveValid(const MoveEvaluation& eval, const ChainOptions& options) {
  return acceptanceProbability(eval, options) > 0.0;
}

struct NodeInfo {
  std::int32_t parent = -1;  // index into the node vector; -1 for the root
  TriPoint moveFrom;         // in the *parent's canonical* coordinates
  TriPoint moveTo;
};

TriPoint canonicalOffset(const std::vector<TriPoint>& points) {
  TriPoint offset = points.front();
  for (const TriPoint p : points) {
    offset.x = std::min(offset.x, p.x);
    offset.y = std::min(offset.y, p.y);
  }
  return offset;
}

}  // namespace

std::optional<MovePlan> planMoves(const ParticleSystem& source,
                                  const ParticleSystem& target,
                                  const ChainOptions& options,
                                  std::size_t stateLimit) {
  SOPS_REQUIRE(source.size() == target.size(),
               "planMoves: particle counts differ");
  SOPS_REQUIRE(!source.empty(), "planMoves: empty system");
  SOPS_REQUIRE(system::isConnected(source), "planMoves: source disconnected");
  SOPS_REQUIRE(system::isConnected(target), "planMoves: target disconnected");

  const std::string goalKey = system::canonicalKey(target);

  std::vector<std::vector<TriPoint>> states;
  std::vector<NodeInfo> info;
  std::unordered_map<std::string, std::int32_t> indexOf;

  const auto addState = [&](std::vector<TriPoint> canonicalPoints,
                            const std::string& key, NodeInfo node) {
    const auto index = static_cast<std::int32_t>(states.size());
    states.push_back(std::move(canonicalPoints));
    info.push_back(node);
    indexOf.emplace(key, index);
    return index;
  };

  const std::string sourceKey = system::canonicalKey(source);
  std::int32_t goalIndex = -1;
  {
    const std::int32_t root =
        addState(system::canonicalPoints(source), sourceKey, NodeInfo{});
    if (sourceKey == goalKey) goalIndex = root;
  }

  std::deque<std::int32_t> frontier{0};
  std::vector<TriPoint> scratch;
  while (!frontier.empty() && goalIndex < 0 && states.size() < stateLimit) {
    const std::int32_t current = frontier.front();
    frontier.pop_front();
    const ParticleSystem sys(states[static_cast<std::size_t>(current)]);
    for (std::size_t particle = 0; particle < sys.size() && goalIndex < 0;
         ++particle) {
      const TriPoint from = sys.position(particle);
      for (const Direction d : kAllDirections) {
        const MoveEvaluation eval = evaluateMove(sys, from, d);
        if (!moveValid(eval, options)) continue;
        const TriPoint to = neighbor(from, d);
        scratch = sys.positions();
        scratch[particle] = to;
        const std::string key = system::canonicalKeyFromPoints(scratch);
        if (indexOf.contains(key)) continue;
        const std::int32_t child = addState(system::canonicalPoints(scratch),
                                            key, NodeInfo{current, from, to});
        if (key == goalKey) {
          goalIndex = child;
          break;
        }
        frontier.push_back(child);
      }
    }
  }

  if (goalIndex < 0) return std::nullopt;

  // Reconstruct the move chain root..goal in canonical-parent coordinates.
  std::vector<PlannedMove> reversed;
  for (std::int32_t at = goalIndex;
       info[static_cast<std::size_t>(at)].parent >= 0;
       at = info[static_cast<std::size_t>(at)].parent) {
    reversed.push_back({info[static_cast<std::size_t>(at)].moveFrom,
                        info[static_cast<std::size_t>(at)].moveTo});
  }

  // Translate each step from canonical coordinates into the evolving actual
  // arrangement's coordinates: actual = canonical + offset, where the
  // offset is re-derived after every move.
  MovePlan plan;
  plan.statesExplored = states.size();
  plan.moves.reserve(reversed.size());
  std::vector<TriPoint> actual = source.positions();
  TriPoint offset = canonicalOffset(actual);
  for (auto it = reversed.rbegin(); it != reversed.rend(); ++it) {
    const TriPoint from = it->from + offset;
    const TriPoint to = it->to + offset;
    plan.moves.push_back({from, to});
    for (TriPoint& p : actual) {
      if (p == from) {
        p = to;
        break;
      }
    }
    offset = canonicalOffset(actual);
  }
  return plan;
}

std::optional<MovePlan> planToLine(const ParticleSystem& source,
                                   const ChainOptions& options,
                                   std::size_t stateLimit) {
  return planMoves(source,
                   system::lineConfiguration(
                       static_cast<std::int64_t>(source.size())),
                   options, stateLimit);
}

ParticleSystem replayPlan(const ParticleSystem& source, const MovePlan& plan,
                          const ChainOptions& options) {
  ParticleSystem sys = source;
  for (const PlannedMove& move : plan.moves) {
    const std::vector<TriPoint>& positions = sys.positions();
    const auto particle =
        std::find(positions.begin(), positions.end(), move.from);
    SOPS_REQUIRE(particle != positions.end(),
                 "replayPlan: move source unoccupied");
    const auto direction = lattice::directionBetween(move.from, move.to);
    SOPS_REQUIRE(direction.has_value(), "replayPlan: move is not one step");
    const MoveEvaluation eval = evaluateMove(sys, move.from, *direction);
    SOPS_REQUIRE(acceptanceProbability(eval, options) > 0.0,
                 "replayPlan: invalid move in plan");
    sys.moveParticle(
        static_cast<std::size_t>(particle - positions.begin()), move.to);
  }
  return sys;
}

}  // namespace sops::core
