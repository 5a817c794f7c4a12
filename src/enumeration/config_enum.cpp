#include "enumeration/config_enum.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "lattice/direction.hpp"
#include "system/canonical.hpp"
#include "system/metrics.hpp"
#include "system/particle_system.hpp"

namespace sops::enumeration {

namespace {

using lattice::Direction;
using lattice::kAllDirections;
using lattice::neighbor;
using system::ParticleSystem;

/// Grows all canonical configs of size n from those of size n-1 by
/// attaching one particle at any empty adjacent cell.  Every connected
/// config of size n contains a connected sub-config of size n-1 obtainable
/// by deleting a non-cut leaf of a spanning tree, so this reaches
/// everything.
std::vector<std::string> grow(const std::vector<std::string>& previousKeys) {
  std::unordered_set<std::string> next;
  std::vector<TriPoint> points;
  for (const std::string& key : previousKeys) {
    points.clear();
    points.reserve(key.size() / sizeof(std::uint64_t) + 1);
    for (std::size_t off = 0; off < key.size(); off += sizeof(std::uint64_t)) {
      std::uint64_t packed = 0;
      std::memcpy(&packed, key.data() + off, sizeof(packed));
      points.push_back(lattice::unpack(packed));
    }
    const std::size_t base = points.size();
    std::unordered_set<std::uint64_t> occupied;
    occupied.reserve(base * 2);
    for (const TriPoint p : points) occupied.insert(lattice::pack(p));
    std::unordered_set<std::uint64_t> tried;
    for (std::size_t i = 0; i < base; ++i) {
      for (const Direction d : kAllDirections) {
        const TriPoint q = neighbor(points[i], d);
        if (occupied.contains(lattice::pack(q))) continue;
        if (!tried.insert(lattice::pack(q)).second) continue;
        points.push_back(q);
        next.insert(system::canonicalKeyFromPoints(points));
        points.pop_back();
      }
    }
  }
  std::vector<std::string> out(next.begin(), next.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> enumerateKeys(int n) {
  SOPS_REQUIRE(n >= 1, "enumerateKeys: n >= 1");
  std::vector<std::string> keys = {
      system::canonicalKeyFromPoints({TriPoint{0, 0}})};
  for (int size = 2; size <= n; ++size) keys = grow(keys);
  return keys;
}

std::vector<TriPoint> pointsFromKey(const std::string& key) {
  std::vector<TriPoint> points;
  points.reserve(key.size() / sizeof(std::uint64_t));
  for (std::size_t off = 0; off < key.size(); off += sizeof(std::uint64_t)) {
    std::uint64_t packed = 0;
    std::memcpy(&packed, key.data() + off, sizeof(packed));
    points.push_back(lattice::unpack(packed));
  }
  return points;
}

EnumeratedConfig describe(std::vector<TriPoint> points) {
  EnumeratedConfig config;
  const system::ConfigSummary summary =
      system::summarize(ParticleSystem(points));
  config.edges = summary.edges;
  config.triangles = summary.triangles;
  config.holes = static_cast<int>(summary.holes);
  config.perimeter = summary.perimeter;
  config.points = std::move(points);
  return config;
}

}  // namespace

std::vector<EnumeratedConfig> enumerateConnected(int n) {
  const std::vector<std::string> keys = enumerateKeys(n);
  std::vector<EnumeratedConfig> configs;
  configs.reserve(keys.size());
  for (const std::string& key : keys) {
    configs.push_back(describe(pointsFromKey(key)));
  }
  return configs;
}

ConfigCounts countConnected(int n) {
  ConfigCounts counts;
  for (const std::string& key : enumerateKeys(n)) {
    ++counts.all;
    const ParticleSystem sys(pointsFromKey(key));
    if (system::countHoles(sys) == 0) ++counts.holeFree;
  }
  return counts;
}

ConfigCounts countConnectedBruteForce(int n) {
  SOPS_REQUIRE(n >= 1 && n <= 7, "brute force supports n in [1,7]");
  // Canonical configs have min x = min y = 0 and fit inside an n×n window.
  std::vector<TriPoint> window;
  for (std::int32_t y = 0; y < n; ++y) {
    for (std::int32_t x = 0; x < n; ++x) window.push_back({x, y});
  }
  ConfigCounts counts;
  std::vector<TriPoint> chosen;
  const auto consider = [&] {
    bool hasX0 = false;
    bool hasY0 = false;
    for (const TriPoint p : chosen) {
      hasX0 |= p.x == 0;
      hasY0 |= p.y == 0;
    }
    if (!hasX0 || !hasY0) return;  // not canonical: a translate was counted
    const ParticleSystem sys(chosen);
    if (!system::isConnected(sys)) return;
    ++counts.all;
    if (system::countHoles(sys) == 0) ++counts.holeFree;
  };
  // Recursive subset choice.
  const std::function<void(std::size_t, int)> recurse =
      [&](std::size_t index, int remaining) {
        if (remaining == 0) {
          consider();
          return;
        }
        if (index + static_cast<std::size_t>(remaining) > window.size()) return;
        chosen.push_back(window[index]);
        recurse(index + 1, remaining - 1);
        chosen.pop_back();
        recurse(index + 1, remaining);
      };
  recurse(0, n);
  return counts;
}

const char* jensenN50Decimal() noexcept {
  return "2430068453031180290203185942420933";
}

double expansionThresholdFromN50() noexcept {
  // (2·N50)^{1/100} computed via logarithms; N50 ≈ 2.430068453e33.
  const double log10N50 = std::log10(2.430068453031180290203185942420933) +
      33.0;
  const double log10TwoN50 = std::log10(2.0) + log10N50;
  return std::pow(10.0, log10TwoN50 / 100.0);
}

}  // namespace sops::enumeration
