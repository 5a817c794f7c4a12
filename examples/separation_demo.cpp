// Heterogeneous particle systems (the conclusion's pointer to [9]): two
// colors, a homogeneity bias γ on monochromatic edges on top of the
// compression bias λ.  Renders the color pattern as ASCII.
//
//   ./examples/separation_demo [key=value ...]
//     n=80 lambda=4.0 gamma=4.0 steps=4000000
//   (the color-pattern rendering needs the model's colors, so this demo
//   drives the reference SeparationChain directly; the facade equivalent
//   is `spps scenario=separation ...`)
#include <cstdio>
#include <string>
#include <vector>

#include "extensions/separation.hpp"
#include "sim/params.hpp"
#include "system/metrics.hpp"
#include "system/shapes.hpp"
#include "util/assert.hpp"

namespace {

/// Two-glyph rendering: 'a' for color 0, 'b' for color 1.
std::string renderColors(const sops::extensions::SeparationChain& chain) {
  using namespace sops;
  const system::ParticleSystem& sys = chain.system();
  const system::BoundingBox box = system::boundingBox(sys);
  const std::int64_t colMin =
      2 * static_cast<std::int64_t>(box.minX) + box.minY;
  const std::int64_t colMax =
      2 * static_cast<std::int64_t>(box.maxX) + box.maxY;
  const auto width = static_cast<std::size_t>(colMax - colMin + 1);
  std::vector<std::string> rows(
      static_cast<std::size_t>(box.maxY - box.minY + 1),
      std::string(width, ' '));
  for (std::size_t id = 0; id < sys.size(); ++id) {
    const lattice::TriPoint p = sys.position(id);
    const auto col = static_cast<std::size_t>(
        2 * static_cast<std::int64_t>(p.x) + p.y - colMin);
    rows[static_cast<std::size_t>(box.maxY - p.y)][col] =
        chain.colors()[id] == 0 ? 'a' : 'b';
  }
  std::string out;
  for (const std::string& row : rows) {
    const std::size_t end = row.find_last_not_of(' ');
    out.append(row, 0, end == std::string::npos ? 0 : end + 1);
    out.push_back('\n');
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sops;
  sim::ParamMap params;
  try {
    params = sim::parseKeyValues("n=80 lambda=4.0 gamma=4.0 steps=4000000");
    params.merge(sim::parseArgs(argc, argv), /*onlyKnownKeys=*/true);
  } catch (const sops::ContractViolation& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const std::int64_t n = params.getInt("n", 80);
  const double lambda = params.getDouble("lambda", 4.0);
  const double gamma = params.getDouble("gamma", 4.0);
  const auto iterations =
      static_cast<std::uint64_t>(params.getInt("steps", 4000000));

  std::vector<std::uint8_t> colors =
      system::alternatingClasses(static_cast<std::size_t>(n), 2);
  extensions::SeparationOptions options;
  options.lambda = lambda;
  options.gamma = gamma;
  extensions::SeparationChain chain(system::lineConfiguration(n), colors,
                                    options, 42);
  std::printf("start (alternating colors):\n%s\n", renderColors(chain).c_str());
  chain.run(iterations);
  const double hom = static_cast<double>(chain.homogeneousEdges()) /
                     static_cast<double>(system::countEdges(chain.system()));
  std::printf("after %llu iterations (lambda=%.1f, gamma=%.2f):\n%s\n",
              static_cast<unsigned long long>(iterations), lambda, gamma,
              renderColors(chain).c_str());
  std::printf("monochromatic edge fraction: %.3f  (gamma>1 segregates, "
              "gamma<1 integrates)\n", hom);
  std::printf("perimeter ratio alpha: %.3f\n",
              static_cast<double>(system::perimeter(chain.system())) /
                  static_cast<double>(system::pMin(n)));
  return 0;
}
