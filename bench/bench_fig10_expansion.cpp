// E2 — Reproduces paper Fig 10: 100 particles starting in a line at λ=2 do
// NOT compress even after 10M and 20M iterations (the expanded regime of
// Theorem 5.7: λ < 2.17).
//
// Contrast with Fig 2 (λ=4 compresses by 5M): the perimeter here must stay
// a constant fraction of p_max = 2n−2.  The experiment is one facade
// RunSpec: a seed ensemble run as replicas of the compression scenario
// (seeds seed + 7·r, fanned out by sim::run), with replica 0 as the
// primary run whose checkpoints and final snapshot make the figure — so
// the plateau is shown not to be a single-seed artifact.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/csv.hpp"
#include "bench_util.hpp"
#include "io/ascii_render.hpp"
#include "sim/runner.hpp"
#include "system/metrics.hpp"

namespace {

using namespace sops;

/// Captures replica 0's configuration summary at every checkpoint
/// (iteration 0 included) with its last ASCII snapshot (Fig 10b), and
/// every replica's β = p/p_max per checkpoint.
class Fig10Observer : public sim::Observer {
 public:
  struct Row {
    std::uint64_t iterations;
    system::ConfigSummary summary;
  };

  explicit Fig10Observer(std::int64_t pMax) : pMax_(pMax) {}

  void onSample(const sim::Sample& sample) override {
    // perimeter is column 1 of the compression metrics.
    betas_[sample.replica][sample.iteration] =
        sample.values[1] / static_cast<double>(pMax_);
  }
  void onSnapshot(std::size_t replica, std::uint64_t iteration,
                  const system::ParticleSystem& sys) override {
    if (replica != 0) return;
    rows_.push_back(Row{iteration, system::summarize(sys)});
    lastSnapshot_ = io::renderAscii(sys);
  }

  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }
  [[nodiscard]] const std::string& lastSnapshot() const noexcept {
    return lastSnapshot_;
  }
  [[nodiscard]] double beta(std::size_t replica,
                            std::uint64_t iteration) const {
    const auto perReplica = betas_.find(replica);
    if (perReplica == betas_.end()) return 0.0;
    const auto it = perReplica->second.find(iteration);
    return it == perReplica->second.end() ? 0.0 : it->second;
  }

 private:
  std::int64_t pMax_;
  std::vector<Row> rows_;
  std::string lastSnapshot_;
  std::map<std::size_t, std::map<std::uint64_t, double>> betas_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::expectNoArgs(argc, argv,
                      "SOPS_FIG10_N, SOPS_FIG10_LAMBDA, "
                      "SOPS_FIG10_CHECKPOINT, SOPS_FIG10_SEEDS, "
                      "SOPS_SEED, SOPS_THREADS");
  const auto checkpoint = bench::envInt("SOPS_FIG10_CHECKPOINT", 10000000);
  sim::RunSpec spec = sim::RunSpec::fromParams(bench::layeredParams(
      "scenario=compression shape=line n=100 lambda=2.0 seed=1603 "
      "replicas=2 seed-stride=7 threads=0 snapshots=true steps=" +
          std::to_string(2 * checkpoint) +
          " checkpoint=" + std::to_string(checkpoint),
      {{"n", "SOPS_FIG10_N"},
       {"lambda", "SOPS_FIG10_LAMBDA"},
       {"seed", "SOPS_SEED"},
       {"replicas", "SOPS_FIG10_SEEDS"},
       {"threads", "SOPS_THREADS"}},
      argc, argv));
  // threads spreads replicas over the pool; a single replica keeps the
  // sequential engine (threads > 1 would switch it to the sharded runner).
  if (spec.replicas == 1) spec.threads = 1;
  const double lambda = spec.params.getDouble("lambda", 2.0);

  bench::banner("E2 / Fig 10", "non-compression at lambda=" +
                                   bench::fmt(lambda, 2) +
                                       " (expanded regime)");

  const std::int64_t pMax = system::pMax(spec.n);
  Fig10Observer observer(pMax);
  const sim::RunReport report = sim::run(spec, observer);

  analysis::CsvWriter csv(bench::csvPath("fig10_expansion.csv"),
                          {"iterations", "perimeter", "alpha", "beta"});
  bench::Table table({"iterations", "perimeter", "alpha=p/pmin",
                      "beta=p/pmax"});
  for (const Fig10Observer::Row& row : observer.rows()) {
    const system::ConfigSummary& summary = row.summary;
    const double beta = static_cast<double>(summary.perimeter) /
                        static_cast<double>(pMax);
    table.row({bench::fmtInt(static_cast<std::int64_t>(row.iterations)),
               bench::fmtInt(summary.perimeter),
               bench::fmt(summary.perimeterRatio), bench::fmt(beta)});
    csv.writeRow({std::to_string(row.iterations),
                  std::to_string(summary.perimeter),
                  analysis::formatDouble(summary.perimeterRatio),
                  analysis::formatDouble(beta)});
  }

  std::printf("\nsnapshot after %lld iterations (Fig 10b):\n%s\n",
              static_cast<long long>(2 * checkpoint),
              observer.lastSnapshot().c_str());

  if (report.replicas.size() > 1) {
    const auto first = static_cast<std::uint64_t>(checkpoint);
    const std::string atOne = "beta@" + bench::fmtInt(checkpoint);
    const std::string atTwo = "beta@" + bench::fmtInt(2 * checkpoint);
    std::printf("seed ensemble (beta at the two checkpoints):\n");
    bench::Table seedsTable({"seed", atOne, atTwo, "wall s"});
    for (const sim::ReplicaSummary& r : report.replicas) {
      seedsTable.row({std::to_string(r.seed),
                      bench::fmt(observer.beta(r.replica, first)),
                      bench::fmt(observer.beta(r.replica, 2 * first)),
                      bench::fmt(r.wallSeconds, 2)});
    }
    std::printf("\n");
  }
  std::printf(
      "paper shape to hold: beta stays a constant fraction (no compression),\n"
      "in contrast to Fig 2 where alpha drops to a small constant by 5M.\n");
  return 0;
}
