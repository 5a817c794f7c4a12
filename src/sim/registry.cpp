#include "sim/registry.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sops::sim {

Registry& Registry::instance() {
  static Registry* registry = [] {
    auto* r = new Registry();
    registerBuiltins(*r);
    return r;
  }();
  return *registry;
}

void Registry::add(std::unique_ptr<Scenario> scenario) {
  SOPS_REQUIRE(scenario != nullptr, "cannot register a null scenario");
  const std::string name = scenario->name();
  SOPS_REQUIRE(!name.empty(), "scenario name must be non-empty");
  SOPS_REQUIRE(find(name) == nullptr,
               "scenario '" + name + "' is already registered");
  scenarios_.push_back(std::move(scenario));
}

const Scenario* Registry::find(std::string_view name) const noexcept {
  for (const auto& scenario : scenarios_) {
    if (scenario->name() == name) return scenario.get();
  }
  return nullptr;
}

const Scenario& Registry::get(std::string_view name) const {
  const Scenario* scenario = find(name);
  if (scenario == nullptr) {
    throw ContractViolation("unknown scenario '" + std::string(name) +
                            "' (registered: " + knownNames() + ")");
  }
  return *scenario;
}

std::vector<const Scenario*> Registry::all() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const auto& scenario : scenarios_) out.push_back(scenario.get());
  std::sort(out.begin(), out.end(), [](const Scenario* a, const Scenario* b) {
    return a->name() < b->name();
  });
  return out;
}

std::string Registry::knownNames() const {
  std::string names;
  for (const Scenario* scenario : all()) {
    if (!names.empty()) names += ", ";
    names += scenario->name();
  }
  return names;
}

}  // namespace sops::sim
