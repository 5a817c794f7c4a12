#ifndef SOPS_SIM_REGISTRY_HPP
#define SOPS_SIM_REGISTRY_HPP

/// \file registry.hpp
/// String-keyed scenario registry: the one place a workload plugs into.
///
/// Adding a scenario is a model file plus one registration, a call to
/// Registry::instance().add(...).  The shipped scenarios (compression,
/// separation, alignment, amoebot) register through registerBuiltins(),
/// which Registry::instance() invokes lazily so that static-library
/// dead-stripping can never lose them.  Lookups by unknown name throw
/// with the list of registered names (surfaced verbatim by the spps CLI).

#include <memory>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace sops::sim {

class Registry {
 public:
  /// The process-wide registry, with built-in scenarios registered.
  static Registry& instance();

  /// Registers a scenario; duplicate names are a ContractViolation.
  void add(std::unique_ptr<Scenario> scenario);

  /// nullptr when no scenario has the name.
  [[nodiscard]] const Scenario* find(std::string_view name) const noexcept;

  /// Throws ContractViolation listing the registered names when absent.
  [[nodiscard]] const Scenario& get(std::string_view name) const;

  /// All scenarios, sorted by name (for --list output).
  [[nodiscard]] std::vector<const Scenario*> all() const;

  /// Comma-separated registered names, sorted.
  [[nodiscard]] std::string knownNames() const;

 private:
  Registry() = default;
  std::vector<std::unique_ptr<Scenario>> scenarios_;
};

/// Registers the four shipped scenarios into `registry` (idempotent only
/// in the sense that Registry::instance() calls it exactly once).
void registerBuiltins(Registry& registry);

}  // namespace sops::sim

#endif  // SOPS_SIM_REGISTRY_HPP
