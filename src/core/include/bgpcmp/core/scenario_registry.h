// Central registry of the canonical scenarios every cross-cutting tool runs
// over — the determinism auditor, future perf harnesses, and CI sweeps all
// iterate this list instead of hard-coding preset names. Adding a scenario
// here automatically puts it under the determinism gate.
#pragma once

#include <span>
#include <string_view>

#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/core/scenario.h"

namespace bgpcmp::core {

struct RegisteredScenario {
  std::string_view name;
  std::string_view description;
  ScenarioConfig (*config)();
  /// What the determinism audit renders for this scenario. Study runs
  /// dominate the auditor's runtime, so seed-sweep entries render the world
  /// tables only.
  FingerprintKind kind = FingerprintKind::Studies;
};

/// All registered scenarios, in a fixed, documented order.
[[nodiscard]] std::span<const RegisteredScenario> scenario_registry();

/// Look up one scenario by name; nullptr if absent.
[[nodiscard]] const RegisteredScenario* find_scenario(std::string_view name);

}  // namespace bgpcmp::core
