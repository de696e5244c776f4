#include "bgpcmp/core/scenario_registry.h"

#include <array>

namespace bgpcmp::core {
namespace {

ScenarioConfig master_seed_7() { return ScenarioConfig::with_master_seed(7); }
ScenarioConfig master_seed_456() { return ScenarioConfig::with_master_seed(456); }

ScenarioConfig topology_4x() {
  ScenarioConfig cfg;
  cfg.internet.tier1_count *= 4;
  cfg.internet.transit_count *= 4;
  cfg.internet.eyeball_count *= 4;
  cfg.internet.stub_count *= 4;
  return cfg;
}

constexpr std::array<RegisteredScenario, 8> kRegistry{{
    {"facebook_like", "Study 1: PNI-rich edge provider (default config)",
     &ScenarioConfig::facebook_like, FingerprintKind::Studies},
    {"microsoft_like", "Study 2: 2015-era anycast CDN, sparse peering",
     &ScenarioConfig::microsoft_like, FingerprintKind::Studies},
    {"google_like", "Study 3: hyperscale cloud with a large WAN edge",
     &ScenarioConfig::google_like, FingerprintKind::Studies},
    {"master_seed_7", "seed-sweep world derived from master seed 7",
     &master_seed_7, FingerprintKind::World},
    {"master_seed_456", "seed-sweep world derived from master seed 456",
     &master_seed_456, FingerprintKind::World},
    {"topology_4x", "4x-scale world, topology generation only",
     &topology_4x, FingerprintKind::Topology},
    {"churn_default", "event waves through the incremental re-convergence path",
     &ScenarioConfig::facebook_like, FingerprintKind::Churn},
    {"serving_default", "snapshot round-trip and batched queries, fresh vs loaded",
     &ScenarioConfig::facebook_like, FingerprintKind::Serving},
}};

}  // namespace

std::span<const RegisteredScenario> scenario_registry() { return kRegistry; }

const RegisteredScenario* find_scenario(std::string_view name) {
  for (const auto& s : kRegistry) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace bgpcmp::core
