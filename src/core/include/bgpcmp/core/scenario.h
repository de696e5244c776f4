// The standard experiment world: one synthetic Internet with a content
// provider attached and a congestion field (ScaleWorld), plus — for the eager
// studies — the resident client population and demand (Scenario).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "bgpcmp/cdn/provider.h"
#include "bgpcmp/latency/congestion.h"
#include "bgpcmp/latency/delay.h"
#include "bgpcmp/topology/topology_gen.h"
#include "bgpcmp/traffic/clients.h"
#include "bgpcmp/traffic/demand.h"

namespace bgpcmp::core {

struct ScenarioConfig {
  topo::InternetConfig internet;
  cdn::ProviderConfig provider;
  traffic::ClientBaseConfig clients;
  traffic::DemandConfig demand;
  lat::CongestionConfig congestion;
  lat::LatencyConfig latency;

  /// Derive all component seeds from one master seed (for seed sweeps /
  /// property tests).
  [[nodiscard]] static ScenarioConfig with_master_seed(std::uint64_t seed);

  // Provider presets matching the three studies' settings (§2.3). The
  // default config equals facebook_like().

  /// Study 1: PNI-rich edge provider with dozens of PoPs (Facebook-like).
  [[nodiscard]] static ScenarioConfig facebook_like();
  /// Study 2: 2015-era anycast CDN — a few dozen front-ends, sparser peering
  /// (Microsoft-like), so anycast catchment errors are more common.
  [[nodiscard]] static ScenarioConfig microsoft_like();
  /// Study 3: hyperscale cloud with a large WAN edge (Google-like).
  [[nodiscard]] static ScenarioConfig google_like();
};

/// The world every study runs against: the internet with the provider
/// attached, and the congestion/latency fields — memory scales with the AS
/// graph, never the client population. Heap-allocated so internal pointers
/// stay stable. Non-copyable.
class ScaleWorld {
 public:
  BGPCMP_PHASE(build)
  static std::unique_ptr<ScaleWorld> make(const ScenarioConfig& config = {});

  /// Adopt a pre-built world (e.g. loaded from a topology snapshot) that
  /// does not yet contain the provider AS; attaches the provider exactly
  /// like a fresh build, so the result is byte-identical to make().
  BGPCMP_PHASE(build)
  static std::unique_ptr<ScaleWorld> adopt(ScenarioConfig config, topo::Internet world);

  ScaleWorld(const ScaleWorld&) = delete;
  ScaleWorld& operator=(const ScaleWorld&) = delete;
  virtual ~ScaleWorld() = default;

  topo::Internet internet;
  cdn::ContentProvider provider;
  lat::CongestionField congestion;
  lat::LatencyModel latency;
  ScenarioConfig config;

 protected:
  /// Attaches the provider to `world`, unless `attached` is the provider
  /// `world` already contains (a snapshot restore).
  ScaleWorld(ScenarioConfig cfg, topo::Internet world,
             std::optional<cdn::ContentProvider> attached = std::nullopt);
};

/// A ScaleWorld plus the whole client base (the one-chunk run of
/// traffic::ClientStream) and demand model, resident: the fixture every
/// eager study, bench, and example builds on.
class Scenario : public ScaleWorld {
 public:
  BGPCMP_PHASE(build)
  static std::unique_ptr<Scenario> make(const ScenarioConfig& config = {});

  /// Like make(), but sources the Internet from topo::WorldCache::global():
  /// repeated scenarios over the same InternetConfig (seed sweeps, benches,
  /// multiple provider presets on one world) copy a cached snapshot instead
  /// of regenerating it. The determinism audit must keep using make() — it
  /// compares two independent builds by design.
  BGPCMP_PHASE(build)
  static std::unique_ptr<Scenario> make_cached(const ScenarioConfig& config = {});

  /// Rehydrate a scenario from snapshot-loaded parts (core/snapshot.h): the
  /// world already contains the provider AS, and provider/clients were
  /// deserialized rather than re-generated. Demand, congestion, and latency
  /// are cheap derivations and are rebuilt from `config` — their inputs
  /// (clients, graph, seeds) are byte-identical to a fresh build, so the
  /// models are too. Warm phase: this is the load half of a warm start.
  BGPCMP_PHASE(warm)
  static std::unique_ptr<Scenario> restore(ScenarioConfig config, topo::Internet world,
                                           cdn::ContentProvider provider,
                                           traffic::ClientBase clients);

  traffic::ClientBase clients;
  traffic::DemandModel demand;

 private:
  /// Generates the client base unless `restored` carries one.
  Scenario(ScenarioConfig cfg, topo::Internet world,
           std::optional<cdn::ContentProvider> attached = std::nullopt,
           std::optional<traffic::ClientBase> restored = std::nullopt);
};

}  // namespace bgpcmp::core
