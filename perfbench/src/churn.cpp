// churn-10x: waves of churn events through RouteCache::reconverge on a warmed
// cache over 256 origins.
//
// The seed draws the events. They come in rounds of two waves, one event per
// origin per wave: the first wave applies one event kind, the second undoes
// it, so after every round each origin's table must equal its base table
// again. Rounds cycle through withdraw/announce, prepend, link flap and
// facility outage.
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgpcmp/bgp/propagation.h"
#include "bgpcmp/bgp/route_cache.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/netbase/rng.h"
#include "clock.h"
#include "workloads.h"

namespace perfbench {

using namespace bgpcmp;

namespace {

constexpr std::size_t kOrigins = 256;
constexpr std::size_t kRoundsPerCycle = 4;  // one round per event family
constexpr std::size_t kMinCycles = 2;

struct Round {
  std::vector<bgp::OriginChurn> apply;
  std::vector<bgp::OriginChurn> undo;
};

/// Edges of `o` that carry at least one physical link.
std::vector<topo::EdgeId> linked_edges(const topo::AsGraph& g, topo::AsIndex o) {
  std::vector<topo::EdgeId> out;
  for (const topo::EdgeId e : g.edges_of(o)) {
    if (!g.edge(e).links.empty()) out.push_back(e);
  }
  return out;
}

/// Eyeball origins with a link-carrying session (so every event family has
/// something to act on), at an even stride over the eyeball list, as the
/// churn_default audit scenario picks them. The set does not depend on the
/// seed: with seeded sets, median wave time moved 16% from seed to seed on
/// the origins drawn alone, which would hide a change in the engine.
std::vector<topo::AsIndex> pick_origins(const topo::Internet& net) {
  std::vector<topo::AsIndex> eligible;
  for (const topo::AsIndex o : net.eyeballs) {
    if (!linked_edges(net.graph, o).empty()) eligible.push_back(o);
  }
  const std::size_t stride =
      eligible.size() > kOrigins ? eligible.size() / kOrigins : 1;
  std::vector<topo::AsIndex> out;
  for (std::size_t i = 0; i < eligible.size() && out.size() < kOrigins; i += stride) {
    out.push_back(eligible[i]);
  }
  return out;
}

Round make_round(const topo::AsGraph& g, const std::vector<topo::AsIndex>& origins,
                 std::uint64_t seed, std::size_t r) {
  Rng rng = Rng{seed}.fork("churn-round-" + std::to_string(r));
  auto pick = [&rng](std::size_t n) {
    const auto last = static_cast<std::int64_t>(n) - 1;
    return static_cast<std::size_t>(rng.uniform_int(0, last));
  };
  Round round;
  for (const topo::AsIndex o : origins) {
    const auto edges = g.edges_of(o);
    const auto linked = linked_edges(g, o);
    bgp::OriginChurn apply{o, {}};
    bgp::OriginChurn undo{o, {}};
    switch (r % kRoundsPerCycle) {
      case 0: {
        const topo::EdgeId e = edges[pick(edges.size())];
        apply.events.push_back(bgp::ChurnEvent::withdraw(e));
        undo.events.push_back(bgp::ChurnEvent::announce(e));
        break;
      }
      case 1: {
        const topo::EdgeId e = edges[pick(edges.size())];
        const int count = 1 + static_cast<int>(pick(3));
        apply.events.push_back(bgp::ChurnEvent::prepend_set(e, count));
        undo.events.push_back(bgp::ChurnEvent::prepend_set(e, 0));
        break;
      }
      case 2: {
        const auto& links = g.edge(linked[pick(linked.size())]).links;
        const topo::LinkId l = links[pick(links.size())];
        apply.events.push_back(bgp::ChurnEvent::link_flap(l));
        undo.events.push_back(bgp::ChurnEvent::link_flap(l));
        break;
      }
      default: {
        const auto& links = g.edge(linked[pick(linked.size())]).links;
        const topo::CityId city = g.link(links[pick(links.size())]).city;
        apply.events.push_back(bgp::ChurnEvent::facility_outage(city));
        undo.events.push_back(bgp::ChurnEvent::facility_outage(city));
        break;
      }
    }
    round.apply.push_back(std::move(apply));
    round.undo.push_back(std::move(undo));
  }
  return round;
}

bool same_table(const bgp::RouteTable& a, const bgp::RouteTable& b) {
  if (a.size() != b.size() || a.origin() != b.origin()) return false;
  for (topo::AsIndex i = 0; i < a.size(); ++i) {
    const bgp::BestRoute& x = a.at(i);
    const bgp::BestRoute& y = b.at(i);
    if (x.cls != y.cls || x.length != y.length || x.next_hop != y.next_hop ||
        x.via_edge != y.via_edge) {
      return false;
    }
  }
  return true;
}

bool same_stats(const bgp::ChurnStats& a, const bgp::ChurnStats& b) {
  return a.events == b.events && a.changed_sessions == b.changed_sessions &&
         a.invalidated_customer == b.invalidated_customer &&
         a.invalidated_peer == b.invalidated_peer &&
         a.invalidated_provider == b.invalidated_provider &&
         a.worklist_pops == b.worklist_pops && a.changed_routes == b.changed_routes;
}

std::size_t event_count(const std::vector<bgp::OriginChurn>& wave) {
  std::size_t n = 0;
  for (const auto& oc : wave) n += oc.events.size();
  return n;
}

/// A wave in the traced run: the library's wave call inside a span. The fan
/// out stays inside RouteCache::reconverge, because its serial publish of
/// each changed table after the parallel part is part of what a wave costs;
/// re-driving the wave per origin from here would publish in parallel and
/// time a different program.
std::vector<bgp::ChurnStats> traced_wave(bgp::RouteCache& cache,
                                         const std::vector<bgp::OriginChurn>& wave,
                                         exec::ThreadPool& pool, Tracer& tracer) {
  const Scope op(tracer, "churn.wave", -1);
  const Scope s(tracer, "bgp.reconverge", op.id());
  return cache.reconverge(wave, pool);
}

/// Work counted over the warm-up cycle's waves: the same for every run of a
/// seed, however long the run.
struct CycleCounts {
  std::uint64_t events = 0;
  std::uint64_t worklist_pops = 0;
  std::uint64_t invalidated = 0;
  std::uint64_t changed_routes = 0;
  std::uint64_t waves = 0;
};

}  // namespace

Outcome run_churn(const Options& opt, int scale) {
  Outcome out;
  Tracer tracer;
  const core::ScenarioConfig cfg = scaled_config(scale);
  exec::ThreadPool& pool = exec::global_pool();

  // Set-up: world, warm, and one churn engine per origin (an empty batch
  // builds the engine and changes nothing), several times; keep the last.
  std::vector<double> setup_s;
  std::unique_ptr<core::ScaleWorld> world;
  std::unique_ptr<bgp::RouteCache> warmed;
  std::vector<topo::AsIndex> origins;
  for (std::size_t i = 0; want_another_setup(setup_s); ++i) {
    warmed.reset();  // the cache points into the world: free it first
    world.reset();
    std::optional<Scope> setup;
    if (opt.trace) setup.emplace(tracer, "setup", -1);
    const int parent = setup ? setup->id() : -1;
    double t0 = now_s();
    world = opt.trace ? traced_world(cfg, tracer, parent) : core::ScaleWorld::make(cfg);
    double elapsed = now_s() - t0;
    if (i == 0) origins = pick_origins(world->internet);
    std::vector<bgp::OriginChurn> none;
    for (const topo::AsIndex o : origins) none.push_back({o, {}});
    t0 = now_s();
    warmed = std::make_unique<bgp::RouteCache>(&world->internet.graph);
    {
      std::optional<Scope> s;
      if (opt.trace) s.emplace(tracer, "bgp.warm", parent);
      warmed->warm(origins, pool);
    }
    {
      std::optional<Scope> s;
      if (opt.trace) s.emplace(tracer, "bgp.engine", parent);
      (void)warmed->reconverge(none, pool);
    }
    setup_s.push_back(elapsed + now_s() - t0);
  }
  const topo::AsGraph& graph = world->internet.graph;
  bgp::RouteCache& cache = *warmed;
  std::vector<bgp::RouteTable> base;
  for (const topo::AsIndex o : origins) base.push_back(*cache.find(o));

  // Waves. A traced run plays each cycle untraced, then replays the same
  // cycle traced: every round returns to the base state, so the replay must
  // reproduce the untraced ChurnStats exactly.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::map<std::string, std::vector<double>> by_kind_ms;
  double untraced_s = 0.0;
  double untraced_cpu_s = 0.0;
  double op_time = 0.0;
  std::uint64_t events = 0;
  CycleCounts warmup_cycle;
  // Events taken and failed, per origin. An origin's events of a round fail
  // when its stats differ from the untraced twin or its table misses its
  // base after the round.
  std::vector<std::uint64_t> taken(origins.size(), 0);
  std::vector<std::uint64_t> failed(origins.size(), 0);
  bool broken = false;
  // Cycle 0 is an untimed warm-up (first touches of the engines' scratch
  // state) and supplies the work counts; later cycles are timed.
  for (std::size_t cycle = 0; !broken && (cycle <= kMinCycles || op_time < opt.seconds);
       ++cycle) {
    const bool warmup = cycle == 0;
    std::vector<Round> rounds;
    for (std::size_t k = 0; k < kRoundsPerCycle; ++k) {
      const std::size_t r = cycle * kRoundsPerCycle + k;
      rounds.push_back(make_round(graph, origins, opt.seed, r));
    }
    std::vector<std::vector<bgp::ChurnStats>> reference;
    for (const bool traced : {false, true}) {
      if (broken || (traced && (!opt.trace || warmup))) break;
      std::size_t wave_no = 0;
      for (const Round& round : rounds) {
        std::vector<bool> bad(origins.size(), false);
        for (const auto* wave : {&round.apply, &round.undo}) {
          std::vector<bgp::ChurnStats> stats;
          const double c0 = cpu_s();
          const double t0 = now_s();
          try {
            stats = traced ? traced_wave(cache, *wave, pool, tracer)
                           : cache.reconverge(*wave, pool);
          } catch (const std::exception& e) {
            out.incorrect(std::string("reconverge threw: ") + e.what());
            broken = true;  // engine state is unknown after a throw
            bad.assign(origins.size(), true);
            break;
          }
          const double dt = now_s() - t0;
          if (traced) {
            op_time += dt;
            traced_ms.push_back(dt * 1e3);
            for (std::size_t i = 0; i < stats.size(); ++i) {
              if (!same_stats(reference[wave_no][i], stats[i])) bad[i] = true;
            }
          } else if (warmup) {
            reference.push_back(stats);
            for (const bgp::ChurnStats& st : stats) {
              warmup_cycle.events += st.events;
              warmup_cycle.worklist_pops += st.worklist_pops;
              warmup_cycle.invalidated += st.invalidated();
              warmup_cycle.changed_routes += st.changed_routes;
            }
            ++warmup_cycle.waves;
          } else {
            reference.push_back(stats);
            op_time += dt;
            untraced_ms.push_back(dt * 1e3);
            untraced_s += dt;
            untraced_cpu_s += cpu_s() - c0;
            events += event_count(*wave);
            const bgp::ChurnKind kind = wave->front().events.front().kind;
            by_kind_ms[std::string(bgp::churn_kind_name(kind))].push_back(dt * 1e3);
          }
          ++wave_no;
        }
        for (std::size_t i = 0; i < origins.size(); ++i) {
          if (!broken && !same_table(*cache.find(origins[i]), base[i])) bad[i] = true;
          const std::size_t n =
              round.apply[i].events.size() + round.undo[i].events.size();
          taken[i] += n;
          if (bad[i]) failed[i] += n;
        }
        if (broken) break;
      }
    }
  }

  // Every origin's final table must equal a full recomputation, AS by AS;
  // a mismatch fails every event the origin took.
  std::size_t fresh_mismatch = 0;
  for (std::size_t i = 0; i < origins.size(); ++i) {
    if (!same_table(*cache.find(origins[i]), bgp::compute_routes(graph, origins[i]))) {
      ++fresh_mismatch;
      failed[i] = taken[i];
    }
    out.count(taken[i], failed[i]);
  }
  if (fresh_mismatch > 0) out.incorrect("final tables differ from compute_routes");

  out.note("workload " + opt.workload + ": " + std::to_string(graph.as_count()) +
           " ASes, " + std::to_string(origins.size()) + " origins, " +
           std::to_string(events) +
           " untraced events, final tables equal compute_routes for " +
           std::to_string(origins.size() - fresh_mismatch) + "/" +
           std::to_string(origins.size()) + " origins");
  out.note("warm-up cycle: " + std::to_string(warmup_cycle.events) + " events, " +
           std::to_string(warmup_cycle.worklist_pops) + " worklist pops, " +
           std::to_string(warmup_cycle.changed_routes) + " changed routes");

  const Summary setup = summarize(setup_s);
  const Summary untraced = summarize(untraced_ms);
  if (!opt.trace) {
    const double eps = static_cast<double>(events) / untraced_s;
    out.set("setup_s", "s", setup);
    out.set("op_p50_ms", "ms", untraced);
    out.set("op_cpu_ms", "ms", untraced_cpu_s * 1e3 / untraced.count, untraced.count);
    out.set("peak_rss_mb", "MB", peak_rss_mb());
    out.detail("wave_p50_ms", "ms", untraced);
    out.detail("churn_events_per_s", "1/s", eps, untraced.count);
    for (const auto& [kind, ms] : by_kind_ms) {
      out.detail("bgp.wave_p50_ms." + kind, "ms", summarize(ms));
    }
    return out;
  }

  const Summary traced = summarize(traced_ms);
  const Ledger ledger = fold_ledger(tracer.spans());
  const double op_total = stage(ledger, "churn.wave").wall_s;
  const double setup_total = stage(ledger, "setup").wall_s;
  out.set("trace.setup_s", "s", setup);
  out.set("trace.op_p50_ms", "ms", traced);
  out.set("trace.overhead_frac", "frac", traced.median / untraced.median - 1.0,
          traced.count);
  auto share = [&](const char* metric, const char* span, double total) {
    out.set(metric, "frac", self_share(ledger, span, total));
  };
  auto tally = [&](const char* metric, auto n) {
    out.set(metric, "count", static_cast<double>(n));
  };
  share("trace.coverage_frac", "bgp.reconverge", op_total);
  tally("exec.width", pool.size());
  // No exec.utilization: the wave's fan-out runs inside the library.
  share("topology.build_frac", "topology.build", setup_total);
  share("core.attach_frac", "core.attach", setup_total);
  share("bgp.setup_warm_frac", "bgp.warm", setup_total);
  share("bgp.engine_frac", "bgp.engine", setup_total);
  share("bgp.reconverge_frac", "bgp.reconverge", op_total);
  tally("bgp.tables", origins.size());
  tally("bgp.events", warmup_cycle.events);
  tally("bgp.worklist_pops", warmup_cycle.worklist_pops);
  tally("bgp.invalidated", warmup_cycle.invalidated);
  tally("bgp.changed_routes", warmup_cycle.changed_routes);
  const double route_slots = static_cast<double>(warmup_cycle.waves * origins.size()) *
                             static_cast<double>(graph.as_count());
  out.set("bgp.changed_frac", "frac",
          static_cast<double>(warmup_cycle.changed_routes) / route_slots);
  out.detail("bgp.reconverge_s", "s", stage(ledger, "bgp.reconverge").self_s);
  out.detail("bgp.wave_ms", "ms", traced);
  if (!opt.trace_out.empty()) tracer.write(opt.trace_out);
  return out;
}

}  // namespace perfbench
