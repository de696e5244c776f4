// study-30x and study-1x-day: Study 1 through core::run_scale_study.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgpcmp/bgp/route_cache.h"
#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/core/pop_pair.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/latency/rtt_sampler.h"
#include "bgpcmp/netbase/rng.h"
#include "bgpcmp/topology/topology_gen.h"
#include "clock.h"
#include "workloads.h"

namespace perfbench {

using namespace bgpcmp;

core::ScenarioConfig scaled_config(int scale) {
  core::ScenarioConfig cfg;
  cfg.internet.tier1_count *= scale;
  cfg.internet.transit_count *= scale;
  cfg.internet.eyeball_count *= scale;
  cfg.internet.stub_count *= scale;
  return cfg;
}

core::ScenarioConfig study_world_config(const StudyShape& shape, std::uint64_t seed) {
  core::ScenarioConfig cfg = scaled_config(shape.scale);
  const Rng root{seed};
  cfg.clients.seed = root.fork("clients").base_seed();
  cfg.demand.seed = root.fork("demand").base_seed();
  return cfg;
}

core::ScaleStudyConfig study_config(const StudyShape& shape, std::uint64_t seed) {
  core::ScaleStudyConfig cfg;
  cfg.study.days = shape.days;
  cfg.study.seed = Rng{seed}.fork("study").base_seed();
  cfg.chunk_origins = shape.chunk_origins;
  return cfg;
}

namespace {

void append_raw(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

/// The canonical series bytes run_scale_chunk hashes into series_digest
/// (core/scale_study.cpp keeps them private). The traced fold recomputes the
/// digest from them, so a traced chunk is compared with the library's chunk
/// on every measured byte, not only on its fig1 points.
void append_series(std::string& out, const core::PopPrefixSeries& s) {
  append_raw(out, &s.pop, sizeof s.pop);
  append_raw(out, &s.prefix, sizeof s.prefix);
  for (const core::EgressRouteInfo& r : s.routes) {
    append_raw(out, &r.neighbor, sizeof r.neighbor);
    append_raw(out, &r.role, sizeof r.role);
    append_raw(out, &r.kind, sizeof r.kind);
    append_raw(out, &r.link, sizeof r.link);
    append_raw(out, &r.as_path_len, sizeof r.as_path_len);
  }
  if (!s.volume.empty()) {
    append_raw(out, s.volume.data(), s.volume.size() * sizeof(float));
  }
  for (const auto& route_medians : s.medians) {
    append_raw(out, route_medians.data(), route_medians.size() * sizeof(float));
  }
  if (!s.ci_lower.empty()) {
    append_raw(out, s.ci_lower.data(), s.ci_lower.size() * sizeof(float));
    append_raw(out, s.ci_upper.data(), s.ci_upper.size() * sizeof(float));
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

core::ScaleChunkResult traced_chunk(const core::ScaleWorld& world,
                                    const core::ScaleStudyConfig& config,
                                    const std::vector<TimeWindow>& windows,
                                    const traffic::ClientStream& stream,
                                    traffic::DemandStream& demand, std::size_t chunk,
                                    Tracer& tracer, int parent, StudyCounts& counts) {
  const auto& graph = world.internet.graph;
  const topo::CityDb& db = world.internet.city_db();
  const Scope span(tracer, "chunk", parent);

  std::optional<traffic::ClientChunk> window;
  std::vector<double> popularity;
  {
    const Scope s(tracer, "traffic.stream", span.id());
    window.emplace(stream.chunk(chunk));
    popularity = demand.next(*window);
  }
  counts.prefixes += window->prefixes.size();

  bgp::RouteCache tables{&graph};
  {
    const Scope s(tracer, "bgp.warm", span.id());
    tables.warm(stream.chunk_origin_ases(chunk), exec::global_pool());
  }
  counts.tables += tables.size();

  std::vector<core::PairPlan> plans;
  {
    const Scope s(tracer, "core.plan", span.id());
    auto planned = exec::parallel_map(window->prefixes.size(), [&](std::size_t i) {
      const Scope item(tracer, "core.plan", s.id(), /*item=*/true);
      const auto& client = window->prefixes[i];
      const bgp::RouteTable* table = tables.find(client.origin_as);
      return core::plan_pop_pair(graph, db, world.provider, client, window->id(i),
                                 *table, config.study.top_k_routes);
    });
    for (auto& plan : planned) {
      if (plan.measurable()) plans.push_back(std::move(plan));
    }
    counts.planned += planned.size();
  }
  counts.measurable += plans.size();

  std::vector<core::PopPrefixSeries> series;
  {
    const Scope s(tracer, "core.measure", span.id());
    const lat::RttSampler sampler;
    const Rng root{config.study.seed};
    series = exec::parallel_map(plans.size(), [&](std::size_t p) {
      const Scope item(tracer, "core.measure", s.id(), /*item=*/true);
      const core::PairPlan& plan = plans[p];
      const std::size_t i = plan.prefix - window->first_prefix;
      const auto& client = window->prefixes[i];
      return core::measure_pop_pair(plan, client, windows, popularity[i],
                                    db.at(client.city).location.lon_deg,
                                    world.config.demand, world.latency, sampler, root,
                                    config.study);
    });
  }

  const Scope s(tracer, "core.fold", span.id());
  core::ScaleChunkResult out;
  out.chunk = static_cast<std::uint32_t>(chunk);
  out.pairs = static_cast<std::uint32_t>(series.size());
  std::string bytes;
  for (const core::PopPrefixSeries& ps : series) {
    append_series(bytes, ps);
    for (std::size_t w = 0; w < windows.size(); ++w) {
      out.fig1.push_back(
          {static_cast<double>(ps.diff(w)), static_cast<double>(ps.volume[w])});
    }
  }
  out.series_digest = core::fnv1a64(bytes);
  return out;
}

}  // namespace

std::unique_ptr<core::ScaleWorld> traced_world(const core::ScenarioConfig& cfg,
                                               Tracer& tracer, int parent) {
  std::optional<topo::Internet> internet;
  {
    const Scope s(tracer, "topology.build", parent);
    internet.emplace(topo::build_internet(cfg.internet));
  }
  const Scope s(tracer, "core.attach", parent);
  return core::ScaleWorld::adopt(cfg, std::move(*internet));
}

core::ScaleStudyResult traced_scale_study(const core::ScaleWorld& world,
                                          const core::ScaleStudyConfig& config,
                                          Tracer& tracer, StudyCounts* counts) {
  const Scope op(tracer, "study", -1);
  StudyCounts local;
  core::ScaleStudyResult result;
  result.windows = core::study_windows(config.study);
  const traffic::ClientStream stream{&world.internet, world.config.clients,
                                     config.chunk_origins};
  traffic::DemandStream demand{world.config.demand};
  result.chunks.reserve(stream.chunk_count());
  for (std::size_t c = 0; c < stream.chunk_count(); ++c) {
    result.chunks.push_back(traced_chunk(world, config, result.windows, stream, demand,
                                         c, tracer, op.id(), local));
  }
  if (counts != nullptr) *counts = local;
  return result;
}

std::uint64_t chunk_mismatches(const core::ScaleStudyResult& want,
                               const core::ScaleStudyResult& got) {
  std::uint64_t bad = want.chunks.size() > got.chunks.size()
                          ? want.chunks.size() - got.chunks.size()
                          : got.chunks.size() - want.chunks.size();
  const std::size_t n = std::min(want.chunks.size(), got.chunks.size());
  for (std::size_t c = 0; c < n; ++c) {
    const auto& a = want.chunks[c];
    const auto& b = got.chunks[c];
    bool same = a.chunk == b.chunk && a.pairs == b.pairs &&
                a.series_digest == b.series_digest && a.fig1.size() == b.fig1.size();
    for (std::size_t i = 0; same && i < a.fig1.size(); ++i) {
      same = same_bits(a.fig1[i].value, b.fig1[i].value) &&
             same_bits(a.fig1[i].weight, b.fig1[i].weight);
    }
    if (!same) ++bad;
  }
  return bad;
}

Outcome run_study(const Options& opt, const StudyShape& shape) {
  Outcome out;
  Tracer tracer;
  const core::ScenarioConfig cfg = study_world_config(shape, opt.seed);
  const core::ScaleStudyConfig scfg = study_config(shape, opt.seed);
  const int width = exec::thread_count();

  // Set-up: build the world several times and keep the last; each rebuild
  // must reproduce the first world's fingerprint.
  std::vector<double> setup_s;
  std::unique_ptr<core::ScaleWorld> world;
  std::uint64_t world_fp = 0;
  for (std::size_t i = 0; want_another_setup(setup_s); ++i) {
    world.reset();  // free the previous world first: peak RSS holds one
    const double t0 = now_s();
    if (opt.trace) {
      const Scope setup(tracer, "setup", -1);
      world = traced_world(cfg, tracer, setup.id());
    } else {
      world = core::ScaleWorld::make(cfg);
    }
    setup_s.push_back(now_s() - t0);
    const std::uint64_t fp = topo::internet_fingerprint(world->internet);
    if (i == 0) world_fp = fp;
    if (fp != world_fp) out.incorrect("world rebuild changed the world fingerprint");
  }
  const std::size_t chunk_count =
      traffic::ClientStream{&world->internet, cfg.clients, scfg.chunk_origins}
          .chunk_count();

  // Warm-up: one untimed call fills the lazy congestion cache (the first
  // call runs about a third slower) and is the reference every timed call
  // must reproduce.
  const core::ScaleStudyResult ref = core::run_scale_study(*world, scfg);
  out.count(chunk_count, 0);

  // Operations: whole study calls. In a traced run untraced and traced calls
  // alternate, so the overhead compares like with like.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  StudyCounts counts;
  double op_time = 0.0;
  double untraced_cpu_s = 0.0;
  for (int ops = 0; ops < shape.min_ops || op_time < opt.seconds; ++ops) {
    const bool traced = opt.trace && ops % 2 == 1;
    core::ScaleStudyResult result;
    const double c0 = cpu_s();
    const double t0 = now_s();
    try {
      result = traced ? traced_scale_study(*world, scfg, tracer, &counts)
                      : core::run_scale_study(*world, scfg);
    } catch (const std::exception& e) {
      out.count(chunk_count, chunk_count);
      out.incorrect(std::string("study call threw: ") + e.what());
      op_time += now_s() - t0;
      continue;
    }
    const double dt = now_s() - t0;
    op_time += dt;
    (traced ? traced_ms : untraced_ms).push_back(dt * 1e3);
    if (!traced) untraced_cpu_s += cpu_s() - c0;
    out.count(chunk_count, chunk_mismatches(ref, result));
  }

  const double pair_windows =
      static_cast<double>(ref.pair_count()) * static_cast<double>(ref.windows.size());
  out.note("workload " + opt.workload + ": " +
           std::to_string(world->internet.graph.as_count()) + " ASes, " +
           std::to_string(chunk_count) + " chunks, " +
           std::to_string(ref.windows.size()) + " windows, " +
           std::to_string(ref.pair_count()) + " measurable pairs");
  out.note("study fingerprint " + hex(ref.fingerprint()) + "  world fingerprint " +
           hex(world_fp));
  char frac[64];
  std::snprintf(frac, sizeof frac, "improvable_traffic_fraction(5.0) %.9f",
                ref.improvable_traffic_fraction(5.0));
  out.note(frac);

  const Summary setup = summarize(setup_s);
  const Summary untraced = summarize(untraced_ms);
  if (!opt.trace) {
    out.set("setup_s", "s", setup);
    out.set("op_p50_ms", "ms", untraced);
    out.set("op_cpu_ms", "ms", untraced_cpu_s * 1e3 / untraced.count, untraced.count);
    out.set("peak_rss_mb", "MB", peak_rss_mb());
    out.detail("study_s", "s", untraced.median / 1e3, untraced.count);
    out.detail("core.pair_windows", "count", pair_windows);
    out.detail("pair_windows_per_s", "1/s", pair_windows / (untraced.median / 1e3));
    return out;
  }

  const Summary traced = summarize(traced_ms);
  const Ledger ledger = fold_ledger(tracer.spans());
  const double op_total = stage(ledger, "study").wall_s;
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
  double covered = 0.0;
  for (const char* name :
       {"traffic.stream", "bgp.warm", "core.plan", "core.measure", "core.fold"}) {
    covered += self_share(ledger, name, op_total);
  }
  out.set("trace.coverage_frac", "frac", covered);
  tally("exec.width", width);
  const StageTotals plan = stage(ledger, "core.plan");
  const StageTotals measure = stage(ledger, "core.measure");
  const double region_wall = plan.wall_s + measure.wall_s;
  const double region_busy = plan.busy_s + measure.busy_s;
  out.set("exec.utilization", "frac",
          region_wall > 0.0 ? region_busy / (region_wall * width) : 0.0);
  out.set("exec.plan_utilization", "frac", utilization(ledger, "core.plan", width));
  out.set("exec.measure_utilization", "frac",
          utilization(ledger, "core.measure", width));
  share("topology.build_frac", "topology.build", setup_total);
  share("core.attach_frac", "core.attach", setup_total);
  share("traffic.stream_frac", "traffic.stream", op_total);
  share("bgp.warm_frac", "bgp.warm", op_total);
  share("core.plan_frac", "core.plan", op_total);
  share("core.measure_frac", "core.measure", op_total);
  share("core.fold_frac", "core.fold", op_total);
  tally("bgp.tables", counts.tables);
  tally("traffic.prefixes", counts.prefixes);
  tally("core.pairs_planned", counts.planned);
  tally("core.pairs_measurable", counts.measurable);
  const double planned = static_cast<double>(counts.planned);
  out.set("core.measurable_frac", "frac",
          planned > 0.0 ? static_cast<double>(counts.measurable) / planned : 0.0);
  tally("core.pair_windows", pair_windows);
  // Not counted by the model: pair-windows times the configured resamples.
  tally("core.bootstrap_resamples", pair_windows * scfg.study.bootstrap.resamples);

  // Absolute stage times, per traced study call and per set-up.
  const double calls = static_cast<double>(traced.count);
  const double setups = static_cast<double>(setup.count);
  auto per = [&](const char* name, double n, bool busy_time = false) {
    const StageTotals t = stage(ledger, name);
    return n > 0.0 ? (busy_time ? t.busy_s : t.self_s) / n : 0.0;
  };
  out.detail("topology.build_s", "s", per("topology.build", setups));
  out.detail("core.attach_s", "s", per("core.attach", setups));
  out.detail("traffic.stream_s", "s", per("traffic.stream", calls));
  out.detail("bgp.warm_s", "s", per("bgp.warm", calls));
  out.detail("bgp.warm_ms_per_table", "ms",
             counts.tables > 0 ? per("bgp.warm", calls) * 1e3 / counts.tables : 0.0);
  out.detail("core.plan_s", "s", per("core.plan", calls));
  out.detail("core.measure_s", "s", per("core.measure", calls));
  out.detail("core.measure_busy_s", "s", per("core.measure", calls, true));
  out.detail("core.fold_s", "s", per("core.fold", calls));
  if (!opt.trace_out.empty()) tracer.write(opt.trace_out);
  return out;
}

}  // namespace perfbench
