// serve-10x: a snapshot-loaded ServingWorld answering a closed loop of
// 512-query batches through QueryServer::answer_batch.
#include <exception>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bgpcmp/core/serving.h"
#include "bgpcmp/exec/thread_pool.h"
#include "clock.h"
#include "workloads.h"

namespace perfbench {

using namespace bgpcmp;

namespace {

constexpr std::size_t kBatch = 512;
/// Distinct batches the loop cycles through; each has reference answers.
constexpr std::size_t kBatches = 8;
/// Queries per pool work item: QueryServer's default, which the traced
/// batch reuses so it fans out exactly like answer_batch.
constexpr std::size_t kServerChunk = 16;
constexpr std::size_t kMinBatches = 2 * kBatches;

std::uint64_t mismatches(const std::vector<std::string>& want,
                         const std::vector<std::string>& got) {
  if (want.size() != got.size()) return want.size();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i) bad += want[i] == got[i] ? 0 : 1;
  return bad;
}

/// QueryServer::answer_batch re-driven with a span per pool work item.
std::vector<std::string> traced_batch(const core::ServingWorld& world,
                                      std::span<const core::Query> queries,
                                      exec::ThreadPool& pool, Tracer& tracer) {
  const Scope op(tracer, "serve.batch", -1);
  const Scope region(tracer, "core.answer", op.id());
  std::vector<std::string> out(queries.size());
  exec::parallel_chunks(pool, queries.size(), kServerChunk,
                        [&](std::size_t begin, std::size_t end) {
                          const Scope item(tracer, "core.answer", region.id(), true);
                          for (std::size_t i = begin; i < end; ++i) {
                            out[i] = world.answer(queries[i]);
                          }
                        });
  return out;
}

const char* kind_name(core::Query::Kind k) {
  switch (k) {
    case core::Query::Kind::Latency: return "latency";
    case core::Query::Kind::Egress: return "egress";
    case core::Query::Kind::Catchment: return "catchment";
  }
  return "unknown";
}

}  // namespace

void write_serving_snapshot(const std::string& path, int scale) {
  core::ServingWorld::build(scaled_config(scale))->save(path);
}

Outcome run_serve(const Options& opt, int scale) {
  Outcome out;
  Tracer tracer;
  const core::ScenarioConfig cfg = scaled_config(scale);
  exec::ThreadPool& pool = exec::global_pool();

  // Set-up: load the snapshot several times. The first load draws the query
  // batches from the seed and answers them for reference; every load then
  // answers all batches (untimed, which also fills the lazy congestion
  // cache) and must reproduce those answers.
  std::vector<double> setup_s;
  std::unique_ptr<core::ServingWorld> world;
  std::vector<std::vector<core::Query>> batches;
  std::vector<std::vector<std::string>> want;
  for (std::size_t i = 0; want_another_setup(setup_s); ++i) {
    world.reset();
    const double t0 = now_s();
    if (opt.trace) {
      const Scope setup(tracer, "setup", -1);
      const Scope s(tracer, "core.snapshot_load", setup.id());
      world = core::ServingWorld::load(opt.snapshot, cfg);
    } else {
      world = core::ServingWorld::load(opt.snapshot, cfg);
    }
    setup_s.push_back(now_s() - t0);
    if (i == 0) {
      const auto all = world->generate_queries(kBatch * kBatches, opt.seed);
      for (std::size_t b = 0; b < kBatches; ++b) {
        const auto first = all.begin() + static_cast<std::ptrdiff_t>(b * kBatch);
        batches.emplace_back(first, first + static_cast<std::ptrdiff_t>(kBatch));
      }
    }
    const core::QueryServer server{world.get(), &pool};
    for (std::size_t b = 0; b < kBatches; ++b) {
      auto answers = server.answer_batch(batches[b]);
      if (i == 0) want.push_back(answers);
      out.count(kBatch, mismatches(want[b], answers));
    }
  }

  // The closed loop: one caller, one batch in flight. A traced run
  // alternates whole untraced and traced passes over the batches.
  const core::QueryServer server{world.get(), &pool};
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double untraced_s = 0.0;
  double untraced_cpu_s = 0.0;
  double op_time = 0.0;
  std::uint64_t queries = 0;
  for (std::size_t i = 0; i < kMinBatches || op_time < opt.seconds; ++i) {
    const std::size_t b = i % kBatches;
    const bool traced = opt.trace && (i / kBatches) % 2 == 1;
    std::vector<std::string> answers;
    const double c0 = cpu_s();
    const double t0 = now_s();
    try {
      answers = traced ? traced_batch(*world, batches[b], pool, tracer)
                       : server.answer_batch(batches[b]);
    } catch (const std::exception& e) {
      out.count(kBatch, kBatch);
      out.incorrect(std::string("answer_batch threw: ") + e.what());
      op_time += now_s() - t0;
      continue;
    }
    const double dt = now_s() - t0;
    op_time += dt;
    if (traced) {
      traced_ms.push_back(dt * 1e3);
    } else {
      untraced_ms.push_back(dt * 1e3);
      untraced_s += dt;
      untraced_cpu_s += cpu_s() - c0;
    }
    queries += kBatch;
    out.count(kBatch, mismatches(want[b], answers));
  }

  std::vector<std::string> joined;
  for (const auto& w : want) joined.insert(joined.end(), w.begin(), w.end());
  const auto snapshot_bytes = std::filesystem::file_size(opt.snapshot);
  out.note("workload " + opt.workload + ": " +
           std::to_string(world->scenario().internet.graph.as_count()) + " ASes, " +
           std::to_string(world->warmed().size()) + " warmed origins, snapshot " +
           std::to_string(snapshot_bytes) + " bytes");
  out.note("answers digest batch0 " + hex(core::answers_digest(want[0])) +
           "  all batches " + hex(core::answers_digest(joined)));

  const Summary setup = summarize(setup_s);
  const Summary untraced = summarize(untraced_ms);
  if (!opt.trace) {
    const double qps = static_cast<double>(untraced.count * kBatch) / untraced_s;
    out.set("setup_s", "s", setup);
    out.set("op_p50_ms", "ms", untraced);
    out.set("op_cpu_ms", "ms", untraced_cpu_s * 1e3 / untraced.count, untraced.count);
    out.set("peak_rss_mb", "MB", peak_rss_mb());
    out.detail("batch_p50_ms", "ms", untraced);
    out.detail("serve_qps", "1/s", qps, untraced.count);
    out.detail("core.snapshot_load_s", "s", setup);
    return out;
  }

  // Single-thread answer latency by query kind, over every batch.
  std::vector<double> by_kind[3];
  for (std::size_t b = 0; b < kBatches; ++b) {
    std::uint64_t bad = 0;
    for (std::size_t q = 0; q < kBatch; ++q) {
      const core::Query& query = batches[b][q];
      const double t0 = now_s();
      const std::string answer = world->answer(query);
      by_kind[static_cast<int>(query.kind)].push_back((now_s() - t0) * 1e6);
      bad += answer == want[b][q] ? 0 : 1;
    }
    out.count(kBatch, bad);
  }

  const Summary traced = summarize(traced_ms);
  const Ledger ledger = fold_ledger(tracer.spans());
  const double op_total = stage(ledger, "serve.batch").wall_s;
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
  share("trace.coverage_frac", "core.answer", op_total);
  tally("exec.width", pool.size());
  out.set("exec.utilization", "frac", utilization(ledger, "core.answer", pool.size()));
  share("core.snapshot_load_frac", "core.snapshot_load", stage(ledger, "setup").wall_s);
  share("core.answer_frac", "core.answer", op_total);
  tally("bgp.tables", world->warmed().size());
  tally("core.queries", queries);
  out.set("core.snapshot_bytes", "bytes", static_cast<double>(snapshot_bytes));
  tally("traffic.prefixes", world->scenario().clients.size());
  out.detail("core.snapshot_load_s", "s", setup);
  for (const auto kind : {core::Query::Kind::Latency, core::Query::Kind::Egress,
                          core::Query::Kind::Catchment}) {
    out.detail(std::string("core.answer_") + kind_name(kind) + "_us", "us",
               summarize(by_kind[static_cast<int>(kind)]));
  }
  if (!opt.trace_out.empty()) tracer.write(opt.trace_out);
  return out;
}

}  // namespace perfbench
