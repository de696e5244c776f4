#include "bgpcmp/bgp/route_cache.h"

#include <algorithm>

#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/netbase/check.h"

namespace bgpcmp::bgp {

namespace {

/// Origins per compute_routes_batch call in warm(): the full lane mask. On the
/// 30x world a table costs 0.093 ms single-thread at width 64 against 0.113 ms
/// at 32, and the two widths measured the same end to end at pool width 4
/// (BENCH_propagation.json).
constexpr std::size_t kWarmBatch = kMaxBatchOrigins;

/// Batch `b` of `todo`: kWarmBatch origins, fewer in the last batch.
std::span<const AsIndex> warm_batch(const std::vector<AsIndex>& todo, std::size_t b) {
  const std::size_t first = b * kWarmBatch;
  return std::span{todo}.subspan(first, std::min(kWarmBatch, todo.size() - first));
}

std::size_t warm_batch_count(std::size_t origins) {
  return (origins + kWarmBatch - 1) / kWarmBatch;
}

}  // namespace

std::vector<AsIndex> RouteCache::missing(std::span<const AsIndex> origins) const {
  std::vector<std::uint8_t> seen(slots_.size(), 0);
  std::vector<AsIndex> out;
  for (const AsIndex o : origins) {
    if (slots_.at(o).has_value() || seen[o] != 0) continue;
    seen[o] = 1;
    out.push_back(o);
  }
  return out;
}

void RouteCache::install_batch(std::span<const AsIndex> batch,
                               std::vector<RouteTable> tables) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    slots_[batch[i]].emplace(std::move(tables[i]));
    ++cached_;
  }
}

void RouteCache::warm(std::span<const AsIndex> origins) {
  const std::vector<AsIndex> todo = missing(origins);
  for (std::size_t b = 0; b < warm_batch_count(todo.size()); ++b) {
    const std::span<const AsIndex> batch = warm_batch(todo, b);
    install_batch(batch, compute_routes_batch(*graph_, batch));
  }
}

void RouteCache::warm(std::span<const AsIndex> origins, exec::ThreadPool& pool) {
  const std::vector<AsIndex> todo = missing(origins);
  if (todo.empty()) return;
  // Build the CSR index before the fan-out so workers share one snapshot
  // instead of racing to construct it (the race is benign but wasteful).
  (void)graph_->edge_index();
  std::vector<std::vector<RouteTable>> tables =
      exec::parallel_map(pool, warm_batch_count(todo.size()), [&](std::size_t b) {
        return compute_routes_batch(*graph_, warm_batch(todo, b));
      });
  for (std::size_t b = 0; b < tables.size(); ++b) {
    install_batch(warm_batch(todo, b), std::move(tables[b]));
  }
}

ChurnEngine& RouteCache::engine(AsIndex origin) {
  BGPCMP_CHECK(slots_.at(origin).has_value(),
               "reconverge needs a warmed origin (warm() it first)");
  std::unique_ptr<ChurnEngine>& slot = engines_[origin];
  if (!slot) {
    slot = std::make_unique<ChurnEngine>(graph_, OriginSpec::everywhere(origin));
  }
  return *slot;
}

ChurnStats RouteCache::reconverge(AsIndex origin, std::span<const ChurnEvent> events) {
  ChurnEngine& eng = engine(origin);
  const ChurnStats st = eng.reconverge(events);
  // Publish by copy: readers hold pointers into the slot across find(), so
  // the slot must never alias the engine's mutable working table.
  slots_[origin] = eng.table();
  return st;
}

std::vector<ChurnStats> RouteCache::reconverge(std::span<const OriginChurn> wave,
                                               exec::ThreadPool& pool) {
  // Engines are keyed by origin, so distinctness is what makes the parallel
  // wave race-free; build them (and the CSR index) before the fan-out so
  // workers only touch their own engine.
  std::vector<std::uint8_t> seen(slots_.size(), 0);
  for (const OriginChurn& oc : wave) {
    BGPCMP_CHECK(seen[oc.origin] == 0, "a reconverge wave must not repeat an origin");
    seen[oc.origin] = 1;
    engine(oc.origin);
  }
  (void)graph_->edge_index();
  std::vector<ChurnStats> stats =
      exec::parallel_map(pool, wave.size(), [&](std::size_t i) {
        return engines_[wave[i].origin]->reconverge(wave[i].events);
      });
  for (const OriginChurn& oc : wave) slots_[oc.origin] = engines_[oc.origin]->table();
  return stats;
}

}  // namespace bgpcmp::bgp
