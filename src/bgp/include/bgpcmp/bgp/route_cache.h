// Memoized route computation with a parallel warm phase.
//
// Studies evaluate routes toward hundreds of client origins, many sharing an
// origin AS; the cache computes each table once. Tables are stable because
// the graph is immutable after construction.
//
// Warm/read contract: call warm() with every origin the study will query —
// serially or across a thread pool, tables land in index-addressed slots so
// the result is byte-identical at any pool width (docs/PARALLELISM.md) —
// then query toward() / find() freely from concurrent readers. toward() on a
// cache miss still computes lazily, which is only safe single-threaded; the
// concurrent phase of a study must touch warmed origins only (find() checks).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bgpcmp/bgp/churn.h"
#include "bgpcmp/bgp/propagation.h"
#include "bgpcmp/netbase/thread_annotations.h"

namespace bgpcmp::exec {
class ThreadPool;
}  // namespace bgpcmp::exec

namespace bgpcmp::bgp {

/// One origin's share of a churn wave: the events hitting its sessions.
struct OriginChurn {
  AsIndex origin = topo::kNoAs;
  std::vector<ChurnEvent> events;
};

// The lazy-miss side of toward() is single-thread-only by contract (the
// BGPCMP_SINGLE_THREAD marker below is what tools/detlint checks); warmed
// reads through find() are safe from any number of threads.
class BGPCMP_SINGLE_THREAD RouteCache {
 public:
  explicit RouteCache(const AsGraph* graph)
      : graph_(graph), slots_(graph->as_count()), engines_(graph->as_count()) {}

  /// Compute the tables for every distinct uncached origin, serially, in
  /// compute_routes_batch batches of up to 64 origins. Slots are keyed by
  /// origin index, so warming never moves existing tables.
  BGPCMP_PHASE(warm)
  void warm(std::span<const AsIndex> origins);

  /// Same, but fans the batches out over `pool` via parallel_map. Batches
  /// are cut from the same first-appearance order at every width, so this is
  /// byte-identical to the serial overload at any pool width.
  BGPCMP_PHASE(warm)
  void warm(std::span<const AsIndex> origins, exec::ThreadPool& pool);

  /// Install a precomputed table into `origin`'s slot (snapshot restore:
  /// core/snapshot.h deserializes warmed tables instead of recomputing
  /// them). Same slot discipline as warm() — and the installed bytes are
  /// golden-pinned equal to a recompute by the snapshot's table digests.
  BGPCMP_PHASE(warm)
  void install(AsIndex origin, RouteTable table) {
    std::optional<RouteTable>& slot = slots_.at(origin);
    if (slot.has_value()) return;  // warm() semantics: first fill wins
    slot.emplace(std::move(table));
    ++cached_;
  }

  /// The routing table toward `origin`, computed on first use. Lazy misses
  /// mutate the cache — single-threaded callers only; parallel phases must
  /// stick to origins covered by an earlier warm().
  const RouteTable& toward(AsIndex origin) {
    std::optional<RouteTable>& slot = slots_.at(origin);
    if (!slot.has_value()) {
      // A lazy miss mutates the cache: catch a second mutating thread even
      // in builds without Clang TSA (hits above stay unchecked — they are
      // pure reads and legal from any thread after warm()).
      BGPCMP_ASSERT_SINGLE_THREAD(lazy_owner_, "RouteCache::toward cache miss");
      slot.emplace(compute_routes(*graph_, origin));
      ++cached_;
    }
    return *slot;
  }

  /// The warmed table toward `origin`, or nullptr if it was never computed.
  /// Read-only: safe from concurrent readers after warming. detlint D5
  /// requires every parallel region that reaches this to be dominated by a
  /// warm() call; toward() above carries no phase annotation on purpose —
  /// its lazy-miss path is covered by the class-level BGPCMP_SINGLE_THREAD
  /// waiver and the OwningThread runtime pin instead.
  BGPCMP_PHASE(serve)
  BGPCMP_REQUIRES_WARMED(warm)
  [[nodiscard]] const RouteTable* find(AsIndex origin) const {
    const std::optional<RouteTable>& slot = slots_.at(origin);
    return slot.has_value() ? &*slot : nullptr;
  }

  /// Apply an event batch to one warmed origin and re-converge its table
  /// incrementally from the changed frontier (churn.h). A warm-delta step:
  /// the slot must already be warmed, and it stays warmed (byte-identical to
  /// evicting and recomputing under the post-event announcement). The first
  /// reconverge for an origin builds its churn engine off the warmed state.
  BGPCMP_PHASE(warm)
  BGPCMP_REQUIRES_WARMED(warm)
  ChurnStats reconverge(AsIndex origin, std::span<const ChurnEvent> events);

  /// Same, fanning a wave of per-origin batches out over `pool`. Origins in
  /// one wave must be distinct: engines and slots are keyed by origin index,
  /// so distinct origins touch disjoint state and the result is
  /// byte-identical at any pool width — the same index-addressed-slot
  /// discipline as warm() (docs/PARALLELISM.md).
  BGPCMP_PHASE(warm)
  BGPCMP_REQUIRES_WARMED(warm)
  std::vector<ChurnStats> reconverge(std::span<const OriginChurn> wave,
                                     exec::ThreadPool& pool);

  /// Number of origins with a computed table.
  [[nodiscard]] std::size_t size() const { return cached_; }

 private:
  /// Origins from `origins` that have no cached table yet, deduplicated,
  /// in first-appearance order.
  [[nodiscard]] std::vector<AsIndex> missing(std::span<const AsIndex> origins) const;

  /// Move `tables` (one per origin of `batch`, same order) into their slots.
  void install_batch(std::span<const AsIndex> batch, std::vector<RouteTable> tables);

  /// The churn engine for `origin`, built on first use (a full converge that
  /// must agree with the warmed slot — golden-pinned in churn_test).
  ChurnEngine& engine(AsIndex origin);

  const AsGraph* graph_;
  std::vector<std::optional<RouteTable>> slots_;  ///< keyed by origin index
  /// Churn engines, keyed by origin index like slots_ (so parallel
  /// reconverge waves over distinct origins write disjoint entries).
  std::vector<std::unique_ptr<ChurnEngine>> engines_;
  std::size_t cached_ = 0;
  OwningThread lazy_owner_;  ///< pins the thread taking lazy toward() misses
};

}  // namespace bgpcmp::bgp
