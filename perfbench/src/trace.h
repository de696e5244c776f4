// In-memory span recorder for the traced run, and the ledger that folds the
// spans into per-stage self, busy and wall times.
//
// Spans come only from the benchmark's own code, around its calls into the
// model's public functions; the model itself records nothing. A span is
// either a stage (serial, nested under its parent stage) or an item (one
// work item of a parallel_map/parallel_chunks region, recorded on whichever
// pool thread ran it). Items are busy time of their region, not coverage:
// a stage's self time is its duration minus the union of its child stages.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string, layer-qualified ("bgp.warm")
  double start = 0.0;
  double end = 0.0;
  int parent = -1;        ///< index of the enclosing span, -1 at the root
  bool item = false;      ///< a parallel work item of `parent`
};

/// Thread-safe append-only span store. Items from pool threads open and close
/// concurrently, so every access takes the mutex.
class Tracer {
 public:
  int open(const char* name, int parent, bool item = false);
  void close(int id);

  /// Spans recorded so far; call only when no span is open on another thread.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as a tab-separated line: id name start end parent item.
  void write(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int parent, bool item = false)
      : tracer_(tracer), id_(tracer.open(name, parent, item)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Per-name totals over a span set.
struct StageTotals {
  double wall_s = 0.0;   ///< summed durations
  double self_s = 0.0;   ///< durations minus child-stage coverage
  double busy_s = 0.0;   ///< summed durations of this stage's items
  std::size_t count = 0;
  std::size_t items = 0;
};

using Ledger = std::map<std::string, StageTotals>;

/// Fold stage spans into per-name totals. Item spans add to their parent's
/// busy time and item count and are not ledger entries of their own.
[[nodiscard]] Ledger fold_ledger(const std::vector<Span>& spans);

/// The totals of `name`, or zeros when no such span was recorded.
[[nodiscard]] StageTotals stage(const Ledger& ledger, const std::string& name);

/// Self time of `name` as a share of `total` seconds (0 when either is absent).
[[nodiscard]] double self_share(const Ledger& ledger, const std::string& name,
                                double total);

/// Busy time of `name`'s items over its wall time times the pool width.
[[nodiscard]] double utilization(const Ledger& ledger, const std::string& name,
                                 int width);

}  // namespace perfbench
