// What one benchmark run reports, and how it is printed.
//
// A workload sets each metric it measures, with its unit, and the result
// line carries exactly those. BENCHMARK.json is the one list of metric names
// and units: run.py checks every result against it, and reports the
// per-layer metrics a workload does not exercise as 0 from its own explicit
// per-workload list. Workload-specific figures that are not in
// BENCHMARK.json (answer latency by kind, wave p50 by event kind, ...) are
// printed as detail lines before the result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "summary.h"

namespace perfbench {

/// One reported number. `samples` is the count the value was taken over
/// (0 for a single deterministic count); `tail_pct`/`tail` carry the
/// summary's tail when the value is a median.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
  double tail_pct = 0.0;
  double tail = 0.0;
  bool median = false;  ///< value is the median of `samples`, not a total over them
};

class Outcome {
 public:
  /// Report a metric in the result line. Setting a name twice is a
  /// benchmark bug and makes the run incorrect.
  void set(const std::string& name, const std::string& unit, double value,
           std::size_t samples = 0);
  /// Report the median of `s` as a metric, keeping count and tail.
  void set(const std::string& name, const std::string& unit, const Summary& s);
  /// A workload-specific figure printed as a detail line, not in the result.
  void detail(const std::string& name, const std::string& unit, double value,
              std::size_t samples = 0);
  void detail(const std::string& name, const std::string& unit, const Summary& s);
  /// A free-form line (digests, provenance) printed before the result.
  void note(const std::string& line) { notes_.push_back(line); }

  /// Count `n` operations, `failed` of which failed.
  void count(std::uint64_t n, std::uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  /// A failed verification that is not tied to one operation.
  void incorrect(const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return correct_ && failed_ == 0; }

  /// Print notes, metric and detail lines, then the one-line JSON result as
  /// the last line of stdout. Returns false (printing no result) if no
  /// metric was set or a value is not finite.
  [[nodiscard]] bool print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> details_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// `v` as 16 lower-case hex digits (digests and fingerprints).
[[nodiscard]] std::string hex(std::uint64_t v);

/// Peak resident set size of this process so far, in MiB (getrusage
/// high-water mark; monotone over the process lifetime).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
