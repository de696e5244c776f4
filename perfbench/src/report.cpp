#include "report.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

void print_line(const char* prefix, const Metric& m) {
  std::printf("%s%s = %.6g %s", prefix, m.name.c_str(), m.value, m.unit.c_str());
  if (m.samples > 0) {
    std::printf(" (%s %zu", m.median ? "median of" : "over", m.samples);
    if (m.tail_pct > 0.0) std::printf(", p%g = %.6g", m.tail_pct, m.tail);
    std::printf(")");
  }
  std::printf("\n");
}

}  // namespace

void Outcome::set(const std::string& name, const std::string& unit, double value,
                  std::size_t samples) {
  for (const Metric& m : metrics_) {
    if (m.name != name) continue;
    std::fprintf(stderr, "perfbench: metric %s set twice\n", name.c_str());
    correct_ = false;
    return;
  }
  metrics_.push_back({name, unit, value, samples});
}

void Outcome::set(const std::string& name, const std::string& unit, const Summary& s) {
  const std::size_t before = metrics_.size();
  set(name, unit, s.median, s.count);
  if (metrics_.size() == before) return;  // a duplicate, already reported
  Metric& m = metrics_.back();
  m.tail_pct = s.tail_pct;
  m.tail = s.tail;
  m.median = true;
}

void Outcome::detail(const std::string& name, const std::string& unit, double value,
                     std::size_t samples) {
  details_.push_back({name, unit, value, samples});
}

void Outcome::detail(const std::string& name, const std::string& unit,
                     const Summary& s) {
  details_.push_back({name, unit, s.median, s.count, s.tail_pct, s.tail, true});
}

void Outcome::incorrect(const std::string& why) {
  std::printf("verification failed: %s\n", why.c_str());
  correct_ = false;
}

bool Outcome::print() const {
  if (metrics_.empty()) {
    std::fprintf(stderr, "perfbench: no metric was measured\n");
    return false;
  }
  for (const Metric& m : metrics_) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      return false;
    }
  }
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  for (const Metric& m : metrics_) print_line("", m);
  for (const Metric& m : details_) print_line("detail ", m);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct() ? "true" : "false", attempted_, failed_);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return true;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
