#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "clock.h"

namespace perfbench {

int Tracer::open(const char* name, int parent, bool item) {
  const double start = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, start, parent, item});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "id\tname\tstart_s\tend_s\tparent\titem\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%.9f\t%.9f\t%d\t%d\n", i, s.name, s.start, s.end,
                 s.parent, s.item ? 1 : 0);
  }
  std::fclose(f);
}

namespace {

/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > hi) {
      if (open) total += hi - lo;
      lo = s;
      hi = e;
      open = true;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (open) total += hi - lo;
  return total;
}

}  // namespace

Ledger fold_ledger(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> child_stages(spans.size());
  std::vector<double> busy(spans.size(), 0.0);
  std::vector<std::size_t> items(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (s.item) {
      busy[p] += s.end - s.start;
      ++items[p];
    } else {
      child_stages[p].emplace_back(s.start, s.end);
    }
  }
  Ledger out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.item) continue;
    StageTotals& t = out[s.name];
    const double wall = s.end - s.start;
    t.wall_s += wall;
    t.self_s += wall - union_length(std::move(child_stages[i]));
    t.busy_s += busy[i];
    t.items += items[i];
    ++t.count;
  }
  return out;
}

StageTotals stage(const Ledger& ledger, const std::string& name) {
  const auto it = ledger.find(name);
  return it == ledger.end() ? StageTotals{} : it->second;
}

double self_share(const Ledger& ledger, const std::string& name, double total) {
  return total > 0.0 ? stage(ledger, name).self_s / total : 0.0;
}

double utilization(const Ledger& ledger, const std::string& name, int width) {
  const StageTotals t = stage(ledger, name);
  return t.wall_s > 0.0 ? t.busy_s / (t.wall_s * width) : 0.0;
}

}  // namespace perfbench
