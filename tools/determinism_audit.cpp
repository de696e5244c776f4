// determinism_audit — the reproducibility gate.
//
// Builds every registered scenario twice from the same config and compares
// the FNV-1a hash of all emitted result tables. Any divergence means the
// model leaked nondeterminism (unordered-container iteration order, pointer
// keys, uninitialized reads, wall-clock time, an unseeded RNG) and fails the
// audit. scripts/check.sh and CI run this; parallelism PRs must keep it green.
//
//   determinism_audit                 audit the whole registry
//   determinism_audit --list          list registered scenarios
//   determinism_audit --scenario X    audit one scenario
//   determinism_audit --skip-studies  world tables only (fast)
//   determinism_audit --dump DIR      write per-run tables for diffing
//   determinism_audit --threads N     size the exec pool for both runs
//   determinism_audit --compare-threads N
//                                     render run 1 with a 1-thread pool and
//                                     run 2 with an N-thread pool: any
//                                     divergence means parallel code leaked
//                                     scheduling into results
//   determinism_audit --shards N      render run 1 in-process and run 2 in N
//                                     forked worker processes (contiguous
//                                     registry blocks, merged in registry
//                                     order): any divergence means results
//                                     depend on which process computes them
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/core/scenario_registry.h"
#include "bgpcmp/core/shard.h"
#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/stats/table.h"
#include "flags.h"
#include "shard_util.h"

using namespace bgpcmp;

namespace {

void dump(const std::string& dir, std::string_view scenario, int run,
          const std::string& tables) {
  const std::string path =
      dir + "/" + std::string(scenario) + ".run" + std::to_string(run) + ".txt";
  std::ofstream out{path};
  out << tables;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/// What to render for `s`: --skip-studies drops the study runs, leaving the
/// world tables.
core::FingerprintKind kind_of(const core::RegisteredScenario& s, bool skip_studies) {
  return skip_studies && s.kind == core::FingerprintKind::Studies
             ? core::FingerprintKind::World
             : s.kind;
}

/// The report's "studies" column, indexed by FingerprintKind.
constexpr const char* kKindColumn[] = {"yes", "no", "topo", "churn", "serving"};

/// "<scenario> <fingerprint>": one registry unit's line in a sharded audit.
std::string fingerprint_line(const core::RegisteredScenario& s, bool skip_studies) {
  const auto hash =
      core::scenario_fingerprint(s.config(), kind_of(s, skip_studies));
  char line[96];
  std::snprintf(line, sizeof line, "%s %016llx", std::string(s.name).c_str(),
                static_cast<unsigned long long>(hash));
  return line;
}

/// --shards worker: fingerprint this block of the registry into --out.
int run_shard_worker(int shards, int worker, const std::string& out_path,
                     bool skip_studies) {
  const auto registry = core::scenario_registry();
  const auto range = core::shard_range(registry.size(), shards, worker);
  return tools::write_worker_output(out_path, [&](std::ostream& out) {
    for (std::size_t i = range.begin; i < range.end; ++i) {
      out << fingerprint_line(registry[i], skip_studies) << '\n';
    }
  });
}

/// --shards parent: run 1 in this process, run 2 across forked workers.
int run_sharded_audit(const tools::Flags& flags, int shards, bool skip_studies) {
  const auto registry = core::scenario_registry();
  // Run 1: the in-process reference.
  std::vector<std::string> local;
  for (const auto& s : registry) local.push_back(fingerprint_line(s, skip_studies));
  const auto texts = tools::run_workers(flags.args(), shards, "audit");
  if (!texts) return 1;
  const std::vector<std::string> sharded = tools::lines_of(*texts);
  if (sharded.size() != registry.size()) {
    std::fprintf(stderr, "sharded run produced %zu of %zu scenarios\n",
                 sharded.size(), registry.size());
    return 1;
  }

  std::printf("comparing in-process run vs %d worker processes\n", shards);
  stats::Table report{{"scenario", "in-process", "sharded", "verdict"}};
  int failures = 0;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const bool ok = local[i] == sharded[i];
    if (!ok) ++failures;
    report.add_row({std::string(registry[i].name),
                    local[i].substr(local[i].find(' ') + 1),
                    sharded[i].substr(sharded[i].find(' ') + 1),
                    ok ? "deterministic" : "DIVERGED"});
  }
  std::fputs(report.render().c_str(), stdout);
  std::printf("merged %016llx (in-process) vs %016llx (%d shards)\n",
              static_cast<unsigned long long>(core::merge_fingerprint(local)),
              static_cast<unsigned long long>(core::merge_fingerprint(sharded)),
              shards);
  if (failures > 0) {
    std::fprintf(stderr, "\n%d scenario(s) diverged across the process boundary\n",
                 failures);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Flags flags{
      {"determinism_audit",
       "usage: determinism_audit [--list] [--scenario NAME] [--skip-studies] "
       "[--dump DIR] [--threads N] [--compare-threads N] [--shards N]\n",
       // --worker/--out are the hidden worker flags tools::run_workers appends.
       {"scenario", "dump", "compare-threads", "shards", "worker", "out"},
       {"list", "skip-studies"}},
      argc, argv};
  if (flags.has("list")) {
    for (const auto& s : core::scenario_registry()) {
      std::printf("%-16s %s\n", std::string(s.name).c_str(),
                  std::string(s.description).c_str());
    }
    return 0;
  }
  const bool skip_studies = flags.has("skip-studies");
  // 0: same pool for both runs.
  const int compare_threads = flags.number("compare-threads", 0, 2);
  // > 0: compare in-process vs forked workers.
  const int shards = flags.number("shards", 0, 2);
  if (flags.has("worker")) {
    const int worker = flags.number("worker", 0, 0);
    const std::string out = flags.text("out");
    if (shards == 0 || worker >= shards || out.empty()) {
      flags.fail("--worker needs --shards, an index below it, and --out");
    }
    return run_shard_worker(shards, worker, out, skip_studies);
  }
  if (shards > 0) return run_sharded_audit(flags, shards, skip_studies);
  const std::string only = flags.text("scenario");
  const std::string dump_dir = flags.text("dump");
  if (!only.empty() && core::find_scenario(only) == nullptr) {
    flags.fail("unknown scenario '" + only + "' (try --list)");
  }

  if (compare_threads > 0) {
    std::printf("comparing runs at threads=1 vs threads=%d\n", compare_threads);
  }
  stats::Table report{{"scenario", "studies", "run 1", "run 2", "verdict"}};
  int failures = 0;
  for (const auto& s : core::scenario_registry()) {
    if (!only.empty() && s.name != only) continue;
    const auto kind = kind_of(s, skip_studies);
    const auto config = s.config();
    if (compare_threads > 0) exec::set_thread_count(1);
    const auto tables1 = core::render_result_tables(config, kind);
    if (compare_threads > 0) exec::set_thread_count(compare_threads);
    const auto tables2 = core::render_result_tables(config, kind);
    const auto hash1 = core::fnv1a64(tables1);
    const auto hash2 = core::fnv1a64(tables2);
    const bool ok = tables1 == tables2;
    if (!ok) ++failures;
    if (!dump_dir.empty()) {
      dump(dump_dir, s.name, 1, tables1);
      dump(dump_dir, s.name, 2, tables2);
    }
    char h1[17];
    char h2[17];
    std::snprintf(h1, sizeof h1, "%016llx", static_cast<unsigned long long>(hash1));
    std::snprintf(h2, sizeof h2, "%016llx", static_cast<unsigned long long>(hash2));
    report.add_row({std::string(s.name), kKindColumn[static_cast<int>(kind)], h1, h2,
                    ok ? "deterministic" : "DIVERGED"});
  }
  std::fputs(report.render().c_str(), stdout);
  if (failures > 0) {
    std::fprintf(stderr, "\n%d scenario(s) diverged between identical runs\n",
                 failures);
    return 1;
  }
  return 0;
}
