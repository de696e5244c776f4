// shard_runner — multi-process shard harness over the scenario registry.
//
// Partitions a unit list into contiguous blocks, re-execs itself once per
// shard, and merges the workers' per-unit fingerprint lines back in unit
// order. Because every unit is pure in its config, the merged fingerprint is
// byte-identical for ANY shard count — `--shards 1` and `--shards 8` must
// print the same value; `--check` verifies that against an in-process run.
//
//   shard_runner --axis scenarios --shards 4             registry fingerprints
//   shard_runner --axis scenarios --skip-studies ...     world tables only
//   shard_runner --axis seeds --seeds 3,5,9 --shards 2   master-seed sweep
//   shard_runner ... --check                             also run unsharded
//                                                        in-process + compare
//
// The streaming scale study shards through `bgpcmp shard` (same partition and
// merge code, chunk units); determinism_audit --shards N puts this harness's
// registry axis under the standing determinism gate.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bgpcmp/core/fingerprint.h"
#include "bgpcmp/core/scenario_registry.h"
#include "bgpcmp/core/shard.h"
#include "bgpcmp/exec/thread_pool.h"
#include "shard_util.h"

using namespace bgpcmp;

namespace {

struct Options {
  std::string axis = "scenarios";
  std::vector<std::uint64_t> seeds;
  bool skip_studies = false;
  bool check = false;
  int shards = 2;
  int worker = -1;       // >= 0: this process is a worker for that block
  std::string out_path;  // worker output file
};

/// One shardable unit: a name plus how to fingerprint it.
struct Unit {
  std::string name;
  core::ScenarioConfig config;
  core::FingerprintOptions options;
};

std::vector<Unit> build_units(const Options& opt) {
  std::vector<Unit> units;
  if (opt.axis == "scenarios") {
    for (const auto& s : core::scenario_registry()) {
      Unit unit;
      unit.name = std::string(s.name);
      unit.config = s.config();
      unit.options.run_studies = s.fingerprint_studies && !opt.skip_studies;
      unit.options.topology_only = s.topology_only;
      unit.options.churn = s.churn;
      unit.options.serving = s.serving;
      units.push_back(std::move(unit));
    }
  } else {  // seeds: world tables only, the seed-sweep shape
    for (const std::uint64_t seed : opt.seeds) {
      Unit unit;
      unit.name = "seed-" + std::to_string(seed);
      unit.config = core::ScenarioConfig::with_master_seed(seed);
      unit.options.run_studies = false;
      units.push_back(std::move(unit));
    }
  }
  return units;
}

std::string unit_line(const Unit& unit) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s %016llx", unit.name.c_str(),
                static_cast<unsigned long long>(
                    core::scenario_fingerprint(unit.config, unit.options)));
  return buf;
}

int run_worker(const Options& opt, const std::vector<Unit>& units) {
  const auto range = core::shard_range(units.size(), opt.shards, opt.worker);
  return tools::write_worker_output(opt.out_path, [&](std::ostream& out) {
    for (std::size_t u = range.begin; u < range.end; ++u) {
      out << unit_line(units[u]) << '\n';
    }
  });
}

int run_parent(const Options& opt, const std::vector<Unit>& units,
               int argc, char** argv) {
  // Re-exec self once per shard, forwarding the original flags plus the
  // hidden worker assignment. Workers own contiguous blocks, so their lines
  // in worker order restore unit order; verify rather than trust.
  const auto texts = tools::run_workers({argv, argv + argc}, opt.shards, "units");
  if (!texts) return 1;
  const std::vector<std::string> lines = tools::lines_of(*texts);
  if (lines.size() != units.size()) {
    std::fprintf(stderr, "merge expected %zu unit lines, got %zu\n", units.size(),
                 lines.size());
    return 1;
  }
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (lines[u].rfind(units[u].name + " ", 0) != 0) {
      std::fprintf(stderr, "unit %zu out of order: got '%s', want '%s ...'\n", u,
                   lines[u].c_str(), units[u].name.c_str());
      return 1;
    }
    std::printf("%s\n", lines[u].c_str());
  }
  const std::uint64_t merged = core::merge_fingerprint(lines);
  std::printf("merged %016llx over %zu units in %d shards\n",
              static_cast<unsigned long long>(merged), units.size(), opt.shards);

  if (opt.check) {
    std::vector<std::string> local;
    local.reserve(units.size());
    for (const auto& unit : units) local.push_back(unit_line(unit));
    const std::uint64_t expect = core::merge_fingerprint(local);
    if (expect != merged) {
      std::fprintf(stderr,
                   "DIVERGED: sharded merge %016llx != in-process %016llx\n",
                   static_cast<unsigned long long>(merged),
                   static_cast<unsigned long long>(expect));
      return 1;
    }
    std::printf("check ok: sharded merge equals in-process run\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  exec::apply_thread_flag(argc, argv);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--axis" && i + 1 < argc) {
      opt.axis = argv[++i];
    } else if (arg == "--seeds" && i + 1 < argc) {
      const char* s = argv[++i];
      while (*s != '\0') {
        char* next = nullptr;
        opt.seeds.push_back(std::strtoull(s, &next, 10));
        if (next == s) break;
        s = (*next == ',') ? next + 1 : next;
      }
    } else if (arg == "--skip-studies") {
      opt.skip_studies = true;
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--shards" && i + 1 < argc) {
      opt.shards = std::atoi(argv[++i]);
    } else if (arg == "--worker" && i + 1 < argc) {
      opt.worker = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      opt.out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: shard_runner [--axis scenarios|seeds] [--seeds a,b,..] "
                   "[--skip-studies] [--shards N] [--check] [--threads N]\n");
      return 2;
    }
  }
  if (opt.shards < 1) {
    std::fprintf(stderr, "--shards needs a positive integer\n");
    return 2;
  }
  if (opt.axis != "scenarios" && opt.axis != "seeds") {
    std::fprintf(stderr, "unknown axis '%s'\n", opt.axis.c_str());
    return 2;
  }
  if (opt.axis == "seeds" && opt.seeds.empty()) {
    std::fprintf(stderr, "--axis seeds needs --seeds a,b,...\n");
    return 2;
  }

  const auto units = build_units(opt);
  if (opt.worker >= 0) {
    if (opt.out_path.empty() || opt.worker >= opt.shards) {
      std::fprintf(stderr, "worker needs --out and a valid index\n");
      return 2;
    }
    return run_worker(opt, units);
  }
  return run_parent(opt, units, argc, argv);
}
