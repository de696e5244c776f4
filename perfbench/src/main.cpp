// bgpbench: run one benchmark workload and print its metrics.
//
//   bgpbench --workload NAME --seed N --seconds S --trace 0|1
//            [--scale K] [--snapshot PATH] [--trace-out PATH]
//   bgpbench --write-snapshot PATH [--scale K]
//
// Workloads: study-30x, study-1x-day, serve-10x, churn-10x (README.md says
// why each exists). --scale overrides the workload's world size (the
// self-tests run every workload at 1x). serve-10x loads the snapshot a
// previous --write-snapshot run wrote. The last stdout line is the JSON
// result; exit status is 0 whenever a result was printed.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bgpcmp/exec/thread_pool.h"
#include "bgpcmp/netbase/check.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: bgpbench --workload study-30x|study-1x-day|serve-10x|churn-10x "
               "--seed N --seconds S --trace 0|1 [--scale K] [--snapshot PATH] "
               "[--trace-out PATH]\n"
               "       bgpbench --write-snapshot PATH [--scale K]\n");
  return 2;
}

/// CPUs this process may run on (what `nproc` prints).
int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set) > 0 ? CPU_COUNT(&set) : 1;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string write_snapshot;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--snapshot") {
      opt.snapshot = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--write-snapshot") {
      write_snapshot = value;
    } else if (!parse_number(value, &number) || number < 0.0) {
      return usage();
    } else if (flag == "--seed") {
      opt.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = number;
      have_seconds = true;
    } else if (flag == "--trace" && (number == 0.0 || number == 1.0)) {
      opt.trace = number == 1.0;
      have_trace = true;
    } else if (flag == "--scale" && number >= 1.0) {
      opt.scale = static_cast<int>(number);
    } else {
      return usage();
    }
  }

  const int width = online_cpus();
  bgpcmp::exec::set_thread_count(width);
  // Failed model invariants throw instead of aborting, so the workloads can
  // count them as failed operations.
  const bgpcmp::ScopedCheckThrows checks_throw;

  try {
    if (!write_snapshot.empty()) {
      write_serving_snapshot(write_snapshot, opt.scale > 0 ? opt.scale : 10);
      return 0;
    }
    if (!have_seed || !have_seconds || !have_trace) return usage();
    auto scale_or = [&](int k) { return opt.scale > 0 ? opt.scale : k; };
    Outcome out;
    if (opt.workload == "study-30x") {
      out = run_study(opt, {scale_or(30), 0.011, 256, /*min_ops=*/5});
    } else if (opt.workload == "study-1x-day") {
      out = run_study(opt, {scale_or(1), 1.0, 256, /*min_ops=*/3});
    } else if (opt.workload == "serve-10x") {
      if (opt.snapshot.empty()) return usage();
      out = run_serve(opt, scale_or(10));
    } else if (opt.workload == "churn-10x") {
      out = run_churn(opt, scale_or(10));
    } else {
      return usage();
    }
    std::printf("provenance: nproc %d, pool width %d, compiler %s, build %s\n", width,
                bgpcmp::exec::thread_count(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
    return out.print() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgpbench: %s\n", e.what());
    return 1;
  }
}
