#include "clock.h"

#include <time.h>

namespace perfbench {

namespace {

double read(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double now_s() { return read(CLOCK_MONOTONIC); }

double cpu_s() { return read(CLOCK_PROCESS_CPUTIME_ID); }

}  // namespace perfbench
