// The benchmark's only clocks. Every timing in perfbench goes through now_s()
// or cpu_s(), and clock.cpp is the only file that includes a clock header,
// so clock reads stay in one place outside the model (src/ never sees them:
// detlint D4 and lint.sh R4 keep banning clocks there).
#pragma once

namespace perfbench {

/// Seconds on a monotonic clock since an arbitrary fixed epoch.
[[nodiscard]] double now_s();

/// CPU seconds this process has run, summed over all its threads. Time the
/// hypervisor steals from the VM is not charged, so a per-operation CPU cost
/// stays put when a shared host slows the wall clock down.
[[nodiscard]] double cpu_s();

}  // namespace perfbench
