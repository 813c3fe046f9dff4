// Machine-speed gauge for the end-to-end host times.
//
// The benchmark runs on shared machines whose speed drifts: neighbours on
// the host compete for the caches and memory, so identical passes of the
// simulator can differ by 1.5-2x, and a slow spell lasts tens of seconds.
// Clock frequency stays put (a register-only loop varies by ~3 %), so the
// drift is contention in the memory hierarchy.
//
// The gauge times a fixed reference kernel before and after each pass of
// the program: a small discrete-event loop (binary-heap event queue, callbacks
// through std::function) that updates, in turn, a 1 MiB, an 8 MiB and a
// 64 MiB table at random. It shares no code with the program, so a change
// to the program cannot move it. A run's end-to-end host times are scaled
// by kReferenceKernelSeconds over the median kernel time of that run. On
// the 4-vCPU Xeon where the benchmark was written, the kernel's time
// tracked the simulator's over 20 s windows (correlation 0.9), and the
// scaling cut the run-to-run spread of the end-to-end times severalfold
// (figures in README.md).
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// The reference kernel's host time at reference speed: host times are
/// scaled to the speed at which the kernel takes this long. It is a round
/// figure below the 45-60 ms the kernel took on the machine where the
/// benchmark was written.
inline constexpr double kReferenceKernelSeconds = 0.040;

class SpeedGauge {
 public:
  SpeedGauge();  // runs the kernel once untimed, so its tables are resident

  /// Runs the kernel once and records its time.
  void sample();

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }

  /// Median kernel time over every sample, in seconds.
  [[nodiscard]] double median_kernel_s() const;

 private:
  std::vector<double> samples_;
};

}  // namespace perfbench
