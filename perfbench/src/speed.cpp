#include "speed.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <utility>

#include "layers.h"

namespace perfbench {

namespace {

// One table per level of the memory hierarchy: the simulator's slowdown
// under contention matches no single level's, but tracks their sum.
constexpr std::array<std::size_t, 3> kTableWords = {
    std::size_t{1} << 17,  // 1 MiB, core-private cache
    std::size_t{1} << 20,  // 8 MiB, shared cache
    std::size_t{1} << 23,  // 64 MiB, memory
};
constexpr std::uint32_t kPendingEvents = 65536;
constexpr int kDispatchesPerTable = 40000;
constexpr int kHandlers = 64;

/// The kernel's tables, written once so every page is resident.
std::array<std::vector<std::uint64_t>, 3>& tables() {
  static std::array<std::vector<std::uint64_t>, 3> all = {
      std::vector<std::uint64_t>(kTableWords[0]), std::vector<std::uint64_t>(kTableWords[1]),
      std::vector<std::uint64_t>(kTableWords[2])};
  return all;
}

volatile std::uint64_t g_sink = 0;

/// A discrete-event loop whose callbacks update `words` at random.
void dispatch_over(std::vector<std::uint64_t>& words) {
  std::uint64_t acc = 0;
  const std::size_t mask = words.size() - 1;
  std::vector<std::function<void(std::uint64_t)>> handlers;
  for (int i = 0; i < kHandlers; ++i) {
    handlers.emplace_back([&words, &acc, mask, i](std::uint64_t at) {
      acc += words[(at * 2654435761U + static_cast<std::uint64_t>(i)) & mask]++;
    });
  }
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::mt19937_64 rng(7);
  for (std::uint32_t id = 0; id < kPendingEvents; ++id) queue.push({rng() % 1000000, id});
  for (int n = 0; n < kDispatchesPerTable; ++n) {
    const Event event = queue.top();
    queue.pop();
    handlers[event.second % kHandlers](event.first);
    queue.push({event.first + rng() % 100000, event.second});
  }
  g_sink = g_sink + acc;
}

/// One run of the reference kernel; returns its host seconds. The inputs
/// are fixed, so every run does identical work.
double run_kernel() {
  const Clock::time_point start = Clock::now();
  for (std::vector<std::uint64_t>& words : tables()) dispatch_over(words);
  return static_cast<double>(elapsed_ns(start)) / 1e9;
}

}  // namespace

SpeedGauge::SpeedGauge() { (void)run_kernel(); }

void SpeedGauge::sample() { samples_.push_back(run_kernel()); }

double SpeedGauge::median_kernel_s() const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid] : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

}  // namespace perfbench
