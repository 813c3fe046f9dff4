// Per-layer event accounting for the traced run.
//
// Every simulated component schedules through a sim::Context. The traced
// run hands each layer (the src/ module that owns the component) its own
// forwarding LayerContext over one shared sim::Simulation, so event ids,
// timestamps and same-instant FIFO order are exactly those of the untraced
// run, while the benchmark counts what each layer schedules, cancels and
// fires, and times the callbacks it scheduled.
//
// Self time: a layer's self time is the host time spent inside callbacks
// that layer scheduled, minus the time those callbacks spent inside engine
// calls (schedule/cancel). Synchronous calls into another layer count
// toward the layer that scheduled the callback: a storage completion that
// starts compute pays for the node's rebalance. The engine's own time
// (`sim.self_ms`) is the run loop's wall time minus every layer's self time,
// i.e. dispatch plus every schedule and cancel made from inside callbacks.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>

#include "sim/simulation.h"

namespace perfbench {

enum class Layer : std::size_t {
  kCluster,
  kFaas,
  kContainers,
  kStorage,
  kNet,
  kWfm,
  kSampler,
  kLoad,
};
inline constexpr std::size_t kLayerCount = 8;

/// The metric prefix of each layer: the src/ module it stands for.
inline constexpr std::array<std::string_view, kLayerCount> kLayerNames = {
    "cluster", "faas", "containers", "storage", "net", "core.wfm", "metrics.sampler", "load"};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t elapsed_ns(Clock::time_point from) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - from).count();
}

struct LayerStats {
  std::uint64_t events = 0;     // schedule_in/schedule_at calls
  std::uint64_t cancelled = 0;  // successful cancels
  std::uint64_t fired = 0;      // callbacks dispatched
  std::int64_t self_ns = 0;
};

/// Accumulates layer statistics over every simulation of one traced pass.
struct LayerTally {
  std::array<LayerStats, kLayerCount> layers{};
  std::int64_t engine_ns = 0;  // inside schedule/cancel, from anywhere
  std::int64_t loop_ns = 0;    // inside the runners' event loops

  [[nodiscard]] LayerStats& at(Layer layer) { return layers[static_cast<std::size_t>(layer)]; }
  [[nodiscard]] std::uint64_t events() const;
  [[nodiscard]] std::uint64_t fired() const;
  [[nodiscard]] std::int64_t self_ns() const;
};

class LayerContext final : public wfs::sim::Context {
 public:
  LayerContext(wfs::sim::Simulation& engine, LayerTally& tally, Layer layer)
      : engine_(engine), tally_(tally), stats_(tally.at(layer)) {}

  [[nodiscard]] wfs::sim::SimTime now() const noexcept override { return engine_.now(); }
  wfs::sim::EventId schedule_in(wfs::sim::SimTime delay,
                                wfs::sim::EventQueue::Callback fn) override;
  wfs::sim::EventId schedule_at(wfs::sim::SimTime at, wfs::sim::EventQueue::Callback fn) override;
  bool cancel(wfs::sim::EventId id) override;

 private:
  [[nodiscard]] wfs::sim::EventQueue::Callback wrap(wfs::sim::EventQueue::Callback fn);

  wfs::sim::Simulation& engine_;
  LayerTally& tally_;
  LayerStats& stats_;
};

/// One simulation plus the context each layer schedules through: the
/// simulation itself when untraced, a LayerContext per layer when traced.
class Layers {
 public:
  /// `tally` == nullptr builds the untraced testbed.
  explicit Layers(LayerTally* tally);
  Layers(const Layers&) = delete;
  Layers& operator=(const Layers&) = delete;

  [[nodiscard]] wfs::sim::Context& at(Layer layer);
  [[nodiscard]] wfs::sim::Simulation& engine() noexcept { return engine_; }

 private:
  wfs::sim::Simulation engine_;
  LayerTally* tally_;
  std::array<std::unique_ptr<LayerContext>, kLayerCount> contexts_;
};

/// Times a runner's event loop into the tally (no-op when untraced).
class LoopTimer {
 public:
  explicit LoopTimer(LayerTally* tally) : tally_(tally), start_(Clock::now()) {}
  ~LoopTimer() {
    if (tally_ != nullptr) tally_->loop_ns += elapsed_ns(start_);
  }
  LoopTimer(const LoopTimer&) = delete;
  LoopTimer& operator=(const LoopTimer&) = delete;

 private:
  LayerTally* tally_;
  Clock::time_point start_;
};

}  // namespace perfbench
