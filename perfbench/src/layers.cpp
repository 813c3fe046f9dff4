#include "layers.h"

#include <utility>

namespace perfbench {

using wfs::sim::EventId;
using wfs::sim::EventQueue;
using wfs::sim::SimTime;

std::uint64_t LayerTally::events() const {
  std::uint64_t total = 0;
  for (const LayerStats& stats : layers) total += stats.events;
  return total;
}

std::uint64_t LayerTally::fired() const {
  std::uint64_t total = 0;
  for (const LayerStats& stats : layers) total += stats.fired;
  return total;
}

std::int64_t LayerTally::self_ns() const {
  std::int64_t total = 0;
  for (const LayerStats& stats : layers) total += stats.self_ns;
  return total;
}

EventQueue::Callback LayerContext::wrap(EventQueue::Callback fn) {
  return [this, fn = std::move(fn)] {
    ++stats_.fired;
    const std::int64_t engine_before = tally_.engine_ns;
    const Clock::time_point start = Clock::now();
    fn();
    stats_.self_ns += elapsed_ns(start) - (tally_.engine_ns - engine_before);
  };
}

EventId LayerContext::schedule_in(SimTime delay, EventQueue::Callback fn) {
  const Clock::time_point start = Clock::now();
  ++stats_.events;
  const EventId id = engine_.schedule_in(delay, wrap(std::move(fn)));
  tally_.engine_ns += elapsed_ns(start);
  return id;
}

EventId LayerContext::schedule_at(SimTime at, EventQueue::Callback fn) {
  const Clock::time_point start = Clock::now();
  ++stats_.events;
  const EventId id = engine_.schedule_at(at, wrap(std::move(fn)));
  tally_.engine_ns += elapsed_ns(start);
  return id;
}

bool LayerContext::cancel(EventId id) {
  const Clock::time_point start = Clock::now();
  const bool cancelled = engine_.cancel(id);
  if (cancelled) ++stats_.cancelled;
  tally_.engine_ns += elapsed_ns(start);
  return cancelled;
}

Layers::Layers(LayerTally* tally) : tally_(tally) {
  if (tally_ == nullptr) return;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    contexts_[i] = std::make_unique<LayerContext>(engine_, *tally_, static_cast<Layer>(i));
  }
}

wfs::sim::Context& Layers::at(Layer layer) {
  if (tally_ == nullptr) return engine_;
  return *contexts_[static_cast<std::size_t>(layer)];
}

}  // namespace perfbench
