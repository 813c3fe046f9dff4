// Output digests: the benchmark checks the simulated outputs by hashing
// them (64-bit FNV-1a over a canonical text form) and comparing with the
// committed reference and, in the traced run, with the untraced pass.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/fleet.h"
#include "core/workflow_manager.h"
#include "load/traffic.h"

namespace perfbench {

class Digest {
 public:
  Digest& add(std::string_view bytes);
  Digest& add(double value);  // full precision (%.17g)
  Digest& add(std::uint64_t value);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

[[nodiscard]] std::uint64_t digest_text(std::string_view text);

/// Every field of a workflow run, per task and per phase included.
[[nodiscard]] std::uint64_t digest_run(const wfs::core::WorkflowRunResult& run);

/// The fleet-level outcome (summaries, counters); runs are digested apart.
[[nodiscard]] std::uint64_t digest_fleet_summary(const wfs::core::FleetResult& fleet);

/// The traffic totals and every tenant's stats.
[[nodiscard]] std::uint64_t digest_traffic(const wfs::load::TrafficResult& traffic);

[[nodiscard]] std::string to_hex(std::uint64_t value);

}  // namespace perfbench
