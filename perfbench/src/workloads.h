// The benchmark's workloads and the two ways of running them.
//
// An untraced pass drives only the program's public runners
// (core::Campaign / run_experiment, load::run_traffic, core::run_fleet) and
// results I/O. A traced pass runs the same inputs on the mirrored testbeds
// (mirror.h) with per-layer accounting. Both digest every simulated run the
// same way, so the traced pass can be checked against the untraced one.
//
// Why each workload (see README.md for the layer map):
//   table1-campaign  the paper's 140-cell Table I design (98 fine + 42
//                    coarse cells), the run a user repeats to reproduce the
//                    paper; touches every layer on Knative and local
//                    containers, and gives 140 per-cell host times.
//   genome-5000      one 5,000-task genome cell on Kn1000wPM: two pods
//                    saturate both nodes, so node CPU sharing and the event
//                    engine do nearly all the work.
//   tenant-sweep     the multi-tenant knee ladder plus the greedy-tenant
//                    isolation pair: open-loop arrivals, activator 503 and
//                    retry, router hops and the WFM run table dominate; the
//                    bypass workload for node and engine changes.
//   fleet-dataplane  14 concurrent workflows over the sharded, replicated
//                    store with node caches and p2p: the only workload that
//                    reaches core/fleet and storage's sharded/cache/p2p code.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/fleet.h"
#include "load/traffic.h"
#include "mirror.h"

namespace perfbench {

/// kSmoke shrinks every workload to a run of well under a second, for the
/// benchmark's self-test.
enum class Scale { kFull, kSmoke };

struct WorkloadSpec {
  std::string name;
  std::vector<wfs::core::CampaignSpec> campaigns;  // run through core::Campaign
  std::vector<wfs::core::ExperimentConfig> cells;  // every cell, campaign cells included
  std::vector<wfs::load::TrafficConfig> traffic;
  std::vector<wfs::core::FleetConfig> fleets;
};

/// nullopt for an unknown workload name.
[[nodiscard]] std::optional<WorkloadSpec> make_workload(const std::string& name,
                                                        std::uint64_t seed, Scale scale);

/// One simulated run: a cell, a traffic config, or one fleet workflow.
struct RunOutput {
  std::uint64_t digest = 0;  // compared with the committed reference
  std::uint64_t cross = 0;   // compared between the traced and untraced passes
  bool shape_ok = true;      // the workload's own outcome check
};

struct PassResult {
  std::vector<RunOutput> runs;
  std::vector<double> unit_ms;  // host ms per cell, traffic run or fleet
  std::uint64_t tasks_completed = 0;
  double wall_s = 0.0;
};

/// Generation, translation and testbed assembly of every unit of the
/// workload, without simulating; returns host seconds.
[[nodiscard]] double setup_once(const WorkloadSpec& spec);

[[nodiscard]] PassResult run_untraced(const WorkloadSpec& spec);
[[nodiscard]] PassResult run_traced(const WorkloadSpec& spec, PassTally& tally);

}  // namespace perfbench
