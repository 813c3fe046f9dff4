// The traced run's testbeds: the program's three runners re-assembled from
// the components' public constructors, with each layer scheduling through
// its own context (layers.h).
//
//   CellRun    <- core::ExperimentRunner::run   (one Table I cell)
//   FleetRun   <- core::run_fleet               (concurrent fleet)
//   TrafficRun <- load::run_traffic             (open-loop tenants)
//
// Each class builds the runner's locals in the runner's order, so every
// event is scheduled in the same order as in the program and the outputs
// are identical. The benchmark checks that: the traced pass digests its
// outputs and compares them with the untraced pass, which calls the
// program's runners. Only the plain single-queue engine (sim_shards == 1)
// and the options the workloads use are mirrored; anything else throws.
//
// The constructor is the run's setup (generation, translation, testbed
// assembly); execute() is the timed simulation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "containers/runtime.h"
#include "core/experiment.h"
#include "core/fleet.h"
#include "faas/platform.h"
#include "layers.h"
#include "load/traffic.h"
#include "metrics/registry.h"
#include "metrics/sampler.h"
#include "net/router.h"
#include "obs/trace_recorder.h"
#include "storage/cached_store.h"
#include "storage/shared_fs.h"
#include "storage/sharded_store.h"

namespace perfbench {

/// Simulated counts a traced pass reports next to the layer statistics.
struct SimCounters {
  std::uint64_t tasks = 0;  // tasks submitted to the WFM
  std::uint64_t cold_starts = 0;
  std::uint64_t rejected = 0;  // activator 503s
  double activator_wait_s = 0.0;
  std::uint64_t retries = 0;  // WFM re-sent invocations
  std::uint64_t bytes_read = 0;  // backing store
  std::uint64_t bytes_written = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t p2p_transfers = 0;
};

/// Everything one traced pass measures.
struct PassTally {
  LayerTally layers;
  std::int64_t generate_ns = 0;   // recipe generation
  std::int64_t translate_ns = 0;  // translation (or endpoint stamping)
  std::int64_t write_ns = 0;      // core::write_result
  SimCounters sim;
};

class CellRun {
 public:
  /// `tally` == nullptr assembles the untraced testbed.
  CellRun(const wfs::core::ExperimentConfig& config, PassTally* tally);
  CellRun(const CellRun&) = delete;
  CellRun& operator=(const CellRun&) = delete;

  /// Runs the cell to completion; call once.
  [[nodiscard]] wfs::core::ExperimentResult execute();

 private:
  PassTally* tally_;
  Layers layers_;
  wfs::core::ExperimentConfig config_;
  wfs::obs::TraceRecorder recorder_;
  wfs::metrics::MetricsRegistry registry_;
  wfs::metrics::MetricsRegistry* metrics_registry_ = nullptr;
  std::optional<wfs::cluster::Cluster> cluster_;
  std::unique_ptr<wfs::storage::DataStore> store_;
  wfs::storage::ShardedObjectStore* sharded_store_ = nullptr;
  std::unique_ptr<wfs::storage::CachedStore> cache_;
  std::optional<wfs::net::Router> router_;
  std::optional<wfs::wfcommons::Workflow> workflow_;
  std::unique_ptr<wfs::faas::KnativePlatform> knative_;
  std::unique_ptr<wfs::containers::LocalContainerRuntime> local_;
  std::optional<wfs::metrics::Sampler> sampler_;
  std::optional<wfs::core::WorkflowManager> wfm_;
};

class FleetRun {
 public:
  FleetRun(const wfs::core::FleetConfig& config, PassTally* tally);
  FleetRun(const FleetRun&) = delete;
  FleetRun& operator=(const FleetRun&) = delete;

  [[nodiscard]] wfs::core::FleetResult execute();

 private:
  PassTally* tally_;
  Layers layers_;
  wfs::core::FleetConfig config_;
  std::optional<wfs::cluster::Cluster> cluster_;
  std::unique_ptr<wfs::storage::DataStore> store_;
  wfs::storage::ShardedObjectStore* sharded_store_ = nullptr;
  std::unique_ptr<wfs::storage::CachedStore> cache_;
  std::optional<wfs::net::Router> router_;
  std::unique_ptr<wfs::faas::KnativePlatform> knative_;
  std::unique_ptr<wfs::containers::LocalContainerRuntime> local_;
  std::vector<wfs::wfcommons::Workflow> workflows_;
  std::optional<wfs::metrics::Sampler> sampler_;
  std::optional<wfs::core::WorkflowManager> wfm_;
};

class TrafficRun {
 public:
  TrafficRun(const wfs::load::TrafficConfig& config, PassTally* tally);
  TrafficRun(const TrafficRun&) = delete;
  TrafficRun& operator=(const TrafficRun&) = delete;

  [[nodiscard]] wfs::load::TrafficResult execute();

 private:
  PassTally* tally_;
  Layers layers_;
  wfs::load::TrafficConfig config_;
  std::optional<wfs::cluster::Cluster> cluster_;
  std::optional<wfs::storage::SharedFilesystem> fs_;
  std::optional<wfs::net::Router> router_;
  std::optional<wfs::faas::KnativePlatform> knative_;
  std::unique_ptr<wfs::metrics::MetricsRegistry> registry_;
  std::vector<wfs::wfcommons::Workflow> workflows_;
  std::vector<wfs::metrics::Histogram*> makespan_hists_;
  std::vector<std::vector<double>> arrivals_;
  std::optional<wfs::core::WorkflowManager> wfm_;
};

}  // namespace perfbench
