#include "mirror.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/results_io.h"
#include "metrics/aggregate.h"
#include "storage/object_store.h"
#include "support/format.h"
#include "support/rng.h"
#include "wfcommons/recipes/recipe.h"
#include "wfcommons/translators/knative.h"
#include "wfcommons/translators/local_container.h"

namespace perfbench {

namespace core = wfs::core;
namespace sim = wfs::sim;
namespace storage = wfs::storage;

namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

/// Times `fn` into `*counter` when tracing.
template <typename Fn>
auto timed(std::int64_t* counter, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    if (counter != nullptr) *counter += elapsed_ns(start);
  } else {
    auto value = fn();
    if (counter != nullptr) *counter += elapsed_ns(start);
    return value;
  }
}

wfs::wfcommons::Workflow generate(const std::string& recipe,
                                  const wfs::wfcommons::GenerateOptions& options,
                                  PassTally* tally) {
  return timed(tally != nullptr ? &tally->generate_ns : nullptr,
               [&] { return wfs::wfcommons::make_recipe(recipe)->generate(options); });
}

/// run_fleet and run_traffic point every task at the endpoint directly
/// instead of running a translator; the benchmark counts it as translation.
void stamp_endpoint(wfs::wfcommons::Workflow& workflow, const std::string& endpoint,
                    PassTally* tally) {
  timed(tally != nullptr ? &tally->translate_ns : nullptr, [&] {
    for (wfs::wfcommons::Task& task : workflow.tasks()) task.api_url = endpoint;
  });
}

/// load/traffic.cpp's percentile: nearest rank with interpolation over a
/// sorted vector.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void count_cache(SimCounters& counters, const storage::CachedStore* cache) {
  if (cache == nullptr) return;
  const storage::CacheStats stats = cache->stats();
  counters.cache_hits += stats.hits;
  counters.cache_misses += stats.misses;
  counters.p2p_transfers += stats.p2p_transfers;
}

void count_platform(SimCounters& counters, const wfs::faas::KnativePlatform& knative) {
  counters.cold_starts += knative.stats().pods_created;
  counters.rejected += knative.activator().total_rejected();
  counters.activator_wait_s += knative.activator().total_wait_seconds();
}

void count_run(SimCounters& counters, const core::WorkflowRunResult& run) {
  counters.tasks += run.tasks_total;
  counters.retries += run.task_retries;
}

}  // namespace

// ---- CellRun: core::ExperimentRunner::run ----------------------------------

CellRun::CellRun(const core::ExperimentConfig& config, PassTally* tally)
    : tally_(tally),
      layers_(tally != nullptr ? &tally->layers : nullptr),
      config_(config) {
  if (config.sim_shards != 1 || config.storage_kill_at_seconds > 0.0 ||
      !config.trace_path.empty()) {
    throw std::invalid_argument("CellRun mirrors the single-engine, chaos-free, untraced cell");
  }
  recorder_.set_enabled(false);
  metrics_registry_ = config.collect_metrics ? &registry_ : nullptr;
  cluster_.emplace(wfs::cluster::Cluster::paper_testbed(layers_.at(Layer::kCluster)));
  sim::Context& storage_sim = layers_.at(Layer::kStorage);
  if (config.storage_nodes > 0) {
    storage::ShardedStoreConfig sharded_config;
    sharded_config.num_nodes = config.storage_nodes;
    sharded_config.replication_factor = config.replication_factor;
    auto sharded = std::make_unique<storage::ShardedObjectStore>(storage_sim, sharded_config);
    sharded->set_trace(&recorder_);
    sharded_store_ = sharded.get();
    store_ = std::move(sharded);
  } else if (config.backend == core::DataBackend::kObjectStore) {
    store_ = std::make_unique<storage::ObjectStore>(storage_sim);
  } else {
    store_ = std::make_unique<storage::SharedFilesystem>(storage_sim);
  }
  if (config.data_cache_mb_per_node > 0) {
    storage::CacheConfig cache_config;
    cache_config.capacity_bytes = config.data_cache_mb_per_node << 20;
    cache_config.p2p_enabled = config.p2p_transfer;
    cache_ = std::make_unique<storage::CachedStore>(storage_sim, *store_, cache_config);
    cache_->set_trace(&recorder_);
  }
  storage::DataStore& fs = cache_ ? *cache_ : *store_;
  fs.set_metrics(metrics_registry_);
  router_.emplace(layers_.at(Layer::kNet), wfs::net::NetworkConfig{}, config.seed);
  router_->set_trace(&recorder_);
  router_->set_metrics(metrics_registry_);

  wfs::wfcommons::GenerateOptions gen;
  gen.num_tasks = config.num_tasks;
  gen.seed = config.seed;
  gen.cpu_work = config.cpu_work;
  gen.data_scale = config.data_scale;
  workflow_.emplace(generate(config.recipe, gen, tally_));

  std::int64_t* translate_ns = tally_ != nullptr ? &tally_->translate_ns : nullptr;
  if (core::paradigm_info(config.paradigm).serverless) {
    wfs::faas::KnativeServiceSpec spec = config.knative_spec_override.has_value()
                                             ? *config.knative_spec_override
                                             : core::knative_spec_for(config.paradigm, config.shape);
    if (config.cache_aware_placement) spec.cache_aware_placement = true;
    if (config.tenant_quota > 0) spec.admission.tenant_inflight_limit = config.tenant_quota;
    if (config.tenant_queue_limit > 0) {
      spec.admission.tenant_queue_limit = config.tenant_queue_limit;
    }
    if (config.fair_dequeue) spec.admission.fair_dequeue = true;
    wfs::wfcommons::KnativeTranslatorConfig tconfig;
    tconfig.service_url = "http://" + spec.authority + "/wfbench";
    tconfig.workdir = config.wfm.workdir;
    timed(translate_ns, [&] { wfs::wfcommons::KnativeTranslator(tconfig).apply(*workflow_); });
    knative_ = std::make_unique<wfs::faas::KnativePlatform>(layers_.at(Layer::kFaas), *cluster_,
                                                            fs, *router_, spec);
    knative_->set_trace(&recorder_);
    knative_->set_metrics(metrics_registry_);
    if (cache_) knative_->set_data_cache(cache_.get());
    knative_->deploy();
  } else {
    wfs::containers::LocalRuntimeConfig lconfig =
        config.local_config_override.has_value()
            ? *config.local_config_override
            : core::local_config_for(config.paradigm, config.shape);
    wfs::wfcommons::LocalContainerTranslatorConfig tconfig;
    tconfig.endpoint_url = "http://" + lconfig.authority + "/wfbench";
    tconfig.workdir = config.wfm.workdir;
    timed(translate_ns,
          [&] { wfs::wfcommons::LocalContainerTranslator(tconfig).apply(*workflow_); });
    local_ = std::make_unique<wfs::containers::LocalContainerRuntime>(
        layers_.at(Layer::kContainers), *cluster_, fs, *router_, lconfig);
    local_->start();
  }

  sampler_.emplace(layers_.at(Layer::kSampler), sim::from_seconds(config.sample_period_seconds));
  wfs::cluster::Cluster& cluster = *cluster_;
  sampler_->add_probe("cpu_pct", [&cluster] { return cluster.cpu_fraction() * 100.0; });
  sampler_->add_probe(
      "mem_gib", [&cluster] { return static_cast<double>(cluster.resident_memory()) / kGiB; });
  sampler_->add_probe("power_w", [&cluster] { return cluster.power_watts(); });
  sampler_->add_probe("pods", [this]() -> double {
    if (knative_) return knative_->ready_pods();
    return local_ ? static_cast<double>(local_->container_count()) : 0.0;
  });
  sampler_->sample_now();
  sampler_->start();

  wfm_.emplace(layers_.at(Layer::kWfm), *router_, fs);
  wfm_->set_trace(&recorder_);
  wfm_->set_metrics(metrics_registry_);
}

core::ExperimentResult CellRun::execute() {
  core::ExperimentResult result;
  result.config = config_;
  result.paradigm_name = core::paradigm_info(config_.paradigm).name;
  result.workflow_name = workflow_->name();

  std::optional<core::WorkflowRunResult> run_result;
  wfs::metrics::Sampler& sampler = *sampler_;
  const core::RunHandle handle =
      wfm_->run(*workflow_, [&run_result, &sampler](core::WorkflowRunResult r) {
        run_result = std::move(r);
        sampler.sample_now();
        sampler.stop();
      }, config_.wfm);

  sim::Simulation& engine = layers_.engine();
  const sim::SimTime deadline = sim::from_seconds(config_.deadline_seconds);
  {
    const LoopTimer loop(tally_ != nullptr ? &tally_->layers : nullptr);
    while (!handle.done() && !engine.idle() && engine.now() < deadline) engine.step(1);
  }

  if (!run_result.has_value()) {
    result.completed = false;
    result.failure_reason = engine.now() >= deadline
                                ? "did not conclude before the deadline"
                                : "execution stalled (platform made no progress)";
    result.makespan_seconds = sim::to_seconds(engine.now());
    sampler.stop();
  } else {
    result.completed = run_result->completed;
    result.run = std::move(*run_result);
    result.makespan_seconds = result.run.makespan_seconds;
    if (result.run.tasks_failed > 0) {
      result.failure_reason = wfs::support::format(
          "{} of {} functions failed", result.run.tasks_failed, result.run.tasks_total);
    }
  }

  result.cpu_series = sampler.series("cpu_pct");
  result.memory_series = sampler.series("mem_gib");
  result.power_series = sampler.series("power_w");
  result.pods_series = sampler.series("pods");
  result.cpu_percent = wfs::metrics::summarize(result.cpu_series);
  result.memory_gib = wfs::metrics::summarize(result.memory_series);
  result.power_watts = wfs::metrics::summarize(result.power_series);
  result.energy_joules = result.power_series.integral();

  result.node_oom_events = cluster_->oom_events();
  result.storage_bytes_read = store_->bytes_read();
  result.storage_bytes_written = store_->bytes_written();
  if (cache_) {
    const storage::CacheStats cache_stats = cache_->stats();
    result.cache_hits = cache_stats.hits;
    result.cache_misses = cache_stats.misses;
    result.cache_evictions = cache_stats.evictions;
    result.cache_bytes_saved = cache_stats.bytes_saved;
    result.cache_hit_rate = cache_stats.hit_rate();
    result.p2p_transfers = cache_stats.p2p_transfers;
    result.p2p_bytes_saved = cache_stats.p2p_bytes;
  }
  if (sharded_store_ != nullptr) {
    result.storage_repair_objects = sharded_store_->repaired_objects();
    result.storage_repair_bytes = sharded_store_->repaired_bytes();
    result.storage_node_kills = sharded_store_->node_kills();
    result.storage_under_replicated = sharded_store_->under_replicated();
    result.storage_lost_objects = sharded_store_->lost_objects();
  }
  if (knative_) {
    result.locality_placements = knative_->scheduler().locality_placements();
    result.cold_starts = knative_->stats().pods_created;
    result.chaos_kills = knative_->stats().chaos_kills;
    result.max_ready_pods = knative_->stats().max_ready_pods;
    result.scheduling_failures = knative_->stats().scheduling_failures;
    result.service_oom_failures = knative_->service_oom_failures();
    result.activator_wait_seconds = knative_->activator().total_wait_seconds();
    if (tally_ != nullptr) count_platform(tally_->sim, *knative_);
    knative_->shutdown();
    result.cold_start_seconds = knative_->stats().cold_start_seconds;
  }
  if (local_) {
    result.service_oom_failures = local_->service_oom_failures();
    local_->shutdown();
  }
  if (result.completed && result.failure_reason.empty() && result.node_oom_events > 0) {
    result.failure_reason = wfs::support::format("node memory exhausted ({} OOM events)",
                                                 result.node_oom_events);
  }
  if (metrics_registry_ != nullptr) result.metrics = metrics_registry_->snapshot();

  if (tally_ != nullptr) {
    SimCounters& counters = tally_->sim;
    count_run(counters, result.run);
    counters.bytes_read += result.storage_bytes_read;
    counters.bytes_written += result.storage_bytes_written;
    count_cache(counters, cache_.get());
  }
  return result;
}

// ---- FleetRun: core::run_fleet ---------------------------------------------

FleetRun::FleetRun(const core::FleetConfig& config, PassTally* tally)
    : tally_(tally),
      layers_(tally != nullptr ? &tally->layers : nullptr),
      config_(config) {
  if (config.items.empty()) throw std::invalid_argument("run_fleet: no workflows");
  if (config.sim_shards != 1 || !config.concurrent) {
    throw std::invalid_argument("FleetRun mirrors the single-engine concurrent fleet");
  }
  const core::ParadigmInfo& paradigm = core::paradigm_info(config.paradigm);
  cluster_.emplace(wfs::cluster::Cluster::paper_testbed(layers_.at(Layer::kCluster)));
  sim::Context& storage_sim = layers_.at(Layer::kStorage);
  if (config.storage_nodes > 0) {
    storage::ShardedStoreConfig sharded_config;
    sharded_config.num_nodes = config.storage_nodes;
    sharded_config.replication_factor = config.replication_factor;
    auto sharded = std::make_unique<storage::ShardedObjectStore>(storage_sim, sharded_config);
    sharded_store_ = sharded.get();
    store_ = std::move(sharded);
  } else {
    store_ = std::make_unique<storage::SharedFilesystem>(storage_sim);
  }
  if (config.data_cache_mb_per_node > 0) {
    storage::CacheConfig cache_config;
    cache_config.capacity_bytes = config.data_cache_mb_per_node << 20;
    cache_config.p2p_enabled = config.p2p_transfer;
    cache_ = std::make_unique<storage::CachedStore>(storage_sim, *store_, cache_config);
  }
  storage::DataStore& fs = cache_ ? *cache_ : *store_;
  router_.emplace(layers_.at(Layer::kNet), wfs::net::NetworkConfig{}, config.items.front().seed);

  std::string endpoint;
  if (paradigm.serverless) {
    wfs::faas::KnativeServiceSpec spec = core::knative_spec_for(config.paradigm, config.shape);
    spec.admission.tenant_inflight_limit = config.tenant_quota;
    spec.admission.tenant_queue_limit = config.tenant_queue_limit;
    spec.admission.fair_dequeue = config.fair_dequeue;
    knative_ = std::make_unique<wfs::faas::KnativePlatform>(layers_.at(Layer::kFaas), *cluster_,
                                                            fs, *router_, spec);
    if (cache_) knative_->set_data_cache(cache_.get());
    knative_->deploy();
    endpoint = "http://" + spec.authority + "/wfbench";
  } else {
    wfs::containers::LocalRuntimeConfig lconfig =
        core::local_config_for(config.paradigm, config.shape);
    local_ = std::make_unique<wfs::containers::LocalContainerRuntime>(
        layers_.at(Layer::kContainers), *cluster_, fs, *router_, lconfig);
    local_->start();
    endpoint = "http://" + lconfig.authority + "/wfbench";
  }

  for (const core::FleetItem& item : config.items) {
    wfs::wfcommons::GenerateOptions options;
    options.num_tasks = item.num_tasks;
    options.seed = item.seed;
    options.cpu_work = config.cpu_work;
    wfs::wfcommons::Workflow wf = generate(item.recipe, options, tally_);
    stamp_endpoint(wf, endpoint, tally_);
    workflows_.push_back(std::move(wf));
  }

  sampler_.emplace(layers_.at(Layer::kSampler));
  wfs::cluster::Cluster& cluster = *cluster_;
  sampler_->add_probe("cpu_pct", [&cluster] { return cluster.cpu_fraction() * 100.0; });
  sampler_->add_probe(
      "mem_gib", [&cluster] { return static_cast<double>(cluster.resident_memory()) / kGiB; });
  sampler_->add_probe("power_w", [&cluster] { return cluster.power_watts(); });
  sampler_->sample_now();
  sampler_->start();

  wfm_.emplace(layers_.at(Layer::kWfm), *router_, fs, config.wfm);
}

core::FleetResult FleetRun::execute() {
  core::FleetResult result;
  result.runs.resize(workflows_.size());
  wfs::metrics::Sampler& sampler = *sampler_;
  std::size_t remaining = workflows_.size();
  const auto record = [&](std::size_t index, core::WorkflowRunResult run) {
    result.runs[index] = std::move(run);
    if (--remaining == 0) {
      sampler.sample_now();
      sampler.stop();
    }
  };
  const auto run_config = [this](std::size_t index) -> std::optional<core::WfmConfig> {
    if (config_.items[index].tenant.empty()) return std::nullopt;
    core::WfmConfig wfm_config = config_.wfm;
    wfm_config.tenant = config_.items[index].tenant;
    return wfm_config;
  };
  for (std::size_t i = 0; i < workflows_.size(); ++i) {
    wfm_->run(workflows_[i],
              [&record, i](core::WorkflowRunResult run) { record(i, std::move(run)); },
              run_config(i));
  }

  {
    const LoopTimer loop(tally_ != nullptr ? &tally_->layers : nullptr);
    layers_.engine().run_until(sim::from_seconds(config_.deadline_seconds));
  }

  result.completed = remaining == 0;
  for (const core::WorkflowRunResult& run : result.runs) {
    result.workflows_failed += run.ok() ? 0 : 1;
  }
  result.wall_seconds = sim::to_seconds(sampler.series("cpu_pct").samples().back().time);
  result.cpu_percent = wfs::metrics::summarize(sampler.series("cpu_pct"));
  result.memory_gib = wfs::metrics::summarize(sampler.series("mem_gib"));
  result.power_watts = wfs::metrics::summarize(sampler.series("power_w"));
  result.energy_joules = sampler.series("power_w").integral();
  if (knative_) {
    result.cold_starts = knative_->stats().pods_created;
    if (tally_ != nullptr) count_platform(tally_->sim, *knative_);
    knative_->shutdown();
  }
  if (local_) local_->shutdown();
  if (cache_) {
    const storage::CacheStats cache_stats = cache_->stats();
    result.cache_hits = cache_stats.hits;
    result.p2p_transfers = cache_stats.p2p_transfers;
  }
  if (sharded_store_ != nullptr) {
    result.storage_repair_objects = sharded_store_->repaired_objects();
  }

  if (tally_ != nullptr) {
    SimCounters& counters = tally_->sim;
    for (const core::WorkflowRunResult& run : result.runs) count_run(counters, run);
    counters.bytes_read += store_->bytes_read();
    counters.bytes_written += store_->bytes_written();
    count_cache(counters, cache_.get());
  }
  return result;
}

// ---- TrafficRun: load::run_traffic -------------------------------------------

TrafficRun::TrafficRun(const wfs::load::TrafficConfig& config, PassTally* tally)
    : tally_(tally),
      layers_(tally != nullptr ? &tally->layers : nullptr),
      config_(config) {
  if (config.tenants.empty()) throw std::invalid_argument("run_traffic: no tenants");
  if (config.sim_shards != 1 || config.arrival != wfs::load::ArrivalProcess::kPoisson) {
    throw std::invalid_argument("TrafficRun mirrors single-engine Poisson traffic");
  }
  if (!core::paradigm_info(config.paradigm).serverless) {
    throw std::invalid_argument("run_traffic: tenancy lives in the activator");
  }
  double total_share = 0.0;
  for (const wfs::load::TenantSpec& tenant : config.tenants) {
    if (tenant.name.empty()) throw std::invalid_argument("run_traffic: tenant without name");
    total_share += std::max(tenant.rate_share, 0.0);
  }
  if (total_share <= 0.0) throw std::invalid_argument("run_traffic: zero total rate share");

  cluster_.emplace(wfs::cluster::Cluster::paper_testbed(layers_.at(Layer::kCluster)));
  fs_.emplace(layers_.at(Layer::kStorage));
  router_.emplace(layers_.at(Layer::kNet), wfs::net::NetworkConfig{}, config.seed);

  wfs::faas::KnativeServiceSpec spec = core::knative_spec_for(config.paradigm, config.shape);
  spec.admission.tenant_inflight_limit = config.tenant_quota;
  spec.admission.tenant_queue_limit = config.tenant_queue_limit;
  spec.admission.fair_dequeue = config.fair_dequeue;
  for (const wfs::load::TenantSpec& tenant : config.tenants) {
    if (tenant.weight != 1.0) spec.admission.weights[tenant.name] = tenant.weight;
  }
  knative_.emplace(layers_.at(Layer::kFaas), *cluster_, *fs_, *router_, spec);
  if (config.collect_metrics) {
    registry_ = std::make_unique<wfs::metrics::MetricsRegistry>();
    knative_->set_metrics(registry_.get());
  }
  knative_->deploy();
  const std::string endpoint = "http://" + spec.authority + "/wfbench";

  makespan_hists_.assign(config.tenants.size(), nullptr);
  for (std::size_t i = 0; i < config.tenants.size(); ++i) {
    const wfs::load::TenantSpec& tenant = config.tenants[i];
    wfs::wfcommons::GenerateOptions options;
    options.num_tasks = tenant.num_tasks;
    options.seed = config.seed + i;
    options.cpu_work = config.cpu_work;
    wfs::wfcommons::Workflow wf = generate(tenant.recipe, options, tally_);
    stamp_endpoint(wf, endpoint, tally_);
    workflows_.push_back(std::move(wf));
    if (registry_) {
      makespan_hists_[i] = &registry_->histogram(
          "tenant_makespan_seconds", "Per-tenant workflow makespan distribution",
          {{"tenant", tenant.name}});
    }
  }

  wfs::support::Rng root(config.seed);
  for (const wfs::load::TenantSpec& tenant : config.tenants) {
    wfs::support::Rng stream = root.fork();
    const double rate =
        config.offered_load_rps * std::max(tenant.rate_share, 0.0) / total_share;
    arrivals_.push_back(wfs::load::poisson_arrivals(stream, rate, config.window_seconds));
  }

  wfm_.emplace(layers_.at(Layer::kWfm), *router_, *fs_, config.wfm);
  if (registry_) wfm_->set_metrics(registry_.get());
}

wfs::load::TrafficResult TrafficRun::execute() {
  wfs::load::TrafficResult result;
  result.tenants.resize(config_.tenants.size());
  std::vector<std::vector<double>> makespans(config_.tenants.size());
  for (std::size_t i = 0; i < config_.tenants.size(); ++i) {
    result.tenants[i].name = config_.tenants[i].name;
    result.tenants[i].weight = config_.tenants[i].weight;
    result.tenants[i].submitted = arrivals_[i].size();
    result.submitted += arrivals_[i].size();
  }

  std::size_t remaining = result.submitted;
  std::uint64_t tasks = 0;
  std::uint64_t retries = 0;
  const auto record = [&](std::size_t tenant_idx, core::WorkflowRunResult run) {
    tasks += run.tasks_total;
    retries += run.task_retries;
    wfs::load::TenantStats& stats = result.tenants[tenant_idx];
    if (run.ok()) {
      ++stats.completed;
      makespans[tenant_idx].push_back(run.makespan_seconds);
      if (makespan_hists_[tenant_idx] != nullptr) {
        makespan_hists_[tenant_idx]->observe(run.makespan_seconds);
      }
    } else {
      ++stats.failed;
    }
    --remaining;
  };

  // The arrivals are the load layer's events.
  sim::Context& load_sim = layers_.at(Layer::kLoad);
  core::WorkflowManager& wfm = *wfm_;
  for (std::size_t i = 0; i < config_.tenants.size(); ++i) {
    core::WfmConfig run_config = config_.wfm;
    run_config.tenant = config_.tenants[i].name;
    run_config.task_retries = config_.task_retries;
    for (const double at : arrivals_[i]) {
      load_sim.schedule_in(sim::from_seconds(at), [this, &wfm, &record, i, run_config] {
        wfm.run(workflows_[i],
                [&record, i](core::WorkflowRunResult run) { record(i, std::move(run)); },
                run_config);
      });
    }
  }

  sim::Simulation& engine = layers_.engine();
  {
    const LoopTimer loop(tally_ != nullptr ? &tally_->layers : nullptr);
    engine.run_until(sim::from_seconds(config_.window_seconds + config_.drain_seconds));
  }

  result.drained = remaining == 0;
  result.offered_rps = config_.offered_load_rps;
  result.wall_seconds = sim::to_seconds(engine.now());
  result.cold_starts = knative_->stats().pods_created;
  result.rejected_requests = knative_->activator().total_rejected();
  const auto& tenant_counters = knative_->activator().tenants();

  std::vector<double> fair_share;
  for (std::size_t i = 0; i < result.tenants.size(); ++i) {
    wfs::load::TenantStats& stats = result.tenants[i];
    stats.failed += stats.submitted - stats.completed - stats.failed;
    if (auto it = tenant_counters.find(stats.name); it != tenant_counters.end()) {
      stats.rejected_requests = it->second.rejected;
    }
    std::sort(makespans[i].begin(), makespans[i].end());
    if (!makespans[i].empty()) {
      double sum = 0.0;
      for (const double m : makespans[i]) sum += m;
      stats.mean_makespan_seconds = sum / static_cast<double>(makespans[i].size());
      stats.p50_makespan_seconds = percentile(makespans[i], 0.50);
      stats.p99_makespan_seconds = percentile(makespans[i], 0.99);
    }
    stats.goodput_rps = static_cast<double>(stats.completed) / config_.window_seconds;
    result.completed += stats.completed;
    result.failed += stats.failed;
    if (stats.submitted > 0) {
      if (stats.completed == 0) ++result.starved_tenants;
      fair_share.push_back(stats.goodput_rps / std::max(stats.weight, 1e-9));
    }
  }
  result.goodput_rps = static_cast<double>(result.completed) / config_.window_seconds;
  result.jain_fairness = wfs::metrics::jain_fairness(fair_share);

  if (tally_ != nullptr) {
    SimCounters& counters = tally_->sim;
    count_platform(counters, *knative_);
    counters.tasks += tasks;
    counters.retries += retries;
    counters.bytes_read += fs_->bytes_read();
    counters.bytes_written += fs_->bytes_written();
  }
  knative_->shutdown();
  if (registry_) result.metrics = registry_->snapshot();
  return result;
}

}  // namespace perfbench
