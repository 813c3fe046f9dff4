#include "workloads.h"

#include <string_view>

#include "core/results_io.h"
#include "digest.h"
#include "wfcommons/recipes/recipe.h"

namespace perfbench {

namespace core = wfs::core;
namespace load = wfs::load;

namespace {

/// Tasks per fleet workflow, so that a pass takes seconds. Past ~550 tasks
/// the 14 workflows outlast run_fleet's default 4 h deadline; at 2,000 they
/// finish after about 13.5 simulated hours, so the fleet gets a 24 h one.
constexpr std::size_t kFleetTasks = 2000;
constexpr double kFleetDeadlineSeconds = 24.0 * 3600.0;

double ms_since(Clock::time_point start) { return static_cast<double>(elapsed_ns(start)) / 1e6; }

/// Campaign::run's cell order (core/campaign.cpp, enumerate_cells) for the
/// single-seed, single-scheduling campaigns the benchmark runs.
std::vector<core::ExperimentConfig> campaign_cells(const core::CampaignSpec& spec) {
  std::vector<core::ExperimentConfig> cells;
  for (const std::string& recipe : spec.recipes) {
    for (const std::size_t size : spec.sizes) {
      for (const core::Paradigm paradigm : spec.paradigms) {
        core::ExperimentConfig config;
        config.paradigm = paradigm;
        config.recipe = recipe;
        config.num_tasks = size;
        config.seed = spec.seed;
        config.cpu_work = spec.cpu_work;
        config.wfm = spec.wfm;
        config.collect_metrics = spec.collect_metrics;
        cells.push_back(std::move(config));
      }
    }
  }
  return cells;
}

load::TrafficConfig traffic_config(std::uint64_t seed, double offered_rps, double window) {
  load::TrafficConfig config;
  config.tenants = {{"alice", "blast", 10, 1.0, 1.0}, {"bob", "cycles", 10, 1.0, 1.0}};
  config.offered_load_rps = offered_rps;
  config.window_seconds = window;
  config.drain_seconds = 2.0 * window;
  config.cpu_work = 50.0;
  config.seed = seed;
  config.collect_metrics = false;
  return config;
}

/// The paper's Table I shape: exactly bwa-1000 and genome-1000 on
/// LC1000wPM fail, with the memory limit; every other cell is ok.
bool cell_shape_ok(const core::ExperimentResult& result) {
  const core::ExperimentConfig& c = result.config;
  const bool expected_failure = c.paradigm == core::Paradigm::kLC1000wPM &&
                                c.num_tasks == 1000 &&
                                (c.recipe == "bwa" || c.recipe == "genome");
  if (expected_failure) return !result.ok() && result.service_oom_failures > 0;
  return result.ok();
}

std::uint64_t completed_tasks(const core::WorkflowRunResult& run) {
  return run.tasks_total - run.tasks_failed;
}

std::uint64_t completed_tasks(const load::TrafficConfig& config,
                              const load::TrafficResult& result) {
  std::uint64_t tasks = 0;
  for (std::size_t i = 0; i < result.tenants.size(); ++i) {
    tasks += result.tenants[i].completed * config.tenants[i].num_tasks;
  }
  return tasks;
}

std::vector<std::string_view> lines(std::string_view text) {
  std::vector<std::string_view> out;
  while (!text.empty()) {
    const std::size_t end = text.find('\n');
    out.push_back(text.substr(0, end));
    if (end == std::string_view::npos) break;
    text.remove_prefix(end + 1);
  }
  return out;
}

RunOutput cell_output(const core::ExperimentResult& result, const std::string& document) {
  const std::uint64_t doc = digest_text(document);
  return {doc, doc, cell_shape_ok(result)};
}

void add_fleet(PassResult& pass, const core::FleetResult& fleet) {
  const std::uint64_t summary = digest_fleet_summary(fleet);
  for (const core::WorkflowRunResult& run : fleet.runs) {
    const std::uint64_t d = Digest().add(digest_run(run)).add(summary).value();
    pass.runs.push_back({d, d, run.ok()});
    pass.tasks_completed += completed_tasks(run);
  }
}

}  // namespace

std::optional<WorkloadSpec> make_workload(const std::string& name, std::uint64_t seed,
                                          Scale scale) {
  const bool smoke = scale == Scale::kSmoke;
  WorkloadSpec spec;
  spec.name = name;
  if (name == "table1-campaign") {
    core::CampaignSpec fine = core::paper_fine_grained_campaign();
    core::CampaignSpec coarse = core::paper_coarse_grained_campaign();
    if (smoke) {
      fine.sizes = {20};
      coarse.sizes = {50};
    }
    for (core::CampaignSpec* half : {&fine, &coarse}) {
      half->seed = seed;
      half->jobs = 1;
      for (core::ExperimentConfig& cell : campaign_cells(*half)) spec.cells.push_back(cell);
      spec.campaigns.push_back(*half);
    }
  } else if (name == "genome-5000") {
    core::ExperimentConfig cell;
    cell.paradigm = core::Paradigm::kKn1000wPM;
    cell.recipe = "genome";
    cell.num_tasks = smoke ? 500 : 5000;
    cell.seed = seed;
    spec.cells.push_back(cell);
  } else if (name == "tenant-sweep") {
    // The multi-tenant ablation's knee ladder and isolation pair, on a
    // 1800 s window instead of its 300 s so a pass takes over a second.
    const double window = smoke ? 300.0 : 1800.0;
    for (const double offered : {0.02, 0.04, 0.08, 0.16, 0.32, 0.64}) {
      spec.traffic.push_back(traffic_config(seed, offered, window));
    }
    // Greedy tenant at 10x share, offered 0.64 rps (twice the 0.32 rps knee).
    load::TrafficConfig greedy = traffic_config(seed, 0.64, window);
    greedy.tenants = {{"greedy", "blast", 10, 1.0, 10.0},
                      {"small-a", "blast", 10, 1.0, 1.0},
                      {"small-b", "cycles", 10, 1.0, 1.0}};
    load::TrafficConfig guarded = greedy;
    guarded.tenant_quota = 48;
    guarded.tenant_queue_limit = 256;
    guarded.fair_dequeue = true;
    spec.traffic.push_back(greedy);
    spec.traffic.push_back(guarded);
  } else if (name == "fleet-dataplane") {
    core::FleetConfig fleet;
    fleet.paradigm = core::Paradigm::kKn10wNoPM;
    // Each recipe twice with the same seed, so the copies share inputs.
    for (int copy = 0; copy < 2; ++copy) {
      for (const std::string& recipe : wfs::wfcommons::recipe_names()) {
        fleet.items.push_back({recipe, smoke ? std::size_t{100} : kFleetTasks, seed, ""});
      }
    }
    fleet.storage_nodes = 4;
    fleet.replication_factor = 2;
    fleet.data_cache_mb_per_node = 4096;
    fleet.p2p_transfer = true;
    fleet.deadline_seconds = kFleetDeadlineSeconds;
    spec.fleets.push_back(fleet);
  } else {
    return std::nullopt;
  }
  return spec;
}

double setup_once(const WorkloadSpec& spec) {
  double seconds = 0.0;
  const auto time_construction = [&seconds](auto make) {
    const Clock::time_point start = Clock::now();
    const auto built = make();
    seconds += static_cast<double>(elapsed_ns(start)) / 1e9;
  };
  for (const core::ExperimentConfig& cell : spec.cells) {
    time_construction([&] { return std::make_unique<CellRun>(cell, nullptr); });
  }
  for (const load::TrafficConfig& config : spec.traffic) {
    time_construction([&] { return std::make_unique<TrafficRun>(config, nullptr); });
  }
  for (const core::FleetConfig& config : spec.fleets) {
    time_construction([&] { return std::make_unique<FleetRun>(config, nullptr); });
  }
  return seconds;
}

PassResult run_untraced(const WorkloadSpec& spec) {
  PassResult pass;
  const Clock::time_point start = Clock::now();
  for (const core::CampaignSpec& campaign_spec : spec.campaigns) {
    core::Campaign campaign(campaign_spec);
    const std::size_t first_unit = pass.unit_ms.size();
    Clock::time_point last = Clock::now();
    campaign.run([&](const core::ExperimentResult&) {
      pass.unit_ms.push_back(ms_since(last));
      last = Clock::now();
    });
    const std::string csv = campaign.summary_csv();
    const std::vector<std::string_view> rows = lines(csv);
    const std::uint64_t header = digest_text(rows.at(0));
    const std::vector<core::ExperimentResult>& results = campaign.results();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Clock::time_point write_start = Clock::now();
      const std::string document = core::write_result(results[i]);
      pass.unit_ms[first_unit + i] += ms_since(write_start);
      RunOutput out = cell_output(results[i], document);
      out.digest = Digest().add(out.cross).add(header).add(digest_text(rows.at(i + 1))).value();
      pass.runs.push_back(out);
      pass.tasks_completed += completed_tasks(results[i].run);
    }
  }
  if (spec.campaigns.empty()) {
    for (const core::ExperimentConfig& cell : spec.cells) {
      const Clock::time_point unit_start = Clock::now();
      const core::ExperimentResult result = core::run_experiment(cell);
      const std::string document = core::write_result(result);
      pass.unit_ms.push_back(ms_since(unit_start));
      pass.runs.push_back(cell_output(result, document));
      pass.tasks_completed += completed_tasks(result.run);
    }
  }
  for (const load::TrafficConfig& config : spec.traffic) {
    const Clock::time_point unit_start = Clock::now();
    const load::TrafficResult result = load::run_traffic(config);
    pass.unit_ms.push_back(ms_since(unit_start));
    const std::uint64_t d = digest_traffic(result);
    pass.runs.push_back({d, d, true});
    pass.tasks_completed += completed_tasks(config, result);
  }
  for (const core::FleetConfig& config : spec.fleets) {
    const Clock::time_point unit_start = Clock::now();
    const core::FleetResult result = core::run_fleet(config);
    pass.unit_ms.push_back(ms_since(unit_start));
    add_fleet(pass, result);
  }
  pass.wall_s = static_cast<double>(elapsed_ns(start)) / 1e9;
  return pass;
}

PassResult run_traced(const WorkloadSpec& spec, PassTally& tally) {
  PassResult pass;
  const Clock::time_point start = Clock::now();
  for (const core::ExperimentConfig& cell : spec.cells) {
    const Clock::time_point unit_start = Clock::now();
    core::ExperimentResult result = CellRun(cell, &tally).execute();
    const Clock::time_point write_start = Clock::now();
    const std::string document = core::write_result(result);
    tally.write_ns += elapsed_ns(write_start);
    pass.unit_ms.push_back(ms_since(unit_start));
    pass.runs.push_back(cell_output(result, document));
    pass.tasks_completed += completed_tasks(result.run);
  }
  for (const load::TrafficConfig& config : spec.traffic) {
    const Clock::time_point unit_start = Clock::now();
    const load::TrafficResult result = TrafficRun(config, &tally).execute();
    pass.unit_ms.push_back(ms_since(unit_start));
    const std::uint64_t d = digest_traffic(result);
    pass.runs.push_back({d, d, true});
    pass.tasks_completed += completed_tasks(config, result);
  }
  for (const core::FleetConfig& config : spec.fleets) {
    const Clock::time_point unit_start = Clock::now();
    const core::FleetResult result = FleetRun(config, &tally).execute();
    pass.unit_ms.push_back(ms_since(unit_start));
    add_fleet(pass, result);
  }
  pass.wall_s = static_cast<double>(elapsed_ns(start)) / 1e9;
  return pass;
}

}  // namespace perfbench
