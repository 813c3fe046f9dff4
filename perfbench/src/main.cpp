// perfbench: end-to-end benchmark of the simulator on paper workloads.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale full|smoke] [--reference FILE] [--write-reference FILE]
//
// Both modes start with an untimed warm-up pass. --trace 0 then repeats
// set-up and untraced passes (the program's public runners) until S
// seconds have passed, sampling a machine-speed gauge (speed.h) between
// them, and prints the end-to-end metrics at reference speed. --trace 1
// alternates untraced and traced passes for S seconds and prints the
// per-layer metrics; the traced outputs must match the untraced ones. Every simulated run is digested and checked against the
// reference for (workload, scale, seed) when there is one; otherwise the
// digest is printed so two builds can be compared on a held-out seed. The
// last line of stdout is one JSON object: correct, attempted (simulated
// runs), failed (runs whose outputs are wrong), metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "digest.h"
#include "json/parse.h"
#include "json/write.h"
#include "speed.h"
#include "support/log.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string reference;
  std::string write_reference;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else if (key == "--scale") {
        if (value != "full" && value != "smoke") return false;
        args.scale = value == "smoke" ? Scale::kSmoke : Scale::kFull;
      } else if (key == "--reference") {
        args.reference = value;
      } else if (key == "--write-reference") {
        args.write_reference = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

std::string reference_key(const Args& args) {
  return args.workload + "/" + (args.scale == Scale::kSmoke ? "smoke" : "full") + "/" +
         std::to_string(args.seed);
}

wfs::json::Value read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return wfs::json::Value(wfs::json::Object{});
  std::stringstream text;
  text << in.rdbuf();
  return wfs::json::parse(text.str());
}

/// The committed per-run digests for this (workload, scale, seed), if any.
std::optional<std::vector<std::string>> load_reference(const Args& args) {
  if (args.reference.empty()) return std::nullopt;
  const wfs::json::Value root = read_json_file(args.reference);
  const wfs::json::Value* entry = root.find(reference_key(args));
  if (entry == nullptr) return std::nullopt;
  const wfs::json::Value* listed = entry->find("runs");
  if (listed == nullptr || !listed->is_array()) {
    throw std::runtime_error("reference entry " + reference_key(args) + " has no runs");
  }
  std::vector<std::string> runs;
  for (const wfs::json::Value& run : listed->as_array()) {
    runs.push_back(run.as_string());
  }
  return runs;
}

void write_reference(const Args& args, const std::vector<RunOutput>& runs, std::uint64_t total) {
  wfs::json::Value root = read_json_file(args.write_reference);
  wfs::json::Array digests;
  for (const RunOutput& run : runs) digests.push_back(wfs::json::Value(to_hex(run.digest)));
  wfs::json::Object entry;
  entry.set("digest", to_hex(total));
  entry.set("runs", std::move(digests));
  root.as_object().set(reference_key(args), wfs::json::Value(std::move(entry)));
  std::ofstream(args.write_reference) << wfs::json::write_pretty(root) << "\n";
}

std::uint64_t combined_digest(const std::vector<RunOutput>& runs) {
  Digest d;
  for (const RunOutput& run : runs) d.add(run.digest);
  return d.value();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(const std::vector<double>& values) { return percentile(values, 0.5); }

/// Speed-gauge samples taken right before and right after each pass.
constexpr int kGaugeSamplesPerSide = 3;
/// Set-ups in a --trace 0 run, at least.
constexpr std::size_t kMinSetups = 5;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Ordered metric list printed in the result line.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char value[40];
      std::snprintf(value, sizeof value, "%.17g", entries_[i].value);
      out += (i == 0 ? "" : ", ") + std::string("\"") + entries_[i].name +
             "\": {\"value\": " + value + ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Counts the runs of `pass` that are wrong: shape check failed, or digest
/// differs from `expected` (a reference or the untraced pass) when given.
std::size_t wrong_runs(const PassResult& pass, const std::vector<std::uint64_t>* expected,
                       bool cross) {
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < pass.runs.size(); ++i) {
    const RunOutput& run = pass.runs[i];
    bool ok = run.shape_ok;
    if (expected != nullptr) {
      ok = ok && i < expected->size() && (*expected)[i] == (cross ? run.cross : run.digest);
    }
    wrong += ok ? 0 : 1;
  }
  if (expected != nullptr && expected->size() > pass.runs.size()) {
    wrong += expected->size() - pass.runs.size();
  }
  return wrong;
}

std::vector<std::uint64_t> digests_of(const PassResult& pass, bool cross) {
  std::vector<std::uint64_t> out;
  for (const RunOutput& run : pass.runs) out.push_back(cross ? run.cross : run.digest);
  return out;
}

double best_wall(const std::vector<PassResult>& passes) {
  double best = passes.front().wall_s;
  for (const PassResult& pass : passes) best = std::min(best, pass.wall_s);
  return best;
}

void add_layer_metrics(Metrics& m, const std::vector<PassTally>& tallies,
                       const std::vector<PassResult>& traced, double untraced_wall_s) {
  const PassTally& first = tallies.front();
  const auto median_ms = [&tallies](auto field) {
    std::vector<double> values;
    for (const PassTally& tally : tallies) values.push_back(static_cast<double>(field(tally)) / 1e6);
    return median(values);
  };
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const std::string name(kLayerNames[i]);
    const LayerStats& stats = first.layers.layers[i];
    m.add(name + ".events", static_cast<double>(stats.events), "count");
    m.add(name + ".cancelled", static_cast<double>(stats.cancelled), "count");
    m.add(name + ".fired", static_cast<double>(stats.fired), "count");
    m.add(name + ".self_ms", median_ms([i](const PassTally& t) { return t.layers.layers[i].self_ns; }),
          "ms");
  }
  m.add("sim.self_ms",
        median_ms([](const PassTally& t) { return t.layers.loop_ns - t.layers.self_ns(); }), "ms");
  const double events = static_cast<double>(first.layers.events());
  m.add("sim.events_per_task",
        first.sim.tasks == 0 ? 0.0 : events / static_cast<double>(first.sim.tasks), "events/task");
  m.add("sim.useful_ratio",
        events == 0.0 ? 0.0 : static_cast<double>(first.layers.fired()) / events, "ratio");
  m.add("wfcommons.generate_ms", median_ms([](const PassTally& t) { return t.generate_ns; }), "ms");
  m.add("wfcommons.translate_ms", median_ms([](const PassTally& t) { return t.translate_ns; }),
        "ms");
  m.add("core.results_io.write_ms", median_ms([](const PassTally& t) { return t.write_ns; }), "ms");
  const SimCounters& sim = first.sim;
  m.add("faas.cold_starts", static_cast<double>(sim.cold_starts), "count");
  m.add("faas.rejected", static_cast<double>(sim.rejected), "count");
  m.add("faas.activator_wait_s", sim.activator_wait_s, "sim_s");
  m.add("core.wfm.retries", static_cast<double>(sim.retries), "count");
  m.add("storage.bytes_read", static_cast<double>(sim.bytes_read), "bytes");
  m.add("storage.bytes_written", static_cast<double>(sim.bytes_written), "bytes");
  const std::uint64_t lookups = sim.cache_hits + sim.cache_misses;
  m.add("storage.cache_hit_rate",
        lookups == 0 ? 0.0 : static_cast<double>(sim.cache_hits) / static_cast<double>(lookups),
        "ratio");
  m.add("storage.p2p_transfers", static_cast<double>(sim.p2p_transfers), "count");
  m.add("trace.overhead_ratio", best_wall(traced) / untraced_wall_s, "ratio");
}

/// Layer and simulated counts are deterministic: every traced pass must
/// reproduce the first one's exactly.
bool counts_repeat(const PassTally& a, const PassTally& b) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const LayerStats& x = a.layers.layers[i];
    const LayerStats& y = b.layers.layers[i];
    if (x.events != y.events || x.cancelled != y.cancelled || x.fired != y.fired) return false;
  }
  const SimCounters& x = a.sim;
  const SimCounters& y = b.sim;
  return x.tasks == y.tasks && x.cold_starts == y.cold_starts && x.rejected == y.rejected &&
         x.retries == y.retries && x.bytes_read == y.bytes_read &&
         x.bytes_written == y.bytes_written && x.cache_hits == y.cache_hits &&
         x.cache_misses == y.cache_misses && x.p2p_transfers == y.p2p_transfers;
}

}  // namespace

int main(int argc, char** argv) {
  wfs::support::Logger::set_level(wfs::support::LogLevel::kWarn);
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--scale full|smoke] [--reference FILE] [--write-reference FILE]\n";
    return 2;
  }
  const std::optional<WorkloadSpec> spec = make_workload(args.workload, args.seed, args.scale);
  if (!spec) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }

  try {
    const std::optional<std::vector<std::string>> reference_hex = load_reference(args);
    std::optional<std::vector<std::uint64_t>> reference;
    if (reference_hex) {
      reference.emplace();
      for (const std::string& hex : *reference_hex) reference->push_back(std::stoull(hex, nullptr, 16));
    }

    const Clock::time_point start = Clock::now();
    const auto elapsed_s = [&start] { return static_cast<double>(elapsed_ns(start)) / 1e9; };
    Metrics metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool correct = true;
    std::optional<PassResult> first_untraced;

    // Every untraced pass is checked against the reference, or, without
    // one, against the first pass (the simulator is deterministic).
    const auto untraced_pass = [&] {
      PassResult pass = run_untraced(*spec);
      attempted += pass.runs.size();
      if (reference) {
        failed += wrong_runs(pass, &*reference, false);
      } else if (first_untraced) {
        const std::vector<std::uint64_t> first = digests_of(*first_untraced, false);
        failed += wrong_runs(pass, &first, false);
      } else {
        failed += wrong_runs(pass, nullptr, false);
      }
      if (!first_untraced) first_untraced = pass;
      return pass;
    };

    // Warm-up: one untraced pass before anything is timed. The program's
    // peak resident memory is read after it, before the speed gauge
    // allocates its tables.
    (void)untraced_pass();
    const double rss_mb = peak_rss_mb();
    SpeedGauge gauge;

    if (!args.trace) {
      // Speed-gauge samples (speed.h) bracket every pass. Set-up repeats
      // before the passes, for about a tenth of the time spent in passes
      // and at least five times in all.
      std::vector<double> setups;
      std::vector<double> walls;
      std::vector<std::vector<double>> unit_ms;  // [unit][pass]
      double setup_s = 0.0;
      double pass_s = 0.0;
      std::uint64_t tasks = 0;
      for (int i = 0; i < kGaugeSamplesPerSide; ++i) gauge.sample();
      do {
        do {
          setups.push_back(setup_once(*spec));
          setup_s += setups.back();
        } while (setup_s < 0.1 * pass_s || setups.size() < kMinSetups);
        const PassResult pass = untraced_pass();
        for (int i = 0; i < kGaugeSamplesPerSide; ++i) gauge.sample();
        walls.push_back(pass.wall_s);
        unit_ms.resize(pass.unit_ms.size());
        for (std::size_t i = 0; i < pass.unit_ms.size(); ++i) unit_ms[i].push_back(pass.unit_ms[i]);
        tasks = pass.tasks_completed;
        pass_s += pass.wall_s;
      } while (elapsed_s() < args.seconds);

      // Medians over the run, scaled to reference speed by the median
      // gauge sample of the run. A cell's time is its median over the passes.
      const double speed = kReferenceKernelSeconds / gauge.median_kernel_s();
      std::vector<double> cells;
      for (const std::vector<double>& times : unit_ms) cells.push_back(median(times) * speed);
      const double wall_s = median(walls) * speed;
      metrics.add("setup_s", median(setups) * speed, "s");
      metrics.add("wall_s", wall_s, "s");
      metrics.add("tasks_per_s", static_cast<double>(tasks) / wall_s, "1/s");
      metrics.add("cell_ms_p50", percentile(cells, 0.5), "ms");
      metrics.add("cell_ms_p90", percentile(cells, 0.9), "ms");
      metrics.add("peak_rss_mb", rss_mb, "MB");
      std::cerr << "perfbench: " << walls.size() << " passes of " << cells.size()
                << " cells, traffic runs or fleets; median host time per pass "
                << median(walls) << " s; " << gauge.count() << " gauge samples, median "
                << gauge.median_kernel_s() * 1e3 << " ms (reference "
                << kReferenceKernelSeconds * 1e3 << " ms)\n";
    } else {
      std::vector<PassResult> untraced;
      std::vector<PassResult> traced;
      std::vector<PassTally> tallies;
      do {
        untraced.push_back(untraced_pass());
        gauge.sample();
        tallies.emplace_back();
        traced.push_back(run_traced(*spec, tallies.back()));
        attempted += traced.back().runs.size();
        const std::vector<std::uint64_t> expected = digests_of(untraced.front(), true);
        failed += wrong_runs(traced.back(), &expected, true);
        if (!counts_repeat(tallies.front(), tallies.back())) {
          std::cerr << "perfbench: per-layer counts differ between traced passes\n";
          correct = false;
        }
      } while (elapsed_s() < args.seconds);
      add_layer_metrics(metrics, tallies, traced, best_wall(untraced));
      metrics.add("bench.reference_kernel_ms", gauge.median_kernel_s() * 1e3, "ms");
    }

    const std::uint64_t total = combined_digest(first_untraced->runs);
    std::cout << "digest " << reference_key(args) << " " << to_hex(total)
              << (reference ? " (checked against the reference)" : " (no reference)") << "\n";
    if (!args.write_reference.empty()) write_reference(args, first_untraced->runs, total);

    correct = correct && failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
              << attempted << ", \"failed\": " << failed << ", \"metrics\": " << metrics.json()
              << "}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
