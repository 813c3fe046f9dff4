#include "digest.h"

#include <cstdio>

#include "json/write.h"
#include "obs/profile.h"

namespace perfbench {

Digest& Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ULL;
  }
  // Field separator, so ("ab","c") and ("a","bc") differ.
  hash_ ^= 0xFFU;
  hash_ *= 1099511628211ULL;
  return *this;
}

Digest& Digest::add(double value) {
  char text[32];
  const int n = std::snprintf(text, sizeof text, "%.17g", value);
  return add(std::string_view(text, static_cast<std::size_t>(n)));
}

Digest& Digest::add(std::uint64_t value) { return add(std::to_string(value)); }

std::uint64_t digest_text(std::string_view text) { return Digest().add(text).value(); }

namespace {

void add_summary(Digest& d, const wfs::metrics::Summary& s) {
  d.add(static_cast<std::uint64_t>(s.samples)).add(s.mean).add(s.time_weighted_mean).add(s.min);
  d.add(s.max).add(s.stddev).add(s.p50).add(s.p95).add(s.p99).add(s.integral);
}

}  // namespace

std::uint64_t digest_run(const wfs::core::WorkflowRunResult& run) {
  Digest d;
  d.add(run.workflow_name).add(static_cast<std::uint64_t>(run.scheduling));
  d.add(static_cast<std::uint64_t>(run.completed)).add(static_cast<std::uint64_t>(run.cancelled));
  d.add(static_cast<std::uint64_t>(run.tasks_total)).add(static_cast<std::uint64_t>(run.tasks_failed));
  d.add(static_cast<std::uint64_t>(run.task_retries));
  d.add(static_cast<std::uint64_t>(run.input_wait_timeouts));
  d.add(static_cast<std::uint64_t>(run.upstream_failures));
  d.add(run.input_wait_seconds).add(run.retry_wait_seconds).add(run.makespan_seconds);
  for (const wfs::core::PhaseOutcome& phase : run.phases) {
    d.add(static_cast<std::uint64_t>(phase.index)).add(static_cast<std::uint64_t>(phase.tasks));
    d.add(static_cast<std::uint64_t>(phase.failed)).add(phase.wall_seconds);
  }
  for (const wfs::core::TaskOutcome& task : run.tasks) {
    d.add(task.name).add(static_cast<std::uint64_t>(task.ok));
    d.add(static_cast<std::uint64_t>(task.http_status)).add(static_cast<std::uint64_t>(task.attempts));
    d.add(task.started_seconds).add(task.runtime_seconds).add(task.wall_seconds);
    d.add(static_cast<std::uint64_t>(task.phase)).add(task.input_wait_seconds);
    d.add(task.retry_wait_seconds).add(task.error);
    d.add(static_cast<std::uint64_t>(task.task_id)).add(static_cast<std::uint64_t>(task.gated_by));
    d.add(task.released_seconds).add(task.dispatched_seconds).add(task.finished_seconds);
    d.add(task.queue_seconds).add(task.cold_start_seconds).add(task.transfer_seconds);
    d.add(task.compute_seconds);
  }
  const wfs::core::MarkerOutcome& header = run.header;
  d.add(static_cast<std::uint64_t>(header.sent)).add(header.sent_seconds);
  d.add(header.finished_seconds).add(header.queue_seconds).add(header.cold_start_seconds);
  d.add(header.transfer_seconds).add(header.compute_seconds);
  if (run.profile.valid) d.add(wfs::json::write_compact(wfs::obs::profile_to_json(run.profile)));
  return d.value();
}

std::uint64_t digest_fleet_summary(const wfs::core::FleetResult& fleet) {
  Digest d;
  d.add(static_cast<std::uint64_t>(fleet.completed));
  d.add(static_cast<std::uint64_t>(fleet.workflows_failed)).add(fleet.wall_seconds);
  add_summary(d, fleet.cpu_percent);
  add_summary(d, fleet.memory_gib);
  add_summary(d, fleet.power_watts);
  d.add(fleet.energy_joules).add(fleet.cold_starts).add(fleet.cache_hits);
  d.add(fleet.p2p_transfers).add(fleet.storage_repair_objects);
  return d.value();
}

std::uint64_t digest_traffic(const wfs::load::TrafficResult& traffic) {
  Digest d;
  d.add(static_cast<std::uint64_t>(traffic.drained));
  d.add(static_cast<std::uint64_t>(traffic.submitted)).add(static_cast<std::uint64_t>(traffic.completed));
  d.add(static_cast<std::uint64_t>(traffic.failed)).add(traffic.offered_rps);
  d.add(traffic.goodput_rps).add(traffic.jain_fairness);
  d.add(static_cast<std::uint64_t>(traffic.starved_tenants)).add(traffic.rejected_requests);
  d.add(traffic.cold_starts).add(traffic.wall_seconds);
  for (const wfs::load::TenantStats& tenant : traffic.tenants) {
    d.add(tenant.name).add(tenant.weight).add(static_cast<std::uint64_t>(tenant.submitted));
    d.add(static_cast<std::uint64_t>(tenant.completed)).add(static_cast<std::uint64_t>(tenant.failed));
    d.add(tenant.rejected_requests).add(tenant.mean_makespan_seconds);
    d.add(tenant.p50_makespan_seconds).add(tenant.p99_makespan_seconds).add(tenant.goodput_rps);
  }
  return d.value();
}

std::string to_hex(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(value));
  return text;
}

}  // namespace perfbench
