#include "traced.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/cell_accumulator.h"
#include "core/data_quality.h"
#include "core/estimator.h"
#include "core/session_metrics.h"
#include "lab/experiment.h"
#include "lab/fleet_scenarios.h"
#include "lab/journal.h"
#include "lab/registry.h"
#include "report_check.h"
#include "stats/rng.h"
#include "trace/codec.h"
#include "trace/replay.h"
#include "util/runner.h"
#include "video/cluster.h"
#include "video/fleet.h"

namespace perfbench {

// ---------------------------------------------------------------- SpanLog ----

double SpanLog::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::int64_t SpanLog::open(std::string name, std::int64_t parent,
                           std::uint32_t run) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.run = run;
  span.start_s = now_s();
  return add(std::move(span));
}

void SpanLog::close(std::int64_t id) {
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = end;
}

std::int64_t SpanLog::add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> SpanLog::spans(std::uint32_t run) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& span : spans_) {
    if (span.run == run) out.push_back(span);
  }
  return out;
}

void SpanLog::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"spans\": [";
  char buffer[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buffer, sizeof buffer,
                  "%s\n{\"id\": %lld, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %lld, \"run\": %u}",
                  i ? "," : "", static_cast<long long>(s.id), s.name.c_str(),
                  s.start_s, s.end_s, static_cast<long long>(s.parent),
                  s.run);
    out << buffer;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

namespace {

using xp::core::ExperimentCell;
using xp::core::ExperimentReport;
using xp::core::ObservationTable;

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::int64_t parent,
             std::uint32_t run)
      : log_(log), id_(log.open(std::move(name), parent, run)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  std::int64_t id_;
};

/// Counts recorded at the same boundaries as the spans.
struct Counters {
  std::atomic<std::uint64_t> sessions{0};        ///< video worlds completed
  std::atomic<std::uint64_t> table_rows{0};      ///< record-table cells
  std::atomic<std::uint64_t> sketch_rows{0};     ///< sketch to_table rows
  std::atomic<std::uint64_t> rows_read{0};       ///< trace log rows parsed
  std::atomic<std::uint64_t> rows_replayed{0};   ///< trace rows replayed
  std::atomic<std::uint64_t> cells_replayed{0};  ///< journal hits
};

/// CPU time of the whole process (every runner thread).
double process_cpu_s() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

struct Context {
  const Workload& workload;
  const std::string& journal_dir;
  SpanLog& log;
  std::uint32_t run;
  Counters counters;
  /// Process CPU time spent inside the cells and analysis stages. Stages
  /// nest parallel_for calls (fleet shards, bootstrap rungs) whose callers
  /// block while other threads run the inner jobs, so the runner's busy
  /// time is read from the CPU clock, not summed over job spans.
  double cells_cpu_s = 0.0;
  double analysis_cpu_s = 0.0;

  ScopedSpan span(std::string name, std::int64_t parent) {
    return ScopedSpan(log, std::move(name), parent, run);
  }
};

std::uint64_t total_rows(const ObservationTable& table) {
  std::uint64_t rows = 0;
  for (const auto& column : table.columns) rows += column.size();
  return rows;
}

/// "paired_link/tte" -> "core.estimate.paired_link_tte".
std::string estimate_span_name(std::string key) {
  std::replace(key.begin(), key.end(), '/', '_');
  return "core.estimate." + key;
}

/// lab::make_scenario. trace/replay is split into its two layers, the log
/// parse (trace::read_trace_file) and the replay index
/// (trace::TraceSource), configured as the registry's factory does.
std::unique_ptr<xp::core::DataSource> make_source(Context& ctx,
                                                  const Pass& pass,
                                                  std::int64_t parent) {
  const ScopedSpan span = ctx.span("lab.make_scenario", parent);
  if (pass.spec.scenario != "trace/replay") {
    return xp::lab::make_scenario(pass.spec.scenario, pass.spec.tuning);
  }
  xp::trace::TraceLog log;
  {
    const ScopedSpan read = ctx.span("trace.read", span.id());
    log = xp::trace::read_trace_file(pass.spec.tuning.trace_path);
  }
  ctx.counters.rows_read += log.records.size();
  xp::trace::ReplayConfig config;
  config.name = "trace/replay";
  config.duration_scale = pass.spec.tuning.duration_scale;
  config.max_rows = pass.spec.tuning.budget.max_work_units;
  return std::make_unique<xp::trace::TraceSource>(std::move(log),
                                                  std::move(config));
}

/// The record path of paired_links/experiment (its DataSource::run),
/// rebuilt from video::run_paired_links and core::select so the world and
/// the table build get separate spans.
ObservationTable paired_record_world(Context& ctx, const Pass& pass,
                                     double allocation, std::uint64_t seed,
                                     std::int64_t parent) {
  xp::video::ClusterConfig config = xp::lab::canonical_experiment_config();
  const double scale = pass.spec.tuning.duration_scale;
  config.days *= scale;
  config.faults.scale_time(scale);
  config.max_ticks = pass.spec.tuning.budget.max_work_units;
  config.seed = seed;
  config.treat_probability[0] = allocation;
  config.treat_probability[1] = 1.0 - allocation;
  xp::video::ClusterResult result;
  {
    const ScopedSpan world = ctx.span("video.world", parent);
    result = xp::video::run_paired_links(config);
  }
  ctx.counters.sessions += result.stats.sessions_completed;

  const ScopedSpan build = ctx.span("core.table_build", parent);
  ObservationTable table;
  table.metrics.reserve(std::size(xp::core::kAllMetrics));
  table.columns.reserve(std::size(xp::core::kAllMetrics));
  const xp::core::RowFilter all;
  for (xp::core::Metric metric : xp::core::kAllMetrics) {
    table.add_column(std::string(xp::core::metric_name(metric)),
                     xp::core::select(result.sessions, metric, all));
  }
  const xp::video::ClusterRunStats& stats = result.stats;
  table.add_aggregate("sessions_started",
                      static_cast<double>(stats.sessions_started));
  table.add_aggregate("sessions_completed",
                      static_cast<double>(stats.sessions_completed));
  if (!config.faults.empty()) {
    table.add_aggregate("records_dropped",
                        static_cast<double>(stats.records_dropped));
    table.add_aggregate("records_corrupted",
                        static_cast<double>(stats.records_corrupted));
  }
  for (int link = 0; link < 2; ++link) {
    const std::string suffix = "/link" + std::to_string(link + 1);
    table.add_aggregate("peak_utilization" + suffix,
                        stats.peak_utilization[link]);
    table.add_series("hourly_utilization" + suffix,
                     result.hourly_utilization[link]);
    table.add_series("hourly_rtt" + suffix, result.hourly_rtt[link]);
  }
  ctx.counters.table_rows += total_rows(table);
  return table;
}

/// One cell's world and table, under a span naming the layers it covers.
ObservationTable cell_table(Context& ctx, const xp::core::DataSource& source,
                            const Pass& pass, double allocation,
                            std::uint64_t seed, std::int64_t parent) {
  const std::string& scenario = pass.spec.scenario;
  if (scenario == "paired_links/experiment" && !pass.spec.tuning.streaming) {
    return paired_record_world(ctx, pass, allocation, seed, parent);
  }
  if (scenario.rfind("fleet/", 0) == 0) {
    // lab::run_fleet composes video worlds, sketch folds, the shard merge,
    // to_table and its own aggregate fold; its aggregates and series have
    // no public lower-level form, so it is timed whole here and split by
    // fleet_attribution below.
    const ScopedSpan span = ctx.span("lab.run_fleet", parent);
    return source.run(allocation, seed);
  }
  if (scenario.rfind("dumbbell/", 0) == 0) {
    // The packet-level sim plus a table of one row per app.
    const ScopedSpan span = ctx.span("sim.world", parent);
    return source.run(allocation, seed);
  }
  if (scenario == "trace/replay") {
    ObservationTable table;
    {
      const ScopedSpan span = ctx.span("trace.replay", parent);
      table = source.run(allocation, seed);
    }
    ctx.counters.rows_replayed +=
        static_cast<std::uint64_t>(table.aggregate("sessions_replayed"));
    return table;
  }
  throw std::invalid_argument("traced run: no re-drive for scenario " +
                              scenario);
}

/// One pass, re-driven the way lab::run_experiment runs it.
ExperimentReport traced_pass(Context& ctx, const Pass& pass,
                             std::int64_t parent) {
  const xp::lab::ExperimentSpec& spec = pass.spec;
  std::unique_ptr<xp::core::DataSource> source;
  std::vector<std::unique_ptr<xp::core::Estimator>> estimators;
  {
    const ScopedSpan setup = ctx.span("lab.setup", parent);
    source = make_source(ctx, pass, setup.id());
    const ScopedSpan resolve = ctx.span("core.make_estimator", setup.id());
    for (const std::string& key : spec.estimators) {
      estimators.push_back(xp::core::make_estimator(key));
    }
  }

  ExperimentReport report;
  report.scenario = spec.scenario;
  report.allocations = spec.allocations;
  if (report.allocations.empty()) {
    report.allocations.push_back(source->default_allocation());
  }
  report.replicates = spec.replicates;
  report.cells.resize(report.allocations.size() * report.replicates);

  std::unique_ptr<xp::lab::CellJournal> journal;
  std::uint64_t fingerprint = 0;
  if (ctx.workload.journaled) {
    const ScopedSpan open = ctx.span("lab.journal_open", parent);
    fingerprint = xp::lab::journal_fingerprint(spec);
    if (const std::uint64_t source_fp = source->config_fingerprint();
        source_fp != 0) {
      fingerprint = xp::stats::mix64(fingerprint ^ source_fp);
    }
    journal = std::make_unique<xp::lab::CellJournal>(
        xp::lab::journal_path(ctx.journal_dir));
  }

  xp::util::Runner& runner = xp::util::global_runner();
  {
    const ScopedSpan stage = ctx.span("lab.cells_stage", parent);
    const double cpu0 = process_cpu_s();
    runner.parallel_for(report.cells.size(), [&](std::size_t i) {
      const ScopedSpan cell_span = ctx.span("lab.cell", stage.id());
      ExperimentCell& cell = report.cells[i];
      cell.allocation = report.allocations[i / report.replicates];
      cell.replicate = i % report.replicates;
      const std::uint64_t seed = xp::lab::cell_seed(spec.seed, i);
      const std::uint64_t key =
          journal ? xp::lab::journal_cell_key(fingerprint, cell.allocation,
                                              seed)
                  : 0;
      if (journal) {
        const ScopedSpan replay =
            ctx.span("lab.journal_replay", cell_span.id());
        if (const ExperimentCell* hit =
                journal->find(key, cell.allocation, seed)) {
          cell.seed = hit->seed;
          cell.status = hit->status;
          cell.quality = hit->quality;
          cell.table = hit->table;
          ++ctx.counters.cells_replayed;
          return;
        }
      }
      cell.seed = seed;
      cell.table =
          cell_table(ctx, *source, pass, cell.allocation, seed, cell_span.id());
      {
        const ScopedSpan gate = ctx.span("core.quality_gate", cell_span.id());
        cell.quality = xp::core::assess_quality(
            cell.table, source->intended_treated_fraction(cell.allocation),
            spec.quality);
      }
      if (cell.quality.unusable()) {
        cell.status.state = xp::core::CellState::kQualityHold;
        cell.status.error = cell.quality.summary();
      }
      if (journal) {
        const ScopedSpan append =
            ctx.span("lab.journal_append", cell_span.id());
        journal->append(key, cell);
      }
    });
    ctx.cells_cpu_s += process_cpu_s() - cpu0;
  }

  if (!estimators.empty()) {
    const ScopedSpan stage = ctx.span("lab.analysis_stage", parent);
    const double cpu0 = process_cpu_s();
    const ExperimentCell* first_ok = report.first_ok_cell();
    const std::vector<std::string> metrics =
        first_ok ? first_ok->table.metrics : std::vector<std::string>{};
    const std::size_t num_metrics = metrics.size();
    std::vector<std::vector<xp::core::EstimateRow>> slots(estimators.size() *
                                                          num_metrics);
    runner.parallel_for(slots.size(), [&](std::size_t i) {
      const std::size_t e = i / num_metrics;
      const std::size_t m = i % num_metrics;
      const ScopedSpan job =
          ctx.span(estimate_span_name(spec.estimators[e]), stage.id());
      xp::core::EstimatorOptions options;
      options.analysis = spec.analysis;
      options.seed = xp::core::metric_seed(
          xp::lab::estimator_seed(spec.seed, e), m);
      slots[i] = estimators[e]->estimate_metric(report, metrics[m], options);
    });
    ctx.analysis_cpu_s += process_cpu_s() - cpu0;
    report.estimates.resize(estimators.size());
    for (std::size_t e = 0; e < estimators.size(); ++e) {
      xp::core::EstimateTable& table = report.estimates[e];
      table.estimator = spec.estimators[e];
      for (std::size_t m = 0; m < num_metrics; ++m) {
        for (xp::core::EstimateRow& row : slots[e * num_metrics + m]) {
          table.add_row(std::move(row));
        }
      }
    }
  }
  return report;
}

/// Split lab::run_fleet into its layers: re-run every shard of every cell
/// through video::shard_cluster_config + video::run_paired_links, fold its
/// records with core::CellAccumulator::add, then merge and to_table. The
/// rebuilt columns must equal the composite's. Runs after the pipeline,
/// so it never counts toward the traced wall time.
void fleet_attribution(Context& ctx, const Pass& pass,
                       const ExperimentReport& report, std::int64_t parent,
                       CallResult& result) {
  const ScopedSpan root = ctx.span("perfbench.fleet_attribution", parent);
  const double scale = pass.spec.tuning.duration_scale;
  std::vector<xp::video::FleetConfig> fleets;
  for (const ExperimentCell& cell : report.cells) {
    xp::video::FleetConfig fleet =
        xp::lab::canonical_heterogeneous_fleet_config();
    fleet.base.days *= scale;
    fleet.base.faults.scale_time(scale);
    fleet.seed = cell.seed;
    fleet.base.treat_probability[0] = cell.allocation;
    fleet.base.treat_probability[1] = 1.0 - cell.allocation;
    fleets.push_back(std::move(fleet));
  }
  const std::size_t shards = fleets.front().shards.size();
  const auto hours =
      static_cast<std::size_t>(fleets.front().base.days * 24.0) + 1;
  std::vector<xp::core::CellAccumulator> sketches(
      fleets.size() * shards, xp::core::CellAccumulator(hours));

  xp::util::global_runner().parallel_for(sketches.size(), [&](std::size_t j) {
    // The shard's records are kept and folded after the world, under one
    // span: timing each add in the sink would put two clock reads around
    // every record of a fold that costs little more.
    std::vector<xp::video::SessionRecord> records;
    {
      const ScopedSpan world = ctx.span("video.world", root.id());
      xp::video::ClusterConfig config;
      {
        const ScopedSpan materialize =
            ctx.span("video.shard_cluster_config", world.id());
        config = xp::video::shard_cluster_config(fleets[j / shards],
                                                 j % shards);
      }
      const xp::video::ClusterResult shard = xp::video::run_paired_links(
          config, [&](const xp::video::SessionRecord& record) {
            records.push_back(record);
          });
      ctx.counters.sessions += shard.stats.sessions_completed;
    }
    const ScopedSpan fold = ctx.span("core.sketch_fold", root.id());
    for (const xp::video::SessionRecord& record : records) {
      sketches[j].add(record);
    }
  });

  for (std::size_t c = 0; c < fleets.size(); ++c) {
    xp::core::CellAccumulator merged(hours);
    {
      const ScopedSpan merge = ctx.span("core.sketch_merge", root.id());
      for (std::size_t s = 0; s < shards; ++s) {
        merged.merge(sketches[c * shards + s]);
      }
    }
    ObservationTable table;
    {
      const ScopedSpan lower = ctx.span("core.sketch_to_table", root.id());
      table = merged.to_table();
    }
    ctx.counters.sketch_rows += total_rows(table);
    if (columns_digest(table) != columns_digest(report.cells[c].table)) {
      result.fail("fleet attribution: cell " + std::to_string(c) +
                  "'s rebuilt sketch columns differ from lab::run_fleet's");
    }
  }
}

// ------------------------------------------------------ per-layer metrics ----

/// Duration minus the part of it that child spans cover.
std::vector<double> self_times(const std::vector<Span>& spans,
                               const std::map<std::int64_t, std::size_t>& at) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    const auto parent = at.find(span.parent);
    if (parent == at.end()) continue;
    const Span& p = spans[parent->second];
    children[parent->second].emplace_back(std::max(span.start_s, p.start_s),
                                          std::min(span.end_s, p.end_s));
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, reach = spans[i].start_s;
    for (const auto& [begin, end] : kids) {
      const double from = std::max(begin, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    self[i] = spans[i].end_s - spans[i].start_s - covered;
  }
  return self;
}

/// Estimator keys with a core.estimate.<key>_s metric (every key a
/// workload runs; the others report 0).
constexpr const char* kEstimatorKeys[] = {
    "paired_link/tte", "paired_link/spillover", "naive/ab",
    "switchback/tte",  "event_study/tte",       "quantile/ladder",
    "guardrail/srm",   "aa/null",               "gradual/contrast",
};

std::vector<Metric> layer_metrics(const std::vector<Span>& spans,
                                  const Context& ctx, const RowCounts& rows,
                                  double journal_mb) {
  const Counters& counters = ctx.counters;
  std::map<std::int64_t, std::size_t> at;
  for (std::size_t i = 0; i < spans.size(); ++i) at[spans[i].id] = i;
  const std::vector<double> self = self_times(spans, at);
  const auto duration = [&](std::size_t i) {
    return spans[i].end_s - spans[i].start_s;
  };
  const auto sum = [&](std::string_view name, bool self_only = false) {
    double total = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == name) total += self_only ? self[i] : duration(i);
    }
    return total;
  };
  const auto longest = [&](std::string_view name) {
    double most = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == name) most = std::max(most, duration(i));
    }
    return most;
  };
  double cell_wait_max = 0.0;
  std::vector<double> passes;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "lab.cell") {
      const Span& stage = spans[at.at(spans[i].parent)];
      cell_wait_max =
          std::max(cell_wait_max, spans[i].start_s - stage.start_s);
    } else if (spans[i].name == "lab.pass") {
      passes.push_back(duration(i));
    }
  }
  const auto threads =
      static_cast<double>(xp::util::global_runner().thread_count());
  const auto frac = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  const auto count = [](const std::atomic<std::uint64_t>& n) {
    return static_cast<double>(n.load());
  };
  const double world_s = sum("video.world", true);

  std::vector<Metric> out = {
      {"util.cells_busy_frac",
       frac(ctx.cells_cpu_s, threads * sum("lab.cells_stage")), "frac"},
      {"util.analysis_busy_frac",
       frac(ctx.analysis_cpu_s, threads * sum("lab.analysis_stage")), "frac"},
      {"util.cell_wait_max_s", cell_wait_max, "s"},
      {"lab.make_scenario_s", sum("lab.make_scenario"), "s"},
      {"lab.cells_stage_s", sum("lab.cells_stage"), "s"},
      {"lab.analysis_stage_s", sum("lab.analysis_stage"), "s"},
      {"lab.cell_max_s", longest("lab.cell"), "s"},
      {"lab.pass1_s", passes.size() > 0 ? passes[0] : 0.0, "s"},
      {"lab.pass2_s", passes.size() > 1 ? passes[1] : 0.0, "s"},
      {"lab.run_fleet_s", sum("lab.run_fleet"), "s"},
      {"lab.journal_open_s", sum("lab.journal_open"), "s"},
      {"lab.journal_append_s", sum("lab.journal_append"), "s"},
      {"lab.journal_replay_s", sum("lab.journal_replay"), "s"},
      {"lab.journal_mb", journal_mb, "MiB"},
      {"lab.journal_cells_replayed", count(counters.cells_replayed), "count"},
      {"video.world_s", world_s, "s"},
      {"video.shard_max_s", longest("video.world"), "s"},
      {"video.sessions", count(counters.sessions), "count"},
      {"video.sessions_per_cpu_s", frac(count(counters.sessions), world_s),
       "1/s"},
      {"sim.world_s", sum("sim.world"), "s"},
      {"core.table_build_s", sum("core.table_build"), "s"},
      {"core.table_rows", count(counters.table_rows), "count"},
      {"core.sketch_fold_s", sum("core.sketch_fold"), "s"},
      {"core.sketch_merge_s", sum("core.sketch_merge"), "s"},
      {"core.sketch_to_table_s", sum("core.sketch_to_table"), "s"},
      {"core.sketch_rows", count(counters.sketch_rows), "count"},
      {"core.quality_gate_s", sum("core.quality_gate"), "s"},
  };
  for (const char* key : kEstimatorKeys) {
    const std::string name = estimate_span_name(key);
    out.push_back({name + "_s", sum(name), "s"});
  }
  out.push_back({"core.estimate_rows", static_cast<double>(rows.rows),
                 "count"});
  out.push_back({"core.estimate_useful_frac",
                 frac(static_cast<double>(rows.useful),
                      static_cast<double>(rows.rows)),
                 "frac"});
  out.push_back({"trace.read_s", sum("trace.read"), "s"});
  out.push_back({"trace.rows_read", count(counters.rows_read), "count"});
  out.push_back({"trace.replay_s", sum("trace.replay"), "s"});
  out.push_back({"trace.rows_replayed", count(counters.rows_replayed),
                 "count"});
  return out;
}

}  // namespace

TracedCall run_traced_call(const Workload& workload,
                           const std::string& journal_dir, std::uint32_t run,
                           SpanLog& log) {
  TracedCall out;
  Context ctx{workload, journal_dir, log, run, {}};
  {
    const ScopedSpan root = ctx.span("perfbench.call", -1);
    // Only the fleet's report outlives its pass, for the attribution;
    // holding a journaled pass's tables would load the next pass.
    const bool fleet =
        workload.passes.front().spec.scenario.rfind("fleet/", 0) == 0;
    ExperimentReport fleet_report;
    for (std::size_t p = 0; p < workload.passes.size(); ++p) {
      ExperimentReport report;
      const double start = log.now_s();
      {
        const ScopedSpan pass = ctx.span("lab.pass", root.id());
        report = traced_pass(ctx, workload.passes[p], pass.id());
      }
      out.pipeline_wall_s += log.now_s() - start;
      out.result.add_pass(workload, p, report, journal_dir);
      if (fleet) fleet_report = std::move(report);
    }
    if (fleet) {
      fleet_attribution(ctx, workload.passes.front(), fleet_report, root.id(),
                        out.result);
    }
  }

  const std::vector<Span> spans = log.spans(run);
  double journal_mb = 0.0;
  if (workload.journaled) {
    journal_mb = static_cast<double>(std::filesystem::file_size(
                     xp::lab::journal_path(journal_dir))) /
                 (1024.0 * 1024.0);
  }
  out.layers = layer_metrics(spans, ctx, out.result.rows(), journal_mb);
  return out;
}

}  // namespace perfbench
