#include "workloads.h"

#include <iterator>
#include <stdexcept>
#include <utility>

#include "core/session_metrics.h"
#include "lab/registry.h"
#include "trace/codec.h"
#include "trace/writer.h"
#include "video/cluster.h"

namespace perfbench {

namespace {

constexpr std::size_t kDumbbellMetrics = 4;

/// Two simulated days: the shortest horizon on which switchback/tte and
/// event_study/tte have a day to switch at (on one day all their rows are
/// null).
constexpr double kTwoDays = 0.4;

Pass paired_records(std::uint64_t seed) {
  Pass pass;
  pass.spec.scenario = "paired_links/experiment";
  pass.spec.tuning.duration_scale = kTwoDays;
  pass.spec.replicates = 3;
  pass.spec.seed = seed;
  // A reduced bootstrap keeps one call near three seconds while the
  // ladder still dominates the analysis stage.
  pass.spec.analysis.bootstrap_replicates = 50;
  pass.spec.estimators = {"paired_link/tte", "paired_link/spillover",
                          "naive/ab",        "switchback/tte",
                          "event_study/tte", "quantile/ladder",
                          "guardrail/srm"};
  // tte + tte(account); spillover; tau(link1) + tau(link2); tte; tte;
  // p50 + p90 + p99; srm.
  pass.rows_per_metric = {2, 1, 2, 1, 1, 3, 1};
  return pass;
}

Pass fleet_sketch(std::uint64_t seed) {
  Pass pass;
  pass.spec.scenario = "fleet/heterogeneous";
  pass.spec.tuning.duration_scale = 0.5;
  pass.spec.replicates = 3;
  pass.spec.seed = seed;
  // The estimators that read sketch tables as the record path does.
  pass.spec.estimators = {"paired_link/tte", "aa/null", "guardrail/srm"};
  pass.rows_per_metric = {2, 1, 1};
  return pass;
}

Pass lab_sweep(std::uint64_t seed) {
  Pass pass;
  pass.spec.scenario = "dumbbell/bbr_vs_cubic";
  pass.spec.tuning.duration_scale = 0.25;
  // At 0.1 and 0.9 one app is alone in its arm and those rows are null.
  pass.spec.allocations = {0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
  pass.spec.replicates = 2;
  pass.spec.seed = seed;
  pass.spec.estimators = {"naive/ab", "gradual/contrast", "guardrail/srm"};
  const std::size_t points = pass.spec.allocations.size();
  // naive/ab: one pooled tau per allocation; gradual/contrast: the
  // cross-allocation tte, a tau per allocation and a spillover per
  // allocation above the lowest; srm: one per allocation.
  pass.rows_per_metric = {points, 1 + points + (points - 1), points};
  return pass;
}

/// Simulate the two-day paired-links world at `seed` and export it
/// losslessly (the SessionRecord path) as a binary session log.
void export_trace(const std::string& path, std::uint64_t seed) {
  xp::video::ClusterConfig config = xp::lab::canonical_experiment_config();
  config.days *= kTwoDays;
  config.seed = seed;
  const xp::video::ClusterResult world = xp::video::run_paired_links(config);
  xp::trace::TraceMeta meta;
  meta.source = "paired_links/experiment";
  meta.allocation = config.treat_probability[0];
  const double p0 = config.link0_probability;
  meta.intended_treated_fraction = p0 * config.treat_probability[0] +
                                   (1.0 - p0) * config.treat_probability[1];
  meta.seed = seed;
  meta.horizon_s = config.days * 86400.0;
  xp::trace::write_trace_file(
      path, xp::trace::make_log(world.sessions, std::move(meta)));
}

std::vector<Pass> trace_resume(std::uint64_t seed, const std::string& path) {
  Pass first;
  first.spec.scenario = "trace/replay";
  first.spec.tuning.trace_path = path;
  first.spec.replicates = 8;  // bootstrap replicate weeks of the log
  first.spec.seed = seed;
  first.spec.estimators = {"paired_link/tte", "switchback/tte",
                           "event_study/tte", "guardrail/srm"};
  first.rows_per_metric = {2, 1, 1, 1};
  // The documented "add an estimator to a finished sweep" step: the same
  // spec plus naive/ab, every cell replayed from the journal.
  Pass second = first;
  second.spec.estimators.push_back("naive/ab");
  second.rows_per_metric.push_back(2);
  return {std::move(first), std::move(second)};
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"paired_records", "fleet_sketch", "lab_sweep", "trace_resume"};
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& workdir) {
  Workload workload;
  workload.name = name;
  workload.metrics = std::size(xp::core::kAllMetrics);
  if (name == "paired_records") {
    workload.passes = {paired_records(seed)};
  } else if (name == "fleet_sketch") {
    workload.passes = {fleet_sketch(seed)};
  } else if (name == "lab_sweep") {
    workload.passes = {lab_sweep(seed)};
    workload.metrics = kDumbbellMetrics;
  } else if (name == "trace_resume") {
    const std::string log = workdir + "/world.xpt";
    export_trace(log, seed);
    workload.passes = trace_resume(seed, log);
    workload.journaled = true;
  } else {
    std::string known;
    for (const std::string& n : workload_names()) known += " " + n;
    throw std::invalid_argument("unknown workload '" + name +
                                "'; known:" + known);
  }
  return workload;
}

}  // namespace perfbench
