// The traced run: the same passes as an untraced call, re-driven from
// each layer's public functions with a span recorded around every call
// (lab::make_scenario, DataSource::run, video::run_paired_links,
// core::select, core::CellAccumulator, trace::read_trace_file,
// trace::TraceSource::run, core::assess_quality, lab::CellJournal,
// core::make_estimator + Estimator::estimate_metric). Nothing inside the
// library is instrumented. The re-driven report must reproduce
// run_experiment's digest bit for bit.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "report_check.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One timed interval. Spans of one traced call share `run`.
struct Span {
  std::int64_t id = -1;  ///< position in the log, set by SpanLog::add
  std::string name;
  double start_s = 0.0;  ///< seconds since the log's epoch
  double end_s = 0.0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 at a root
  std::uint32_t run = 0;
};

/// In-memory span store, safe to use from runner threads; written out
/// once, when the run ends.
class SpanLog {
 public:
  /// Open a span now; returns its id (an index into the log).
  std::int64_t open(std::string name, std::int64_t parent, std::uint32_t run);
  void close(std::int64_t id);
  /// Record a span of known extent; returns its id.
  std::int64_t add(Span span);
  double now_s() const;
  std::vector<Span> spans(std::uint32_t run) const;
  /// {"spans": [{"name", "start_s", "end_s", "parent", "run"}, ...]}
  void write_json(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::deque<Span> spans_;  // guarded by mu_
};

struct TracedCall {
  /// Checked like an untraced call; its digest must equal one.
  CallResult result;
  /// Wall time of the re-driven passes (what run_s measures untraced);
  /// excludes the output checks and the fleet attribution pass.
  double pipeline_wall_s = 0.0;
  std::vector<Metric> layers;
};

/// Re-drive every pass of the workload once under tracing, all spans
/// tagged `run`. Journaled workloads use `journal_dir`, which must not
/// exist yet.
TracedCall run_traced_call(const Workload& workload,
                           const std::string& journal_dir, std::uint32_t run,
                           SpanLog& log);

}  // namespace perfbench
