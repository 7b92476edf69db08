// xp_perfbench: end-to-end benchmark of ExperimentSpec -> run_experiment
// -> EstimateTable, one workload per process (see NOTES.md).
//
//   xp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --threads <n> --workdir <dir> [--digest-only]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// re-drives the same pipeline layer by layer (traced.h) and reports the
// per-layer metrics. --digest-only makes one checked call and prints its
// digest. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when
// every output check passed, 1 when one failed (the JSON still prints),
// 2 on a usage or set-up error (no JSON). perfbench/run.py builds and
// runs this binary.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "lab/experiment.h"
#include "lab/registry.h"
#include "report_check.h"
#include "traced.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;
  std::string workdir;
  bool digest_only = false;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU time of the whole process.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Reset the kernel's peak-RSS mark (VmHWM) to the current resident set,
/// so the next peak_rss_mb() covers only what follows.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset VmHWM via clear_refs");
}

/// Peak resident set (VmHWM) in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Set-up of one call: resolve every pass's scenario (for trace_resume
/// that parses the log) and estimators, as run_experiment does first.
void set_up(const Workload& workload) {
  for (const perfbench::Pass& pass : workload.passes) {
    const auto source =
        xp::lab::make_scenario(pass.spec.scenario, pass.spec.tuning);
    for (const std::string& key : pass.spec.estimators) {
      const auto estimator = xp::core::make_estimator(key);
    }
  }
}

/// Set-up times of one call, sampled in batches of at least a millisecond
/// (a set-up takes under a microsecond on most workloads, far below timer
/// noise). Batches run between calls, spread over the run. The fastest
/// batch is reported: other work on the host slows set-up in spells of
/// seconds, up to twofold (trace_resume's log parses took 21 ms in one
/// spell and 45 ms in another), so the median of the batches followed the
/// spells a run happened to meet.
class SetupSampler {
 public:
  explicit SetupSampler(const Workload& workload) : workload_(workload) {
    set_up(workload_);  // fills the registries
    const Clock::time_point start = Clock::now();
    set_up(workload_);
    batch_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(1e-3 / seconds_since(start)));
  }

  /// Time batches for `seconds`, at least one.
  void sample_for(double seconds) {
    const Clock::time_point start = Clock::now();
    do {
      const Clock::time_point batch_start = Clock::now();
      for (std::size_t i = 0; i < batch_; ++i) set_up(workload_);
      samples_.push_back(seconds_since(batch_start) /
                         static_cast<double>(batch_));
    } while (seconds_since(start) < seconds);
  }

  double fastest_s() const {
    return *std::min_element(samples_.begin(), samples_.end());
  }

 private:
  const Workload& workload_;
  std::size_t batch_ = 1;
  std::vector<double> samples_;
};

/// One untraced call: every pass through run_experiment, timed, checked.
struct Call {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  perfbench::CallResult result;
};

Call run_call(const Workload& workload, const std::string& journal_dir) {
  Call call;
  for (std::size_t p = 0; p < workload.passes.size(); ++p) {
    const xp::lab::ExperimentSpec& spec = workload.passes[p].spec;
    const double cpu0 = process_cpu_s();
    const Clock::time_point start = Clock::now();
    const xp::lab::ExperimentReport report =
        workload.journaled
            ? xp::lab::run_experiment(spec,
                                      xp::lab::JournalOptions{journal_dir})
            : xp::lab::run_experiment(spec);
    call.wall_s += seconds_since(start);
    call.cpu_s += process_cpu_s() - cpu0;
    call.result.add_pass(workload, p, report, journal_dir);
  }
  return call;
}

/// A fresh journal directory per call; removed again after the call.
class CallDir {
 public:
  CallDir(const std::string& workdir, std::size_t call)
      : path_(workdir + "/journal-" + std::to_string(call)) {
    std::filesystem::remove_all(path_);
  }
  ~CallDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  CallDir(const CallDir&) = delete;
  CallDir& operator=(const CallDir&) = delete;
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  std::uint64_t digest = 0;
};

/// Fold a checked call into the outcome: its cells count as attempted,
/// and every cell of a call that failed a check counts as failed. The
/// first call fixes the digest every later call must reproduce.
void tally(Outcome& outcome, const perfbench::CallResult& call) {
  std::vector<std::string> problems = call.problems();
  if (outcome.attempted == 0) {
    outcome.digest = call.digest();
  } else if (call.digest() != outcome.digest) {
    problems.push_back("digest " + perfbench::hex(call.digest()) +
                       " differs from the first call's " +
                       perfbench::hex(outcome.digest));
  }
  outcome.attempted += call.cells();
  outcome.failed += problems.empty() ? call.failed_cells() : call.cells();
  outcome.problems.insert(outcome.problems.end(), problems.begin(),
                          problems.end());
}

double useful_frac(const perfbench::CallResult& call) {
  const perfbench::RowCounts& rows = call.rows();
  return rows.rows ? static_cast<double>(rows.useful) /
                         static_cast<double>(rows.rows)
                   : 0.0;
}

Outcome measure_end_to_end(const Workload& workload, const Args& args) {
  Outcome outcome;
  SetupSampler setup(workload);
  setup.sample_for(0.2);

  std::size_t index = 0;
  const auto call_once = [&] {
    const CallDir dir(args.workdir, index++);
    return run_call(workload, dir.path());
  };

  // Warm-up: fills caches and the thread pool, fixes the reference digest.
  tally(outcome, call_once().result);

  std::vector<double> run_s, cpu_s, units_per_s, peak_mb;
  double useful = 0.0;
  const Clock::time_point start = Clock::now();
  while (run_s.empty() || seconds_since(start) < args.seconds) {
    reset_peak_rss();
    const Call call = call_once();
    peak_mb.push_back(peak_rss_mb());
    setup.sample_for(0.25);
    tally(outcome, call.result);
    std::fprintf(stderr, "perfbench: call %zu: run_s %.6f cpu_s %.6f\n",
                 run_s.size(), call.wall_s, call.cpu_s);
    run_s.push_back(call.wall_s);
    cpu_s.push_back(call.cpu_s);
    units_per_s.push_back(call.result.units() / call.wall_s);
    useful = useful_frac(call.result);
  }
  // Not a pass/fail check: a change that nulls rows shows here next to
  // the timings it may have bought.
  std::printf("%s seed %llu: %zu measured calls, estimate_useful_frac %.4f\n",
              workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              run_s.size(), useful);
  outcome.metrics = {
      {"run_s", median(run_s), "s"},
      {"cpu_s", median(cpu_s), "s"},
      {"units_per_s", median(units_per_s), "1/s"},
      {"setup_s", setup.fastest_s(), "s"},
      {"peak_rss_mb", median(peak_mb), "MiB"},
      {"ok_frac",
       1.0 - static_cast<double>(outcome.failed) /
                 static_cast<double>(outcome.attempted),
       "frac"},
  };
  return outcome;
}

Outcome measure_layers(const Workload& workload, const Args& args) {
  Outcome outcome;
  perfbench::SpanLog spans;
  std::vector<std::vector<Metric>> samples;
  std::vector<double> untraced_wall, traced_wall;
  std::size_t index = 0;
  // Untraced and traced calls alternate, so the overhead compares calls
  // made in the same state of the machine (and of the page cache, which
  // trace_resume's journal writes load). The first untraced call fixes the
  // digest every traced call must reproduce bit for bit.
  const Clock::time_point start = Clock::now();
  while (samples.empty() || seconds_since(start) < args.seconds) {
    {
      const CallDir dir(args.workdir, index++);
      const Call call = run_call(workload, dir.path());
      untraced_wall.push_back(call.wall_s);
      tally(outcome, call.result);
    }
    const CallDir dir(args.workdir, index++);
    perfbench::TracedCall traced = perfbench::run_traced_call(
        workload, dir.path(), static_cast<std::uint32_t>(samples.size()),
        spans);
    tally(outcome, traced.result);
    traced_wall.push_back(traced.pipeline_wall_s);
    samples.push_back(std::move(traced.layers));
  }
  spans.write_json(args.workdir + "/spans.json");

  // Per-layer values are medians across the traced calls.
  for (std::size_t m = 0; m < samples.front().size(); ++m) {
    std::vector<double> values;
    for (const std::vector<Metric>& sample : samples) {
      values.push_back(sample[m].value);
    }
    outcome.metrics.push_back(
        {samples.front()[m].name, median(values), samples.front()[m].unit});
  }
  outcome.metrics.push_back(
      {"perfbench.trace_overhead_frac",
       median(traced_wall) / median(untraced_wall) - 1.0, "frac"});
  return outcome;
}

void print_json(const Outcome& outcome) {
  std::string json = "{\"correct\": ";
  json += outcome.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --threads <n> --workdir <dir> [--digest-only]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--digest-only") {
      args.digest_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--threads") {
      args.threads = std::strtoull(value, nullptr, 10);
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (args.workload.empty() || args.workdir.empty() || args.threads == 0) {
    return usage(argv[0]);
  }
  // glibc raises its mmap threshold (and its trim threshold, to twice
  // that) each time a larger mapped block is freed, up to 32 MiB. Where a
  // run's big tables landed, and so its peak resident set, then depended
  // on the order of earlier frees: peak RSS moved by about 20% between
  // runs. Set both to the values a warm process reaches, from the start.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  // The library's process-wide runner reads XP_THREADS when first used;
  // every layer (cells, fleet shards, bootstrap rungs) shares that pool.
  setenv("XP_THREADS", std::to_string(args.threads).c_str(), 1);

  Outcome outcome;
  try {
    std::filesystem::create_directories(args.workdir);
    const Workload workload =
        perfbench::make_workload(args.workload, args.seed, args.workdir);
    if (args.digest_only) {
      const CallDir dir(args.workdir, 0);
      tally(outcome, run_call(workload, dir.path()).result);
    } else {
      outcome = args.trace ? measure_layers(workload, args)
                           : measure_end_to_end(workload, args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  std::printf("digest %s seed %llu threads %zu %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.threads,
              perfbench::hex(outcome.digest).c_str());
  print_json(outcome);
  return outcome.problems.empty() ? 0 : 1;
}
