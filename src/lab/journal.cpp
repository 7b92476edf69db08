#include "lab/journal.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lab/experiment.h"
#include "util/hash.h"

namespace xp::lab {

namespace {

constexpr char kMagic[4] = {'X', 'P', 'C', 'J'};
constexpr std::size_t kHeaderSize = sizeof(kMagic) + sizeof(std::uint32_t);
// Frame prefix: payload size + word-wise FNV-1a-64 of the payload bytes.
constexpr std::size_t kFrameSize = sizeof(std::uint32_t) + sizeof(std::uint64_t);

// Packed Observation row: unit u64, account u64, treated u8, outcome f64,
// hour_of_day u32, hour_index u64, day u32, group u8, weight f64 — the
// byte offset of each field, and the row size.
constexpr std::size_t kRowUnit = 0;
constexpr std::size_t kRowAccount = 8;
constexpr std::size_t kRowTreated = 16;
constexpr std::size_t kRowOutcome = 17;
constexpr std::size_t kRowHourOfDay = 25;
constexpr std::size_t kRowHourIndex = 29;
constexpr std::size_t kRowDay = 37;
constexpr std::size_t kRowGroup = 41;
constexpr std::size_t kRowWeight = 42;
constexpr std::size_t kRowSize = 50;
static_assert(kRowWeight + sizeof(double) == kRowSize);

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("journal: " + message);
}

// ------------------------------------------------------------- writing ----
// Little-endian, the only byte order we target (same stance as the trace
// binary codec); doubles travel by bit pattern so NaNs round-trip exactly.
// One layout, written to any sink with bytes(data, n): SizeSink measures a
// record so append() allocates its frame once at the exact size, ByteSink
// fills that frame, and Fingerprint hashes spec fields framed the same way.

struct SizeSink {
  std::size_t size = 0;
  void bytes(const void*, std::size_t n) noexcept { size += n; }
  void rows(const std::vector<core::Observation>& rows) noexcept {
    size += rows.size() * kRowSize;
  }
};

struct ByteSink {
  char* out;
  void bytes(const void* data, std::size_t n) noexcept {
    if (n == 0) return;  // an empty vector's data() may be null
    std::memcpy(out, data, n);
    out += n;
  }
  void rows(const std::vector<core::Observation>& rows) noexcept {
    for (const core::Observation& obs : rows) {
      const std::uint8_t treated = obs.treated ? 1 : 0;
      std::memcpy(out + kRowUnit, &obs.unit, sizeof(obs.unit));
      std::memcpy(out + kRowAccount, &obs.account, sizeof(obs.account));
      std::memcpy(out + kRowTreated, &treated, sizeof(treated));
      std::memcpy(out + kRowOutcome, &obs.outcome, sizeof(obs.outcome));
      std::memcpy(out + kRowHourOfDay, &obs.hour_of_day,
                  sizeof(obs.hour_of_day));
      std::memcpy(out + kRowHourIndex, &obs.hour_index,
                  sizeof(obs.hour_index));
      std::memcpy(out + kRowDay, &obs.day, sizeof(obs.day));
      std::memcpy(out + kRowGroup, &obs.group, sizeof(obs.group));
      std::memcpy(out + kRowWeight, &obs.weight, sizeof(obs.weight));
      out += kRowSize;
    }
  }
};

/// Order-sensitive field hash: every field is framed exactly like the
/// on-disk strings, so "ab"+"c" and "a"+"bc" hash differently.
struct Fingerprint {
  std::uint64_t hash = util::kFnv1a64Basis;
  void bytes(const void* data, std::size_t n) noexcept {
    hash = util::fnv1a64(data, n, hash);
  }
};

template <typename T, typename Sink>
void put(Sink& out, T value) {
  out.bytes(&value, sizeof(T));
}

template <typename Sink>
void put_string(Sink& out, const std::string& value) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(value.size()));
  out.bytes(value.data(), value.size());
}

// ------------------------------------------------------------- reading ----

/// Bounds-checked cursor over one record's payload; every overrun names
/// the record index and the field being read (the trace codec contract).
struct Reader {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;
  std::size_t record;

  template <typename T>
  T get(const char* field) {
    if (size - pos < sizeof(T)) {
      fail("record " + std::to_string(record) + ", field '" + field +
           "': payload truncated");
    }
    T value;
    std::memcpy(&value, data + pos, sizeof(T));
    pos += sizeof(T);
    return value;
  }

  std::string get_string(const char* field) {
    const auto n = get<std::uint32_t>(field);
    if (size - pos < n) {
      fail("record " + std::to_string(record) + ", field '" + field +
           "': string runs past the payload");
    }
    std::string value(data + pos, n);
    pos += n;
    return value;
  }

  /// Refuses a `count` read from `field` unless that many items of at
  /// least `item_size` bytes each fit the bytes left — checked before
  /// anything is sized from the count.
  void check_fits(std::uint64_t count, std::size_t item_size,
                  const char* field, const char* items) const {
    if ((size - pos) / item_size < count) {
      fail("record " + std::to_string(record) + ", field '" + field +
           "': " + std::to_string(count) + " " + items +
           " do not fit the payload");
    }
  }
};

template <typename Sink>
void put_quality(Sink& out, const core::DataQualityReport& q) {
  put<std::uint8_t>(out, q.computed ? 1 : 0);
  put<std::uint64_t>(out, q.rows);
  put<std::uint64_t>(out, q.treated_rows);
  put<std::uint64_t>(out, q.control_rows);
  put<double>(out, q.treated_weight);
  put<double>(out, q.control_weight);
  put<std::uint64_t>(out, q.hours_observed);
  put<std::uint64_t>(out, q.arm_hour_cells);
  put<std::uint64_t>(out, q.non_finite_outcomes);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(q.metrics.size()));
  for (const core::MetricQuality& m : q.metrics) {
    put_string(out, m.metric);
    put<std::uint64_t>(out, m.rows);
    put<std::uint64_t>(out, m.non_finite);
  }
  put<double>(out, q.intended_treated_fraction);
  put<double>(out, q.observed_treated_fraction);
  put<double>(out, q.srm_chi_square);
  put<double>(out, q.srm_p_value);
  put<std::uint8_t>(out, q.srm_flag ? 1 : 0);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(q.issues.size()));
  for (const std::string& issue : q.issues) put_string(out, issue);
}

core::DataQualityReport get_quality(Reader& in) {
  // Smallest encodings of one metric (empty name + two u64) and of one
  // issue (empty string): the bounds on the counts before reserving.
  constexpr std::size_t kMinMetricSize =
      sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);
  constexpr std::size_t kMinIssueSize = sizeof(std::uint32_t);
  core::DataQualityReport q;
  q.computed = in.get<std::uint8_t>("quality.computed") != 0;
  q.rows = in.get<std::uint64_t>("quality.rows");
  q.treated_rows = in.get<std::uint64_t>("quality.treated_rows");
  q.control_rows = in.get<std::uint64_t>("quality.control_rows");
  q.treated_weight = in.get<double>("quality.treated_weight");
  q.control_weight = in.get<double>("quality.control_weight");
  q.hours_observed = in.get<std::uint64_t>("quality.hours_observed");
  q.arm_hour_cells = in.get<std::uint64_t>("quality.arm_hour_cells");
  q.non_finite_outcomes = in.get<std::uint64_t>("quality.non_finite");
  const auto n_metrics = in.get<std::uint32_t>("quality.metrics");
  in.check_fits(n_metrics, kMinMetricSize, "quality.metrics", "metrics");
  q.metrics.reserve(n_metrics);
  for (std::uint32_t m = 0; m < n_metrics; ++m) {
    core::MetricQuality metric;
    metric.metric = in.get_string("quality.metrics.metric");
    metric.rows = in.get<std::uint64_t>("quality.metrics.rows");
    metric.non_finite = in.get<std::uint64_t>("quality.metrics.non_finite");
    q.metrics.push_back(std::move(metric));
  }
  q.intended_treated_fraction = in.get<double>("quality.intended_fraction");
  q.observed_treated_fraction = in.get<double>("quality.observed_fraction");
  q.srm_chi_square = in.get<double>("quality.srm_chi_square");
  q.srm_p_value = in.get<double>("quality.srm_p_value");
  q.srm_flag = in.get<std::uint8_t>("quality.srm_flag") != 0;
  const auto n_issues = in.get<std::uint32_t>("quality.issues");
  in.check_fits(n_issues, kMinIssueSize, "quality.issues", "issues");
  q.issues.reserve(n_issues);
  for (std::uint32_t i = 0; i < n_issues; ++i) {
    q.issues.push_back(in.get_string("quality.issues[]"));
  }
  return q;
}

template <typename Sink>
void put_table(Sink& out, const core::ObservationTable& table) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(table.columns.size()));
  for (std::size_t c = 0; c < table.columns.size(); ++c) {
    put_string(out, table.metrics[c]);
    put<std::uint64_t>(out, table.columns[c].size());
    out.rows(table.columns[c]);
  }
  put<std::uint32_t>(out,
                     static_cast<std::uint32_t>(table.aggregates.size()));
  for (std::size_t a = 0; a < table.aggregates.size(); ++a) {
    put_string(out, table.aggregate_names[a]);
    put<double>(out, table.aggregates[a]);
  }
  put<std::uint32_t>(out, static_cast<std::uint32_t>(table.series.size()));
  for (std::size_t s = 0; s < table.series.size(); ++s) {
    put_string(out, table.series_names[s]);
    const std::vector<double>& values = table.series[s];
    put<std::uint64_t>(out, values.size());
    out.bytes(values.data(), values.size() * sizeof(double));
  }
}

/// `n` packed rows starting at `in`, which the caller has bounds-checked.
std::vector<core::Observation> get_rows(const char* in, std::size_t n) {
  std::vector<core::Observation> rows(n);
  for (core::Observation& obs : rows) {
    std::uint8_t treated;
    std::memcpy(&obs.unit, in + kRowUnit, sizeof(obs.unit));
    std::memcpy(&obs.account, in + kRowAccount, sizeof(obs.account));
    std::memcpy(&treated, in + kRowTreated, sizeof(treated));
    std::memcpy(&obs.outcome, in + kRowOutcome, sizeof(obs.outcome));
    std::memcpy(&obs.hour_of_day, in + kRowHourOfDay,
                sizeof(obs.hour_of_day));
    std::memcpy(&obs.hour_index, in + kRowHourIndex, sizeof(obs.hour_index));
    std::memcpy(&obs.day, in + kRowDay, sizeof(obs.day));
    std::memcpy(&obs.group, in + kRowGroup, sizeof(obs.group));
    std::memcpy(&obs.weight, in + kRowWeight, sizeof(obs.weight));
    obs.treated = treated != 0;
    in += kRowSize;
  }
  return rows;
}

core::ObservationTable get_table(Reader& in) {
  core::ObservationTable table;
  const auto n_columns = in.get<std::uint32_t>("table.columns");
  for (std::uint32_t c = 0; c < n_columns; ++c) {
    std::string metric = in.get_string("table.metric");
    const auto n_rows = in.get<std::uint64_t>("table.rows");
    in.check_fits(n_rows, kRowSize, "table.rows", "rows");
    table.add_column(std::move(metric),
                     get_rows(in.data + in.pos, n_rows));
    in.pos += n_rows * kRowSize;
  }
  const auto n_aggregates = in.get<std::uint32_t>("table.aggregates");
  for (std::uint32_t a = 0; a < n_aggregates; ++a) {
    std::string name = in.get_string("table.aggregate.name");
    const double value = in.get<double>("table.aggregate.value");
    table.add_aggregate(std::move(name), value);
  }
  const auto n_series = in.get<std::uint32_t>("table.series");
  for (std::uint32_t s = 0; s < n_series; ++s) {
    std::string name = in.get_string("table.series.name");
    const auto n_values = in.get<std::uint64_t>("table.series.len");
    in.check_fits(n_values, sizeof(double), "table.series.len", "values");
    std::vector<double> values(n_values);
    if (n_values != 0) {
      std::memcpy(values.data(), in.data + in.pos, n_values * sizeof(double));
      in.pos += n_values * sizeof(double);
    }
    table.add_series(std::move(name), std::move(values));
  }
  return table;
}

template <typename Sink>
void put_record(Sink& out, std::uint64_t key,
                const core::ExperimentCell& cell) {
  put<std::uint64_t>(out, key);
  put<double>(out, cell.allocation);
  put<std::uint64_t>(out, cell.replicate);
  put<std::uint64_t>(out, cell.seed);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(cell.status.state));
  put<std::uint32_t>(out, cell.status.attempts);
  put_string(out, cell.status.error);
  put_quality(out, cell.quality);
  put_table(out, cell.table);
}

struct ParsedRecord {
  std::uint64_t key = 0;
  core::ExperimentCell cell;
};

ParsedRecord parse_record(const char* data, std::size_t size,
                          std::size_t record) {
  Reader in{data, size, 0, record};
  ParsedRecord parsed;
  parsed.key = in.get<std::uint64_t>("key");
  parsed.cell.allocation = in.get<double>("allocation");
  parsed.cell.replicate =
      static_cast<std::size_t>(in.get<std::uint64_t>("replicate"));
  parsed.cell.seed = in.get<std::uint64_t>("seed");
  const auto state = in.get<std::uint8_t>("state");
  if (state > static_cast<std::uint8_t>(core::CellState::kBudgetExceeded)) {
    fail("record " + std::to_string(record) + ", field 'state': " +
         std::to_string(state) + " is not a cell state");
  }
  parsed.cell.status.state = static_cast<core::CellState>(state);
  parsed.cell.status.attempts = in.get<std::uint32_t>("attempts");
  parsed.cell.status.error = in.get_string("error");
  parsed.cell.quality = get_quality(in);
  parsed.cell.table = get_table(in);
  if (in.pos != in.size) {
    fail("record " + std::to_string(record) + ": " +
         std::to_string(in.size - in.pos) +
         " trailing byte(s) after the last field");
  }
  return parsed;
}

/// Reads exactly `size` bytes or throws: the caller has already checked
/// them against the file size, so a short read is an I/O failure.
void read_exact(std::istream& in, char* out, std::size_t size,
                const std::string& path) {
  in.read(out, static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("journal: read failed on " + path);
}

}  // namespace

std::string journal_path(const std::string& directory) {
  return (std::filesystem::path(directory) / "cells.xpj").string();
}

std::uint64_t journal_fingerprint(const ExperimentSpec& spec) {
  Fingerprint fp;
  put<std::uint32_t>(fp, kJournalVersion);
  put_string(fp, spec.scenario);
  // Tuning: everything that changes what a source computes.
  put<double>(fp, spec.tuning.duration_scale);
  put_string(fp, spec.tuning.trace_path);
  put<std::uint64_t>(fp, spec.tuning.budget.max_work_units);
  // Streamed and record-path tables are different shapes of the same
  // world; they must never replay into each other.
  put<std::uint8_t>(fp, spec.tuning.streaming ? 1 : 0);
  // Quality gate: its thresholds decide kOk vs kQualityHold.
  put<double>(fp, spec.quality.srm_p_threshold);
  put<std::uint64_t>(fp, spec.quality.min_rows);
  // Failure policy: retry count changes the seed a flaky cell lands on.
  put<std::uint8_t>(fp, static_cast<std::uint8_t>(spec.on_failure.mode));
  put<std::uint32_t>(fp, spec.on_failure.max_attempts);
  return fp.hash;
}

std::uint64_t journal_cell_key(std::uint64_t fingerprint, double allocation,
                               std::uint64_t seed) noexcept {
  char bytes[sizeof(fingerprint) + sizeof(allocation) + sizeof(seed)];
  std::memcpy(bytes, &fingerprint, sizeof(fingerprint));
  std::memcpy(bytes + sizeof(fingerprint), &allocation, sizeof(allocation));
  std::memcpy(bytes + sizeof(fingerprint) + sizeof(allocation), &seed,
              sizeof(seed));
  return util::fnv1a64(bytes, sizeof(bytes));
}

// ---------------------------------------------------------- CellJournal ----

struct CellJournal::Impl {
  std::string path;
  std::unordered_map<std::uint64_t, core::ExperimentCell> cells;
  std::size_t records = 0;
  std::uint64_t truncated = 0;
  std::mutex append_mu;
  std::ofstream out;
};

CellJournal::CellJournal(std::string path) : impl_(new Impl) {
  impl_->path = std::move(path);
  namespace fs = std::filesystem;
  const fs::path file(impl_->path);
  if (file.has_parent_path()) fs::create_directories(file.parent_path());

  // Replay frame by frame with sized reads: the header, each 12-byte
  // prefix, then the payload into one reused buffer — and the payload
  // only once its declared size fits the bytes left in the file, so the
  // file is never held whole and no read allocates beyond its size. The
  // stream is unbuffered: every read lands straight in its destination.
  const std::uint64_t file_size = fs::exists(file) ? fs::file_size(file) : 0;
  std::uint64_t valid_end = 0;
  if (file_size > 0) {
    std::ifstream in;
    in.rdbuf()->pubsetbuf(nullptr, 0);
    in.open(impl_->path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("journal: cannot open " + impl_->path);
    }
    char header[kHeaderSize];
    const std::size_t header_bytes = static_cast<std::size_t>(
        std::min<std::uint64_t>(file_size, kHeaderSize));
    read_exact(in, header, header_bytes, impl_->path);
    if (header_bytes >= sizeof(kMagic) &&
        std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
      fail(impl_->path + ": not a cell journal (bad magic)");
    }
    // Shorter than a header: a kill mid-header-write. Nothing could have
    // been journaled yet, so valid_end stays 0 and the file is rewritten
    // from scratch below.
    if (header_bytes == kHeaderSize) {
      std::uint32_t version = 0;
      std::memcpy(&version, header + sizeof(kMagic), sizeof(version));
      if (version != kJournalVersion) {
        fail(impl_->path + ": journal version " + std::to_string(version) +
             " (this build reads v" + std::to_string(kJournalVersion) + ")");
      }
      valid_end = kHeaderSize;
      std::vector<char> payload;
      // A frame prefix or payload running past end-of-file is a torn
      // tail — the crash artifact this journal exists to survive. Stop
      // there and resume from the last complete record.
      while (file_size - valid_end >= kFrameSize) {
        char prefix[kFrameSize];
        read_exact(in, prefix, kFrameSize, impl_->path);
        std::uint32_t payload_size = 0;
        std::uint64_t checksum = 0;
        std::memcpy(&payload_size, prefix, sizeof(payload_size));
        std::memcpy(&checksum, prefix + sizeof(payload_size),
                    sizeof(checksum));
        if (file_size - valid_end - kFrameSize < payload_size) break;
        payload.resize(payload_size);
        read_exact(in, payload.data(), payload_size, impl_->path);
        // A *complete* frame with a wrong checksum is not a torn tail,
        // it is corruption — refuse the journal, naming the record.
        if (util::fnv1a64_words(payload.data(), payload_size) != checksum) {
          fail(impl_->path + ": record " + std::to_string(impl_->records) +
               ": checksum mismatch (corrupt journal; delete it to "
               "recompute from scratch)");
        }
        ParsedRecord parsed =
            parse_record(payload.data(), payload_size, impl_->records);
        // Later records win: a recomputed cell supersedes an older copy.
        impl_->cells[parsed.key] = std::move(parsed.cell);
        ++impl_->records;
        valid_end += kFrameSize + payload_size;
      }
      impl_->truncated = file_size - valid_end;
    }
  }

  if (valid_end == 0) {
    // New (or unrecoverably short) file: write a fresh header.
    std::ofstream header(impl_->path,
                         std::ios::binary | std::ios::trunc);
    header.write(kMagic, sizeof(kMagic));
    const std::uint32_t version = kJournalVersion;
    header.write(reinterpret_cast<const char*>(&version), sizeof(version));
    header.flush();
    if (!header) {
      throw std::runtime_error("journal: cannot create " + impl_->path);
    }
  } else if (valid_end < file_size) {
    // Torn tail: cut the file back to the last complete record so the
    // next append starts on a clean frame boundary.
    fs::resize_file(file, valid_end);
  }

  // Unbuffered: append() hands each whole frame to one write.
  impl_->out.rdbuf()->pubsetbuf(nullptr, 0);
  impl_->out.open(impl_->path, std::ios::binary | std::ios::app);
  if (!impl_->out) {
    throw std::runtime_error("journal: cannot append to " + impl_->path);
  }
}

CellJournal::~CellJournal() = default;

const core::ExperimentCell* CellJournal::find(
    std::uint64_t key, double allocation,
    std::uint64_t seed) const noexcept {
  const auto it = impl_->cells.find(key);
  if (it == impl_->cells.end()) return nullptr;
  const core::ExperimentCell& cell = it->second;
  // Key collisions are astronomically unlikely but free to rule out: the
  // record carries its coordinates, so verify them.
  if (cell.seed != seed ||
      std::memcmp(&cell.allocation, &allocation, sizeof(double)) != 0) {
    return nullptr;
  }
  return &cell;
}

void CellJournal::append(std::uint64_t key,
                         const core::ExperimentCell& cell) {
  // Measure, then serialize once into a frame sized exactly, the 12-byte
  // prefix reserved at its front.
  SizeSink measure;
  put_record(measure, key, cell);
  const std::size_t payload_size = measure.size;
  if (payload_size > std::numeric_limits<std::uint32_t>::max()) {
    fail(impl_->path + ": cell (allocation " +
         std::to_string(cell.allocation) + ", replicate " +
         std::to_string(cell.replicate) + ") needs a " +
         std::to_string(payload_size) +
         "-byte payload; a frame holds under 4 GiB");
  }
  const std::size_t frame_size = kFrameSize + payload_size;
  const auto frame = std::make_unique_for_overwrite<char[]>(frame_size);
  char* payload = frame.get() + kFrameSize;
  ByteSink body{payload};
  put_record(body, key, cell);
  ByteSink prefix{frame.get()};
  put<std::uint32_t>(prefix, static_cast<std::uint32_t>(payload_size));
  put<std::uint64_t>(prefix, util::fnv1a64_words(payload, payload_size));

  // One locked write+flush per cell: records from concurrent cells never
  // interleave, and a crash after append() can only tear the *last*
  // frame — exactly what replay recovers from.
  std::lock_guard<std::mutex> lock(impl_->append_mu);
  impl_->out.write(frame.get(), static_cast<std::streamsize>(frame_size));
  impl_->out.flush();
  if (!impl_->out) {
    throw std::runtime_error("journal: write failed on " + impl_->path);
  }
}

std::size_t CellJournal::records() const noexcept { return impl_->records; }

std::uint64_t CellJournal::truncated_bytes() const noexcept {
  return impl_->truncated;
}

}  // namespace xp::lab
