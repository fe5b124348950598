// Shared machinery of the end-to-end benchmark (METRICS.md): command line,
// latency summaries, the counting FileSystem, the traced SELECT path, answer
// checking, the mixed_ingest writer and JSON output.
//
// The benchmark drives Stratica only through its public API. The traced
// path splits a SELECT into the public calls Database::RunSelect makes
// (ParseSql, Planner::PlanSelect, ResourceManager::Admit, DrainOperator,
// plan teardown) and times each call as a span, so per-layer numbers need
// no tracing inside src/.
#ifndef STRATICA_BENCH_E2E_HARNESS_H_
#define STRATICA_BENCH_E2E_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/fs.h"
#include "common/rng.h"

namespace stratica::e2e {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- command line -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Data-size multiplier; the self-test runs every workload tiny.
  double scale = 1.0;
  /// Corrupt one expected answer so the correctness gate must trip.
  bool wrong_answer = false;
  std::string git_sha = "unknown";
  /// Traced runs write their spans here (JSON lines) when set.
  std::string spans_path;
};

/// Parse `--flag value` pairs. Returns false (after printing why) on a
/// malformed command line.
bool ParseArgs(int argc, char** argv, Args* args);

/// Abort the run (exit code 2, no result line) on a set-up failure: the
/// benchmark cannot measure a program that does not start.
void Check(const Status& st, const std::string& what);
template <typename T>
T Check(Result<T> r, const std::string& what) {
  Check(r.status(), what);
  return std::move(r).value();
}

// ---- latency summaries ------------------------------------------------------

/// Median, 90th percentile, and the highest percentile with at least ten
/// samples beyond it (the 11th-largest sample), with the sample count behind
/// them.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p90 = 0;
  double tail = 0;
  double tail_percentile = 0;  ///< which percentile `tail` is, in [0, 100]
};
Summary Summarize(std::vector<double> samples);
double Median(std::vector<double> samples);

// ---- counting filesystem ----------------------------------------------------

/// MemFileSystem that counts reads and writes (common.fs.* metrics). Owned
/// by the benchmark and passed in DatabaseOptions::fs.
class CountingFs : public FileSystem {
 public:
  Status WriteFile(const std::string& path, const std::string& data) override;
  Result<std::string> ReadFile(const std::string& path) const override;
  Result<std::string> ReadRange(const std::string& path, uint64_t offset,
                                uint64_t length) const override;
  Status ReadRangeInto(const std::string& path, uint64_t offset, uint64_t length,
                       std::string* out) const override;
  Result<uint64_t> FileSize(const std::string& path) const override {
    return inner_.FileSize(path);
  }
  bool Exists(const std::string& path) const override { return inner_.Exists(path); }
  Status Delete(const std::string& path) override { return inner_.Delete(path); }
  Result<std::vector<std::string>> List(const std::string& prefix) const override {
    return inner_.List(prefix);
  }
  Status HardLink(const std::string& source, const std::string& target) override {
    return inner_.HardLink(source, target);
  }

  mutable std::atomic<uint64_t> read_ops{0};
  mutable std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> write_ops{0};
  std::atomic<uint64_t> bytes_written{0};

 private:
  MemFileSystem inner_;
};

// ---- answers ----------------------------------------------------------------

using Row = std::vector<Value>;

/// Rows of a result block, decoded to values.
std::vector<Row> RowsOf(RowBlock block);

/// Empty when `got` equals `want`, else a description of the first
/// difference. Unordered results compare as sorted multisets; FLOAT values
/// compare within a relative 1e-9 (parallel sums add in any order).
std::string CompareRows(std::vector<Row> got, std::vector<Row> want, bool ordered);

/// One SELECT of a workload's cycle with its answer computed at set-up by
/// plain C++ over the generated arrays.
struct QueryCase {
  QueryCase() = default;
  QueryCase(std::string shape, std::string sql, std::vector<Row> expected,
            bool ordered = false)
      : shape(std::move(shape)), sql(std::move(sql)), expected(std::move(expected)),
        ordered(ordered) {}

  std::string shape;  ///< e.g. "Q4" or "group_by_meter"
  std::string sql;
  std::vector<Row> expected;
  bool ordered = false;
  /// Replaces `expected` where the answer depends on the snapshot (reads
  /// beside writes): returns a description of what is wrong, or "".
  std::function<std::string(const std::vector<Row>&)> check;

  /// Empty when `rows` is the right answer, else what is wrong.
  std::string Verify(RowBlock rows) const {
    return check ? check(RowsOf(std::move(rows)))
                 : CompareRows(RowsOf(std::move(rows)), expected, ordered);
  }
};

// ---- traced SELECT path -----------------------------------------------------

/// A timed interval. Spans of one statement share `query`; `parent` indexes
/// the statement's root span in the same log (-1 for a root).
struct Span {
  uint64_t query = 0;
  int64_t parent = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Collects spans and per-query counters of the traced phase. Thread-safe.
/// Spans stay in memory until WriteSpans at the end of the run.
class Tracer {
 public:
  Tracer(Database* db, const DatabaseOptions& options);

  /// Run one SELECT as Database::RunSelect does, but through its public
  /// calls, recording parse/plan/admit/drain/close spans under a `shape`
  /// root span and folding the query's private ExecStats into the totals.
  Result<RowBlock> Select(const std::string& sql, const std::string& shape);

  /// Record a statement without children (INSERT, DELETE, mover pass).
  void RecordStatement(const char* name, Clock::time_point start, Clock::time_point end);

  /// Per-layer metrics derived from the spans and counters (see METRICS.md).
  struct Totals {
    uint64_t selects = 0;
    double parse_us = 0, plan_us = 0, admit_us = 0, drain_ms = 0, close_us = 0;
    double self_us = 0;  ///< root span minus the time its children cover
    double fanout_mean = 0, bypass_ratio = 0;
    uint64_t rows_out = 0;
    std::map<std::string, double> drain_ms_by_shape;
  };
  Totals Summarize() const;
  const ExecStats& exec_stats() const { return stats_; }

  Status WriteSpans(const std::string& path) const;

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  Database* db_;
  DatabaseOptions options_;
  Clock::time_point origin_ = Clock::now();
  /// Spill files of traced queries get their own name range so they never
  /// collide with Database::Execute's (which shares one private sequence).
  std::shared_ptr<std::atomic<uint64_t>> spill_seq_ =
      std::make_shared<std::atomic<uint64_t>>(uint64_t{1} << 40);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  ExecStats stats_;
  uint64_t next_query_ = 0;
  uint64_t fanout_sum_ = 0;
  uint64_t bypasses_ = 0;
  uint64_t rows_out_ = 0;
  std::map<std::string, std::vector<double>> drain_ms_by_shape_;
};

/// Runs one SELECT either through Database::Execute or, when `tracer` is
/// set, through the traced path. Returns the decoded rows.
Result<RowBlock> RunSelect(Database* db, Tracer* tracer, const std::string& sql,
                           const std::string& shape);

// ---- writer -----------------------------------------------------------------

/// The mixed_ingest writer: 100-row INSERT batches into a (id, grp, val)
/// table. Every 5th batch it also DELETEs its oldest live batch, every 20th
/// it runs one tuple-mover pass. It keeps a ledger of what it committed so
/// the table can be checked afterwards. Single-threaded.
class Writer {
 public:
  static constexpr int kBatchRows = 100;
  static constexpr int kGroups = 10;
  /// Inserted `val`s are at least this, above every set-up value, so
  /// filters below it see only set-up rows.
  static constexpr int64_t kInsertedValFloor = 1000000;

  Writer(Database* db, std::string table, int64_t first_id, uint64_t seed);

  /// Record each statement as a span in `tracer` from now on (null: none).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Credit rows loaded at set-up to the ledger.
  void AddLoaded(const RowBlock& rows);
  /// One batch (and its DELETE / mover pass when due). False on failure.
  bool Step(std::string* error);
  /// Compare COUNT(*), SUM(val) and per-grp counts against the ledger.
  std::string VerifyLedger();

  /// What the writer did since construction or the last ResetSamples.
  struct Samples {
    std::vector<double> insert_ms, delete_ms, mover_ms;
    double busy_s = 0;  ///< wall time inside Step
    uint64_t inserted = 0, deleted = 0;  ///< rows
  };
  const Samples& samples() const { return samples_; }
  void ResetSamples() { samples_ = Samples{}; }

  /// Lifetime totals.
  uint64_t statements() const { return statements_; }
  uint64_t rows_inserted() const { return rows_inserted_; }

 private:
  bool StepOnce(std::string* error);

  Database* db_;
  Tracer* tracer_ = nullptr;
  std::string table_;
  Rng rng_;
  int64_t next_id_;
  uint64_t batch_ = 0;
  /// First id -> SUM(val) of every inserted batch not yet deleted.
  std::map<int64_t, int64_t> live_batches_;
  int64_t count_ = 0;
  int64_t sum_val_ = 0;
  std::vector<int64_t> grp_count_ = std::vector<int64_t>(kGroups, 0);
  uint64_t rows_inserted_ = 0;
  uint64_t statements_ = 0;
  Samples samples_;
};

// ---- per-run measurements ---------------------------------------------------

/// Census bytes over raw bytes, summed over every projection (buddies
/// included) of `tables`; also returns the container count.
double StoredBytesPerRawByte(Database* db, const std::vector<std::string>& tables,
                             uint64_t* containers);

/// Peak resident set of the process, MB.
double PeakRssMb();

/// Median wall time of draining a hand-built ScanOperator over every node's
/// storage of `projection`, reading `columns` (storage.scan_ms).
double ScanDrainMs(Database* db, const std::string& projection,
                   const std::vector<std::string>& columns, int reps);

struct TupleMoverTotals {
  uint64_t moveouts = 0, mergeouts = 0, rows_merged = 0;
};
TupleMoverTotals MoverTotals(Database* db);

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Ordered JSON object built field by field (values are raw JSON).
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, uint64_t value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& AddRaw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};
std::string JsonNumber(double v);
std::string JsonArray(const std::vector<double>& values);

/// Print the record line (seed, host, sample counts, ...) and then the
/// result line, which is the last line of standard output.
void PrintResult(const JsonObject& record, bool correct, uint64_t attempted,
                 uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace stratica::e2e

#endif  // STRATICA_BENCH_E2E_HARNESS_H_
