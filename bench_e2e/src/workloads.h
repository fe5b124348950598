// The benchmark's three workloads (METRICS.md). Each is described by a
// WorkloadSpec: database options, how to create and load its data, and the
// SELECT cycles its clients run. main.cc runs any spec the same way.
#ifndef STRATICA_BENCH_E2E_WORKLOADS_H_
#define STRATICA_BENCH_E2E_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace stratica::e2e {

/// What one set-up spent in the load and tuple-mover calls.
struct SetupStats {
  uint64_t rows_loaded = 0;
  uint64_t values_loaded = 0;  ///< rows x columns
  double load_s = 0;
  std::vector<double> mover_ms;
};

/// Database::Load `rows` into `table`, timed into `stats`.
void LoadTimed(Database* db, const std::string& table, const RowBlock& rows,
               SetupStats* stats);
/// One timed Database::RunTupleMover pass.
void MoverTimed(Database* db, SetupStats* stats);

struct WorkloadSpec {
  DatabaseOptions options;
  /// The one closed-loop read client runs cycles[k % cycles.size()] as its
  /// k-th read unit, back to back. A cycle is one read unit: read_p50_ms is
  /// per cycle, queries_per_s per SELECT.
  std::vector<std::vector<QueryCase>> cycles;
  /// CREATE + Load + RunTupleMover on a fresh database.
  std::function<void(Database*, SetupStats*)> load;
  /// Tables whose projections the census covers.
  std::vector<std::string> tables;
  /// storage.scan_ms: the fact projection and the columns its queries
  /// filter, group or join on.
  std::string fact_projection;
  std::vector<std::string> scan_columns;
  /// mixed_ingest: a Writer runs beside the reader on this table,
  /// starting at `writer_first_id`; `writer_loaded` seeds its ledger.
  std::string writer_table;
  int64_t writer_first_id = 0;
  std::shared_ptr<const RowBlock> writer_loaded;
  /// Facts for the record line (data sizes).
  std::vector<std::pair<std::string, uint64_t>> sizes;
};

WorkloadSpec MakeTpchCstore(const Args& args);
WorkloadSpec MakeMeterRle(const Args& args);
WorkloadSpec MakeMixedIngest(const Args& args);

}  // namespace stratica::e2e

#endif  // STRATICA_BENCH_E2E_WORKLOADS_H_
