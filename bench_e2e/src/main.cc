// End-to-end SQL benchmark of Stratica (METRICS.md).
//
//   e2e_bench --workload tpch_cstore|meter_rle|mixed_ingest --seed N
//             --seconds S --trace 0|1 [--scale X] [--wrong-answer]
//             [--git-sha SHA] [--spans FILE]
//
// Generates the workload's data from the seed, sets the database up
// kSetups times (setup_s is the median), then runs the closed-loop clients
// for --seconds and checks every answer. With --trace 0 the last line of
// standard output carries the end-to-end metrics; with --trace 1 the run
// spends half its time untraced and half on the traced path, and the last
// line carries the per-layer metrics. Exit code 1 means a wrong answer or a
// failed statement, 2 a set-up failure, 64 a bad command line.
#include <cstdio>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace stratica::e2e {
namespace {

struct PhaseResult {
  double read_elapsed_s = 0;
  uint64_t attempted = 0;  ///< SELECTs issued
  uint64_t selects = 0;    ///< SELECTs that returned rows
  uint64_t failed = 0;     ///< statements that errored or were refused
  uint64_t wrong = 0;
  std::vector<double> cycle_ms;  ///< read units whose every SELECT returned rows
  std::string first_problem;
};

void NoteProblem(std::string* slot, const std::string& what) {
  if (slot->empty()) *slot = what;
  std::fprintf(stderr, "%s\n", what.c_str());
}

/// Run the reader (and the writer, when there is one) for `seconds`. A
/// failed statement fails the run, so the first one stops every client.
PhaseResult RunPhase(Database* db, const WorkloadSpec& spec, Writer* writer,
                     Tracer* tracer, double seconds) {
  PhaseResult result;
  std::mutex mu;
  std::atomic<bool> stop{false};
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  Clock::time_point reads_end = start;

  auto reader = [&] {
    PhaseResult mine;
    for (uint64_t k = 0; Clock::now() < deadline && !stop; ++k) {
      double unit_ms = 0;
      bool unit_ok = true;
      for (const QueryCase& q : spec.cycles[k % spec.cycles.size()]) {
        Clock::time_point a = Clock::now();
        auto rows = RunSelect(db, tracer, q.sql, q.shape);
        unit_ms += MsBetween(a, Clock::now());
        ++mine.attempted;
        if (!rows.ok()) {
          ++mine.failed;
          NoteProblem(&mine.first_problem, q.shape + " failed: " + rows.status().ToString());
          unit_ok = false;
          stop = true;
          break;
        }
        ++mine.selects;
        std::string diff = q.Verify(std::move(rows).value());
        if (!diff.empty()) {
          ++mine.wrong;
          NoteProblem(&mine.first_problem, q.shape + " wrong answer: " + diff);
        }
      }
      if (unit_ok) mine.cycle_ms.push_back(unit_ms);
    }
    std::lock_guard lock(mu);
    reads_end = std::max(reads_end, Clock::now());
    result.attempted += mine.attempted;
    result.selects += mine.selects;
    result.failed += mine.failed;
    result.wrong += mine.wrong;
    result.cycle_ms.insert(result.cycle_ms.end(), mine.cycle_ms.begin(), mine.cycle_ms.end());
    if (result.first_problem.empty()) result.first_problem = mine.first_problem;
  };

  std::vector<std::thread> threads;
  threads.emplace_back(reader);
  if (writer != nullptr) {
    threads.emplace_back([&] {
      std::string error;
      while (Clock::now() < deadline && !stop) {
        if (!writer->Step(&error)) {
          stop = true;
          std::lock_guard lock(mu);
          ++result.failed;
          NoteProblem(&result.first_problem, "writer: " + error);
          break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  result.read_elapsed_s = std::chrono::duration<double>(reads_end - start).count();
  return result;
}

/// Counters read before and after the traced phase.
struct DbCounters {
  ResourceManagerStats admission;
  uint64_t tasks_run = 0, tasks_stolen = 0, network_bytes = 0;

  static DbCounters Read(Database* db) {
    DbCounters c;
    c.admission = db->resource_manager()->stats();
    c.tasks_run = db->scheduler()->stats().tasks_run.load();
    c.tasks_stolen = db->scheduler()->stats().tasks_stolen.load();
    c.network_bytes = db->cluster()->network_bytes();
    return c;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

constexpr double kWarmupSeconds = 2.0;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

int Run(const Args& args) {
  WorkloadSpec spec;
  if (args.workload == "tpch_cstore") {
    spec = MakeTpchCstore(args);
  } else if (args.workload == "meter_rle") {
    spec = MakeMeterRle(args);
  } else if (args.workload == "mixed_ingest") {
    spec = MakeMixedIngest(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 64;
  }
  if (args.wrong_answer) {
    // Self-test of the gate: one expected answer gains a row no database
    // could return.
    for (QueryCase& q : spec.cycles[0]) {
      if (!q.check) {
        q.expected.push_back(q.expected.empty() ? Row{Value::Int64(-1)} : q.expected[0]);
        break;
      }
    }
  }

  // ---- set-up, repeated; the last database is the one measured ---------------
  std::unique_ptr<Database> db;
  std::unique_ptr<Writer> writer;
  std::shared_ptr<CountingFs> fs;
  SetupStats setup;
  std::vector<double> setup_s;
  std::vector<double> load_rows_per_s;
  uint64_t attempted = 0, failed = 0, wrong = 0;
  std::string problem;
  for (int i = 0; i < kSetups; ++i) {
    writer.reset();
    db.reset();
    setup = SetupStats{};
    DatabaseOptions options = spec.options;
    if (args.trace) {
      fs = std::make_shared<CountingFs>();
      options.fs = fs;
    }
    Clock::time_point start = Clock::now();
    db = std::make_unique<Database>(options);
    spec.load(db.get(), &setup);
    for (const auto& cycle : spec.cycles) {  // the warm pass, answers checked
      for (const QueryCase& q : cycle) {
        auto rows = RunSelect(db.get(), nullptr, q.sql, q.shape);
        Check(rows.status(), "warm pass " + q.shape);
        std::string diff = q.Verify(std::move(rows).value());
        ++attempted;
        if (!diff.empty()) {
          ++wrong;
          NoteProblem(&problem, "warm pass " + q.shape + " wrong answer: " + diff);
        }
      }
    }
    if (!spec.writer_table.empty()) {
      // The writer's part of the warm pass: its cadence up to the first
      // DELETE.
      writer = std::make_unique<Writer>(db.get(), spec.writer_table, spec.writer_first_id,
                                        DeriveSeed(args.seed, 4));
      writer->AddLoaded(*spec.writer_loaded);
      std::string error;
      for (int b = 0; b < 5; ++b) {
        if (!writer->Step(&error)) Check(Status::Internal(error), "warm pass writer");
      }
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    load_rows_per_s.push_back(Ratio(static_cast<double>(setup.rows_loaded), setup.load_s));
  }
  const double setup_peak_rss_mb = PeakRssMb();
  const DatabaseOptions& options = spec.options;

  // ---- timed phase(s) ---------------------------------------------------------
  // A discarded warm-up lets the first concurrent stretch settle (its first
  // DELETEs beside reads ran up to 6x slower in some runs) before any
  // sample is kept; its answers are still checked.
  std::vector<PhaseResult> phases;
  phases.push_back(RunPhase(db.get(), spec, writer.get(), nullptr, kWarmupSeconds));
  if (writer) writer->ResetSamples();
  Tracer tracer(db.get(), options);
  DbCounters before, after;
  if (!args.trace) {
    phases.push_back(RunPhase(db.get(), spec, writer.get(), nullptr, args.seconds));
  } else {
    phases.push_back(RunPhase(db.get(), spec, writer.get(), nullptr, args.seconds / 2));
    before = DbCounters::Read(db.get());
    if (writer) writer->set_tracer(&tracer);
    phases.push_back(RunPhase(db.get(), spec, writer.get(), &tracer, args.seconds / 2));
    if (writer) writer->set_tracer(nullptr);
    after = DbCounters::Read(db.get());
  }
  for (const PhaseResult& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
    wrong += p.wrong;
    if (problem.empty()) problem = p.first_problem;
  }
  const PhaseResult& phase = phases[1];  // untraced, measured

  // ---- checks after the clients stop --------------------------------------------
  uint64_t fidelity_checked = 0;
  if (args.trace) {
    // The traced path must return exactly what Database::Execute returns.
    Tracer scratch(db.get(), options);
    for (const auto& cycle : spec.cycles) {
      for (const QueryCase& q : cycle) {
        auto plain = db->Execute(q.sql);
        auto split = scratch.Select(q.sql, q.shape);
        attempted += 2;
        ++fidelity_checked;
        if (!plain.ok() || !split.ok()) {
          ++failed;
          NoteProblem(&problem, q.shape + " failed in the fidelity check");
          continue;
        }
        std::string diff = CompareRows(RowsOf(std::move(split).value()),
                                       RowsOf(std::move(plain.value().rows)), q.ordered);
        if (!diff.empty()) {
          ++wrong;
          NoteProblem(&problem, q.shape + " traced rows differ from Execute: " + diff);
        }
      }
    }
  }
  // The write path: the trickle writer on mixed_ingest, the set-up bulk
  // loads (median rate over the set-ups) on the read-only workloads.
  Writer::Samples writes;
  double ingest_rows_per_s = Median(load_rows_per_s);
  if (writer) {
    std::string ledger = writer->VerifyLedger();
    attempted += writer->statements() + 2;
    if (!ledger.empty()) {
      ++wrong;
      NoteProblem(&problem, "ledger: " + ledger);
    }
    writes = writer->samples();
    ingest_rows_per_s = Ratio(static_cast<double>(writes.inserted) -
                                  static_cast<double>(writes.deleted),
                              writes.busy_s);
  }

  uint64_t containers = 0;
  double stored_ratio = StoredBytesPerRawByte(db.get(), spec.tables, &containers);
  Summary reads = Summarize(phase.cycle_ms);
  double qps = Ratio(static_cast<double>(phase.selects), phase.read_elapsed_s);
  bool correct = wrong == 0 && failed == 0;

  // ---- report -----------------------------------------------------------------
  JsonObject sizes;
  for (const auto& [name, n] : spec.sizes) sizes.Add(name, n);
  JsonObject record;
  record.Add("workload", args.workload)
      .Add("seed", args.seed)
      .Add("trace", static_cast<uint64_t>(args.trace))
      .Add("seconds", args.seconds)
      .Add("scale", args.scale)
      .Add("nproc", static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .Add("build_type", std::string(E2E_BUILD_TYPE))
      .Add("git_sha", args.git_sha)
      .Add("reader_threads", static_cast<uint64_t>(1))
      .Add("writer_threads", static_cast<uint64_t>(writer ? 1 : 0))
      .Add("worker_threads", static_cast<uint64_t>(options.worker_threads))
      .Add("intra_node_parallelism", static_cast<uint64_t>(options.intra_node_parallelism))
      .AddRaw("sizes", sizes.str())
      .Add("setups", static_cast<uint64_t>(kSetups))
      .AddRaw("setup_s_each", JsonArray(setup_s))
      .AddRaw("load_rows_per_s_each", JsonArray(load_rows_per_s))
      .Add("setup_mover_ms", Median(setup.mover_ms))
      .Add("read_units", static_cast<uint64_t>(reads.n))
      .Add("read_p90_ms", reads.p90)
      .Add("read_tail_ms", reads.tail)
      .Add("read_tail_percentile", reads.tail_percentile)
      .Add("selects", phase.selects)
      .Add("ingest_path", std::string(writer ? "trickle writer" : "set-up bulk load"))
      .Add("inserts", static_cast<uint64_t>(writes.insert_ms.size()))
      .Add("insert_p50_ms", Median(writes.insert_ms))
      .Add("deletes", static_cast<uint64_t>(writes.delete_ms.size()))
      .Add("delete_p50_ms", Median(writes.delete_ms))
      .Add("mover_passes", static_cast<uint64_t>(writes.mover_ms.size()))
      .Add("ingest_rows_per_s", ingest_rows_per_s)
      .Add("peak_rss_mb", PeakRssMb())
      .Add("failed_ratio", Ratio(static_cast<double>(failed + wrong), static_cast<double>(attempted)))
      .Add("wrong_answers", wrong)
      .Add("first_problem", problem);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"queries_per_s", qps, "1/s"},
        {"read_p50_ms", reads.p50, "ms"},
        {"stored_bytes_per_raw_byte", stored_ratio, "ratio"},
        {"setup_peak_rss_mb", setup_peak_rss_mb, "MB"},
    };
  } else {
    Tracer::Totals t = tracer.Summarize();
    const ExecStats& s = tracer.exec_stats();
    double n = static_cast<double>(std::max<uint64_t>(1, t.selects));
    auto per_query = [&](const std::atomic<uint64_t>& c) {
      return static_cast<double>(c.load()) / n;
    };
    double scanned = static_cast<double>(s.rows_scanned.load());
    const PhaseResult& traced = phases[2];
    double traced_qps = Ratio(static_cast<double>(traced.selects), traced.read_elapsed_s);
    TupleMoverTotals mover = MoverTotals(db.get());
    std::vector<double> mover_ms = setup.mover_ms;
    mover_ms.insert(mover_ms.end(), writes.mover_ms.begin(), writes.mover_ms.end());
    uint64_t rows_inserted = writer ? writer->rows_inserted() : 0;
    double user_rows = static_cast<double>(setup.rows_loaded + rows_inserted);
    // Every column the workloads write is 8 bytes wide; the writer's
    // table has three.
    double user_bytes = static_cast<double>(setup.values_loaded) * 8 +
                        static_cast<double>(rows_inserted) * 3 * 8;
    JsonObject drains;
    for (const auto& [shape, ms] : t.drain_ms_by_shape) drains.Add(shape, ms);
    record.AddRaw("drain_ms_by_shape", drains.str())
        .Add("traced_selects", t.selects)
        .Add("fidelity_checked", fidelity_checked);
    metrics = {
        {"sql.parse_us", t.parse_us, "us"},
        {"opt.plan_us", t.plan_us, "us"},
        {"opt.fanout_mean", t.fanout_mean, "count"},
        {"opt.morsel_bypass_ratio", t.bypass_ratio, "ratio"},
        {"exec.admit_wait_us", t.admit_us, "us"},
        {"exec.admit_queued", static_cast<double>(after.admission.queued - before.admission.queued), "count"},
        {"exec.admit_timeouts", static_cast<double>(after.admission.timeouts - before.admission.timeouts), "count"},
        {"exec.drain_ms", t.drain_ms, "ms"},
        {"exec.close_us", t.close_us, "us"},
        {"exec.query_self_us", t.self_us, "us"},
        {"exec.scheduler.tasks_run", static_cast<double>(after.tasks_run - before.tasks_run), "count"},
        {"exec.scheduler.steal_ratio",
         Ratio(static_cast<double>(after.tasks_stolen - before.tasks_stolen),
               static_cast<double>(after.tasks_run - before.tasks_run)),
         "ratio"},
        {"exec.rows_scanned", per_query(s.rows_scanned), "rows/query"},
        {"exec.bytes_read", per_query(s.bytes_read), "B/query"},
        {"exec.rows_decoded", per_query(s.rows_decoded), "values/query"},
        {"exec.payload_bytes_skipped", per_query(s.payload_bytes_skipped), "B/query"},
        {"exec.blocks_pruned", per_query(s.blocks_pruned), "blocks/query"},
        {"exec.rows_sip_filtered", per_query(s.rows_sip_filtered), "rows/query"},
        {"exec.rows_processed_encoded", per_query(s.rows_processed_encoded), "rows/query"},
        {"exec.decode_elided_bytes", per_query(s.decode_elided_bytes), "B/query"},
        {"exec.rows_spilled", per_query(s.rows_spilled), "rows/query"},
        {"exec.prepass_disabled", per_query(s.prepass_disabled), "count/query"},
        {"exec.hash_to_merge_switches", per_query(s.hash_to_merge_switches), "count/query"},
        {"exec.exchange_bytes", per_query(s.exchange_bytes), "B/query"},
        {"exec.encoded_row_ratio", Ratio(static_cast<double>(s.rows_processed_encoded.load()), scanned), "ratio"},
        {"exec.sip_filter_ratio", Ratio(static_cast<double>(s.rows_sip_filtered.load()), scanned), "ratio"},
        {"exec.bytes_read_per_row_out",
         Ratio(static_cast<double>(s.bytes_read.load()), static_cast<double>(t.rows_out)), "B/row"},
        {"storage.scan_ms", ScanDrainMs(db.get(), spec.fact_projection, spec.scan_columns, 5), "ms"},
        {"storage.ros_containers", static_cast<double>(containers), "count"},
        {"common.fs.read_ops", static_cast<double>(fs->read_ops.load()), "count"},
        {"common.fs.bytes_read", static_cast<double>(fs->bytes_read.load()), "B"},
        {"common.fs.write_ops", static_cast<double>(fs->write_ops.load()), "count"},
        {"common.fs.bytes_written", static_cast<double>(fs->bytes_written.load()), "B"},
        {"common.fs.bytes_written_per_user_byte",
         Ratio(static_cast<double>(fs->bytes_written.load()), user_bytes), "ratio"},
        {"tuplemover.pass_ms", Median(mover_ms), "ms"},
        {"tuplemover.moveouts", static_cast<double>(mover.moveouts), "count"},
        {"tuplemover.mergeouts", static_cast<double>(mover.mergeouts), "count"},
        {"tuplemover.rows_merged", static_cast<double>(mover.rows_merged), "rows"},
        {"tuplemover.merge_amplification", Ratio(static_cast<double>(mover.rows_merged), user_rows), "ratio"},
        {"cluster.load_rows_per_s", Ratio(static_cast<double>(setup.rows_loaded), setup.load_s), "rows/s"},
        {"cluster.network_bytes", static_cast<double>(after.network_bytes - before.network_bytes), "B"},
        {"trace.overhead_ratio", Ratio(qps, traced_qps), "ratio"},
    };
    if (!args.spans_path.empty()) Check(tracer.WriteSpans(args.spans_path), "write spans");
  }
  PrintResult(record, correct, attempted, failed + wrong, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace stratica::e2e

int main(int argc, char** argv) {
  stratica::e2e::Args args;
  if (!stratica::e2e::ParseArgs(argc, argv, &args)) return 64;
  return stratica::e2e::Run(args);
}
