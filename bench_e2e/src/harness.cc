#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "exec/scan.h"
#include "exec/simple_ops.h"
#include "opt/planner.h"
#include "sql/parser.h"

namespace stratica::e2e {

// ---- command line -----------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--wrong-answer") {
      args->wrong_answer = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--scale") {
      args->scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), value.c_str());
      return false;
    }
  }
  if (args->seconds <= 0 || args->scale <= 0) {
    std::fprintf(stderr, "--seconds and --scale must be positive\n");
    return false;
  }
  return true;
}

void Check(const Status& st, const std::string& what) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what.c_str(), st.ToString().c_str());
  std::exit(2);
}

// ---- latency summaries ------------------------------------------------------

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = Median(samples);
  std::sort(samples.begin(), samples.end());
  s.p90 = samples[(s.n - 1) * 9 / 10];
  // The highest percentile with at least ten samples beyond it is the
  // 11th-largest sample; a short run falls back to its maximum.
  size_t idx = s.n > 10 ? s.n - 11 : s.n - 1;
  s.tail = samples[idx];
  s.tail_percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(s.n);
  return s;
}

// ---- counting filesystem ----------------------------------------------------

Status CountingFs::WriteFile(const std::string& path, const std::string& data) {
  write_ops.fetch_add(1, std::memory_order_relaxed);
  bytes_written.fetch_add(data.size(), std::memory_order_relaxed);
  return inner_.WriteFile(path, data);
}

Result<std::string> CountingFs::ReadFile(const std::string& path) const {
  auto data = inner_.ReadFile(path);
  read_ops.fetch_add(1, std::memory_order_relaxed);
  if (data.ok()) bytes_read.fetch_add(data.value().size(), std::memory_order_relaxed);
  return data;
}

Result<std::string> CountingFs::ReadRange(const std::string& path, uint64_t offset,
                                          uint64_t length) const {
  auto data = inner_.ReadRange(path, offset, length);
  read_ops.fetch_add(1, std::memory_order_relaxed);
  if (data.ok()) bytes_read.fetch_add(data.value().size(), std::memory_order_relaxed);
  return data;
}

Status CountingFs::ReadRangeInto(const std::string& path, uint64_t offset,
                                 uint64_t length, std::string* out) const {
  Status st = inner_.ReadRangeInto(path, offset, length, out);
  read_ops.fetch_add(1, std::memory_order_relaxed);
  if (st.ok()) bytes_read.fetch_add(out->size(), std::memory_order_relaxed);
  return st;
}

// ---- answers ----------------------------------------------------------------

std::vector<Row> RowsOf(RowBlock block) {
  block.DecodeAll();
  std::vector<Row> rows(block.NumRows());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (const auto& col : block.columns) rows[r].push_back(col.GetValue(r));
  }
  return rows;
}

namespace {

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  bool fa = StorageClassOf(a.type()) == StorageClass::kFloat64;
  bool fb = StorageClassOf(b.type()) == StorageClass::kFloat64;
  if (fa || fb) {
    double x = a.AsDouble(), y = b.AsDouble();
    return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  if (StorageClassOf(a.type()) == StorageClass::kString) return a.str() == b.str();
  return a.i64() == b.i64();
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t c = 0; c < std::min(a.size(), b.size()); ++c) {
    int cmp = a[c].Compare(b[c]);
    if (cmp != 0) return cmp < 0;
  }
  return a.size() < b.size();
}

std::string RowString(const Row& row) {
  std::string s = "(";
  for (size_t c = 0; c < row.size(); ++c) s += (c ? ", " : "") + row[c].ToString();
  return s + ")";
}

}  // namespace

std::string CompareRows(std::vector<Row> got, std::vector<Row> want, bool ordered) {
  if (got.size() != want.size()) {
    return "row count " + std::to_string(got.size()) + " != expected " +
           std::to_string(want.size());
  }
  if (!ordered) {
    std::sort(got.begin(), got.end(), RowLess);
    std::sort(want.begin(), want.end(), RowLess);
  }
  for (size_t r = 0; r < got.size(); ++r) {
    bool same = got[r].size() == want[r].size();
    for (size_t c = 0; same && c < got[r].size(); ++c) same = SameValue(got[r][c], want[r][c]);
    if (!same) {
      return "row " + std::to_string(r) + " " + RowString(got[r]) + " != expected " +
             RowString(want[r]);
    }
  }
  return "";
}

// ---- traced SELECT path -----------------------------------------------------

Tracer::Tracer(Database* db, const DatabaseOptions& options) : db_(db), options_(options) {}

Result<RowBlock> Tracer::Select(const std::string& sql, const std::string& shape) {
  std::vector<Span> spans;
  auto child = [&](const char* name, Clock::time_point a, Clock::time_point b) {
    spans.push_back({0, 0, name, Ns(a), Ns(b)});
  };
  Clock::time_point t0 = Clock::now();
  auto parsed = ParseSql(sql);
  Clock::time_point t1 = Clock::now();
  child("sql.parse", t0, t1);
  STRATICA_RETURN_NOT_OK(parsed.status());
  if (parsed.value().type != Statement::Type::kSelect) {
    return Status::InvalidArgument("traced path runs SELECT only: ", sql);
  }
  const SelectStmt& stmt = parsed.value().select;

  // The same calls, in the same order, as Database::RunSelect and
  // Database::SessionContext.
  Planner planner(db_->cluster());
  auto plan = planner.PlanSelect(stmt, options_.intra_node_parallelism);
  Clock::time_point t2 = Clock::now();
  child("opt.plan", t1, t2);
  STRATICA_RETURN_NOT_OK(plan.status());
  auto ticket = db_->resource_manager()->Admit(plan.value().estimated_memory_bytes);
  Clock::time_point t3 = Clock::now();
  child("exec.admit", t2, t3);
  STRATICA_RETURN_NOT_OK(ticket.status());
  Epoch epoch = db_->cluster()->epochs()->LatestQueryableEpoch();
  ExecStats stats;
  ResourceBudget budget(ticket.value().bytes());
  size_t allowed = ResourceManager::AllowedFanout(
      ticket.value().bytes(), plan.value().estimated_memory_bytes, plan.value().fanout);
  if (allowed < plan.value().fanout) {
    Clock::time_point r0 = Clock::now();
    plan = planner.PlanSelect(stmt, allowed);
    child("opt.plan", r0, Clock::now());
    STRATICA_RETURN_NOT_OK(plan.status());
  }
  PhysicalPlan& p = plan.value();
  if (p.morsel_bypass) stats.morsel_bypasses.fetch_add(1);

  ExecContext ctx;
  ctx.fs = db_->fs();
  ctx.epoch = epoch;
  ctx.budget = &budget;
  ctx.stats = &stats;
  ctx.spill_seq = spill_seq_;
  ctx.scheduler = db_->scheduler();
  ctx.intra_node_parallelism = p.fanout;
  ctx.sort_memory_bytes = options_.sort_memory_budget;
  ctx.hedge_deadline_ms = options_.hedge_deadline_ms;
  ctx.hedge_max_attempts = options_.hedge_max_attempts;
  Clock::time_point t4 = Clock::now();
  auto rows = DrainOperator(p.root.get(), &ctx);
  Clock::time_point t5 = Clock::now();
  child("exec.drain", t4, t5);
  p.root.reset();  // joins the fragments, as RunSelect's teardown does
  Clock::time_point t6 = Clock::now();
  child("exec.close", t5, t6);
  ticket.value().Release();

  std::lock_guard lock(mu_);
  uint64_t query = next_query_++;
  int64_t root = static_cast<int64_t>(spans_.size());
  spans_.push_back({query, -1, shape, Ns(t0), Ns(t6)});
  for (Span s : spans) {
    s.query = query;
    s.parent = root;
    spans_.push_back(s);
  }
  drain_ms_by_shape_[shape].push_back(MsBetween(t4, t5));
  stats_.MergeFrom(stats);
  fanout_sum_ += p.fanout;
  if (p.morsel_bypass) ++bypasses_;
  if (!rows.ok()) return rows.status();
  rows_out_ += rows.value().NumRows();
  return rows;
}

void Tracer::RecordStatement(const char* name, Clock::time_point start,
                             Clock::time_point end) {
  std::lock_guard lock(mu_);
  spans_.push_back({next_query_++, -1, name, Ns(start), Ns(end)});
}

Tracer::Totals Tracer::Summarize() const {
  std::lock_guard lock(mu_);
  Totals t;
  std::map<std::string, double> sum_ns;
  // Self time of each SELECT root: its duration minus the union of its
  // children's intervals (children are recorded in start order).
  double self_ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) {
      sum_ns[s.name] += static_cast<double>(s.end_ns - s.start_ns);
      continue;
    }
    if (i + 1 >= spans_.size() || spans_[i + 1].parent != static_cast<int64_t>(i)) continue;
    ++t.selects;
    int64_t covered = 0, reach = s.start_ns;
    for (size_t j = i + 1; j < spans_.size() && spans_[j].parent == static_cast<int64_t>(i);
         ++j) {
      int64_t a = std::max(spans_[j].start_ns, reach), b = spans_[j].end_ns;
      if (b > a) covered += b - a;
      reach = std::max(reach, b);
    }
    self_ns += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  if (t.selects == 0) return t;
  double n = static_cast<double>(t.selects);
  t.parse_us = sum_ns["sql.parse"] / n / 1e3;
  t.plan_us = sum_ns["opt.plan"] / n / 1e3;
  t.admit_us = sum_ns["exec.admit"] / n / 1e3;
  t.drain_ms = sum_ns["exec.drain"] / n / 1e6;
  t.close_us = sum_ns["exec.close"] / n / 1e3;
  t.self_us = self_ns / n / 1e3;
  t.fanout_mean = static_cast<double>(fanout_sum_) / n;
  t.bypass_ratio = static_cast<double>(bypasses_) / n;
  t.rows_out = rows_out_;
  for (const auto& [shape, ms] : drain_ms_by_shape_) t.drain_ms_by_shape[shape] = Median(ms);
  return t;
}

Status Tracer::WriteSpans(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write ", path);
  for (const Span& s : spans_) {
    out << "{\"query\":" << s.query << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return out ? Status::OK() : Status::IoError("short write to ", path);
}

Result<RowBlock> RunSelect(Database* db, Tracer* tracer, const std::string& sql,
                           const std::string& shape) {
  if (tracer) return tracer->Select(sql, shape);
  STRATICA_ASSIGN_OR_RETURN(QueryResult result, db->Execute(sql));
  return std::move(result.rows);
}

// ---- writer -----------------------------------------------------------------

Writer::Writer(Database* db, std::string table, int64_t first_id, uint64_t seed)
    : db_(db), table_(std::move(table)), rng_(seed), next_id_(first_id) {}

void Writer::AddLoaded(const RowBlock& rows) {
  for (size_t r = 0; r < rows.NumRows(); ++r) {
    ++count_;
    ++grp_count_[rows.columns[1].ints[r]];
    sum_val_ += rows.columns[2].ints[r];
  }
}

bool Writer::Step(std::string* error) {
  Clock::time_point step_start = Clock::now();
  bool ok = StepOnce(error);
  samples_.busy_s += std::chrono::duration<double>(Clock::now() - step_start).count();
  return ok;
}

bool Writer::StepOnce(std::string* error) {
  auto timed = [&](const char* name, const std::string& sql, std::vector<double>* ms,
                   uint64_t* affected) {
    Clock::time_point a = Clock::now();
    auto result = db_->Execute(sql);
    Clock::time_point b = Clock::now();
    ++statements_;
    if (!result.ok()) {
      *error = std::string(name) + ": " + result.status().ToString();
      return false;
    }
    if (tracer_) tracer_->RecordStatement(name, a, b);
    ms->push_back(MsBetween(a, b));
    *affected = result.value().affected_rows;
    return true;
  };

  // INSERT one batch: consecutive ids, so each batch holds every grp
  // equally often and per-grp counts stay equal at every commit.
  int64_t first = next_id_;
  std::string sql = "INSERT INTO " + table_ + " VALUES ";
  int64_t batch_sum = 0;
  for (int i = 0; i < kBatchRows; ++i) {
    int64_t id = next_id_++;
    int64_t val = kInsertedValFloor + static_cast<int64_t>(rng_.Uniform(1000000));
    batch_sum += val;
    sql += (i ? ",(" : "(") + std::to_string(id) + "," + std::to_string(id % kGroups) +
           "," + std::to_string(val) + ")";
  }
  uint64_t affected = 0;
  if (!timed("txn.insert", sql, &samples_.insert_ms, &affected)) return false;
  if (affected != kBatchRows) {
    *error = "INSERT reported " + std::to_string(affected) + " rows";
    return false;
  }
  count_ += kBatchRows;
  sum_val_ += batch_sum;
  for (int64_t& g : grp_count_) g += kBatchRows / kGroups;
  rows_inserted_ += kBatchRows;
  samples_.inserted += kBatchRows;
  live_batches_[first] = batch_sum;
  ++batch_;

  if (batch_ % 5 == 0) {
    // DELETE the oldest live batch: a sliding retention window.
    auto victim_it = live_batches_.begin();
    int64_t victim = victim_it->first;
    int64_t victim_sum = victim_it->second;
    live_batches_.erase(victim_it);
    std::string del = "DELETE FROM " + table_ + " WHERE id >= " + std::to_string(victim) +
                      " AND id < " + std::to_string(victim + kBatchRows);
    if (!timed("txn.delete", del, &samples_.delete_ms, &affected)) return false;
    if (affected != kBatchRows) {
      *error = "DELETE removed " + std::to_string(affected) + " rows, expected " +
               std::to_string(kBatchRows);
      return false;
    }
    count_ -= kBatchRows;
    sum_val_ -= victim_sum;
    for (int64_t& g : grp_count_) g -= kBatchRows / kGroups;
    samples_.deleted += kBatchRows;
  }
  if (batch_ % 20 == 0) {
    Clock::time_point a = Clock::now();
    Status st = db_->RunTupleMover();
    Clock::time_point b = Clock::now();
    if (!st.ok()) {
      *error = "tuple mover: " + st.ToString();
      return false;
    }
    if (tracer_) tracer_->RecordStatement("tuplemover.pass", a, b);
    samples_.mover_ms.push_back(MsBetween(a, b));
  }
  return true;
}

std::string Writer::VerifyLedger() {
  auto totals = db_->Execute("SELECT COUNT(*), SUM(val) FROM " + table_);
  if (!totals.ok()) return totals.status().ToString();
  std::vector<Row> want_totals = {{Value::Int64(count_), Value::Int64(sum_val_)}};
  std::string diff = CompareRows(RowsOf(totals.value().rows), want_totals, true);
  if (!diff.empty()) return "COUNT/SUM vs ledger: " + diff;
  auto groups =
      db_->Execute("SELECT grp, COUNT(*) FROM " + table_ + " GROUP BY grp");
  if (!groups.ok()) return groups.status().ToString();
  std::vector<Row> want_groups;
  for (int g = 0; g < kGroups; ++g) {
    if (grp_count_[g] > 0) want_groups.push_back({Value::Int64(g), Value::Int64(grp_count_[g])});
  }
  diff = CompareRows(RowsOf(groups.value().rows), want_groups, false);
  return diff.empty() ? "" : "per-grp counts vs ledger: " + diff;
}

// ---- per-run measurements ---------------------------------------------------

double StoredBytesPerRawByte(Database* db, const std::vector<std::string>& tables,
                             uint64_t* containers) {
  uint64_t bytes = 0, raw = 0;
  *containers = 0;
  for (const auto& table : tables) {
    for (const auto& proj : db->catalog()->ProjectionsForTable(table)) {
      auto census = db->cluster()->Census(proj.name);
      bytes += census.bytes;
      raw += census.raw_bytes;
      *containers += census.containers;
    }
  }
  return raw ? static_cast<double>(bytes) / static_cast<double>(raw) : 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ScanDrainMs(Database* db, const std::string& projection,
                   const std::vector<std::string>& columns, int reps) {
  auto def = Check(db->catalog()->GetProjection(projection), "projection " + projection);
  auto table = Check(db->catalog()->GetTable(def.anchor_table), "table " + def.anchor_table);
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    Clock::time_point start = Clock::now();
    for (uint32_t n = 0; n < db->cluster()->num_nodes(); ++n) {
      ProjectionStorage* ps = db->cluster()->node(n)->GetStorage(projection);
      if (ps == nullptr) continue;
      ScanSpec spec;
      spec.storage = ps;
      for (const auto& name : columns) {
        spec.projection_columns.push_back(def.FindColumn(name));
        spec.output_names.push_back(name);
        spec.output_types.push_back(table.columns[table.FindColumn(name)].type);
      }
      ScanOperator scan(spec);
      ExecContext ctx = db->MakeExecContext();
      Check(scan.Open(&ctx), "scan open");
      for (;;) {
        RowBlock block;
        Check(scan.GetNext(&block), "scan");
        if (block.NumRows() == 0) break;
      }
      Check(scan.Close(), "scan close");
    }
    times.push_back(MsBetween(start, Clock::now()));
  }
  return Median(times);
}

TupleMoverTotals MoverTotals(Database* db) {
  TupleMoverTotals t;
  for (uint32_t n = 0; n < db->cluster()->num_nodes(); ++n) {
    const TupleMoverStats& s = db->cluster()->node(n)->mover()->stats();
    t.moveouts += s.moveouts;
    t.mergeouts += s.mergeouts;
    t.rows_merged += s.rows_merged;
  }
  return t;
}

// ---- output -----------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) out += (i ? ", " : "") + JsonNumber(values[i]);
  return out + "]";
}

namespace {
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}
}  // namespace

JsonObject& JsonObject::AddRaw(const std::string& key, const std::string& json) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonString(key) + ": " + json;
  return *this;
}
JsonObject& JsonObject::Add(const std::string& key, double value) {
  return AddRaw(key, JsonNumber(value));
}
JsonObject& JsonObject::Add(const std::string& key, uint64_t value) {
  return AddRaw(key, std::to_string(value));
}
JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  return AddRaw(key, JsonString(value));
}

void PrintResult(const JsonObject& record, bool correct, uint64_t attempted,
                 uint64_t failed, const std::vector<Metric>& metrics) {
  JsonObject m;
  for (const auto& metric : metrics) {
    m.AddRaw(metric.name, JsonObject()
                              .Add("value", metric.value)
                              .Add("unit", metric.unit)
                              .str());
  }
  std::printf("%s\n", JsonObject().AddRaw("record", record.str()).str().c_str());
  std::printf("%s\n", JsonObject()
                          .AddRaw("correct", correct ? "true" : "false")
                          .Add("attempted", attempted)
                          .Add("failed", failed)
                          .AddRaw("metrics", m.str())
                          .str()
                          .c_str());
  std::fflush(stdout);
}

}  // namespace stratica::e2e
