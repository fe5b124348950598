#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>
#include <tuple>
#include <type_traits>

namespace stratica::e2e {

void LoadTimed(Database* db, const std::string& table, const RowBlock& rows,
               SetupStats* stats) {
  Clock::time_point start = Clock::now();
  Check(db->Load(table, rows, /*direct=*/true), "load " + table);
  stats->load_s += std::chrono::duration<double>(Clock::now() - start).count();
  stats->rows_loaded += rows.NumRows();
  stats->values_loaded += rows.NumRows() * rows.NumColumns();
}

void MoverTimed(Database* db, SetupStats* stats) {
  Clock::time_point start = Clock::now();
  Check(db->RunTupleMover(), "tuple mover");
  stats->mover_ms.push_back(MsBetween(start, Clock::now()));
}

namespace {

size_t Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

int64_t Scaled(double base, double scale, int64_t floor, int64_t multiple = 1) {
  int64_t n = std::llround(base * scale / static_cast<double>(multiple)) * multiple;
  return std::max(n, floor);
}

void Exec(Database* db, const std::string& sql) { Check(db->Execute(sql), sql); }

template <typename V>
std::vector<Row> GroupRows(const std::map<int64_t, V>& groups, TypeId key_type) {
  std::vector<Row> rows;
  for (const auto& [key, v] : groups) {
    Value agg;
    if constexpr (std::is_same_v<V, double>) {
      agg = Value::Float64(v);
    } else {
      agg = Value::Int64(v);
    }
    rows.push_back({Value::OfInt(key_type, key), agg});
  }
  return rows;
}

}  // namespace

// ---- tpch_cstore --------------------------------------------------------------
//
// The seven C-Store queries of the paper's Table 3 over TPC-H-derived data,
// generated as bench/bench_table3_cstore_comparison.cc does.

WorkloadSpec MakeTpchCstore(const Args& args) {
  const int64_t n_lineitem = Scaled(600000, args.scale, 4000);
  const int64_t n_orders = n_lineitem / 4;
  const int64_t n_customers = n_orders / 10;
  constexpr int64_t kSuppliers = 500;
  constexpr int64_t kNations = 25;

  auto lineitem = std::make_shared<RowBlock>(std::vector<TypeId>{
      TypeId::kDate, TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64});
  auto orders = std::make_shared<RowBlock>(
      std::vector<TypeId>{TypeId::kDate, TypeId::kInt64, TypeId::kInt64});
  auto customers =
      std::make_shared<RowBlock>(std::vector<TypeId>{TypeId::kInt64, TypeId::kInt64});
  Rng rng(DeriveSeed(args.seed, 1));
  const int64_t base = MakeDate(1992, 1, 1);
  const int64_t span = MakeDate(1998, 12, 31) - base;
  auto& o_date = orders->columns[0].ints;
  auto& o_cust = orders->columns[2].ints;
  for (int64_t o = 0; o < n_orders; ++o) {
    o_date.push_back(base + rng.Range(0, span));
    orders->columns[1].ints.push_back(o);
    o_cust.push_back(rng.Range(0, n_customers - 1));
  }
  auto& l_ship = lineitem->columns[0].ints;
  auto& l_supp = lineitem->columns[1].ints;
  auto& l_order = lineitem->columns[2].ints;
  auto& l_price = lineitem->columns[3].doubles;
  for (int64_t l = 0; l < n_lineitem; ++l) {
    int64_t order = rng.Range(0, n_orders - 1);
    l_ship.push_back(o_date[order] + rng.Range(1, 90));
    l_supp.push_back(rng.Range(0, kSuppliers - 1));
    l_order.push_back(order);
    l_price.push_back(900.0 + rng.NextDouble() * 104000.0);
  }
  auto& c_nation = customers->columns[1].ints;
  for (int64_t c = 0; c < n_customers; ++c) {
    customers->columns[0].ints.push_back(c);
    c_nation.push_back(rng.Range(0, kNations - 1));
  }
  // Q1/Q3/Q4/Q6/Q7 select about half the rows, Q2/Q5 one day's worth. The
  // cut-off is fixed so that every seed does the same amount of work.
  const int64_t d = base + span / 2;
  const std::string lit = "DATE '" + FormatDate(d) + "'";

  // Expected answers, by plain loops over the generated arrays.
  std::map<int64_t, int64_t> q1, q2, q3, q4, q5, q6;
  std::map<int64_t, double> q7;
  for (int64_t l = 0; l < n_lineitem; ++l) {
    if (l_ship[l] > d) ++q1[l_ship[l]], ++q3[l_supp[l]];
    if (l_ship[l] == d) ++q2[l_supp[l]];
    int64_t od = o_date[l_order[l]];
    if (od > d) {
      ++q4[l_ship[l]];
      ++q6[l_supp[l]];
      q7[c_nation[o_cust[l_order[l]]]] += l_price[l];
    }
    if (od == d) ++q5[l_supp[l]];
  }

  const std::string join = " FROM lineitem JOIN orders ON l_orderkey = o_orderkey ";
  std::vector<QueryCase> cycle = {
      {"Q1", "SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > " + lit +
                 " GROUP BY l_shipdate",
       GroupRows(q1, TypeId::kDate)},
      {"Q2", "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = " + lit +
                 " GROUP BY l_suppkey",
       GroupRows(q2, TypeId::kInt64)},
      {"Q3", "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > " + lit +
                 " GROUP BY l_suppkey",
       GroupRows(q3, TypeId::kInt64)},
      {"Q4", "SELECT l_shipdate, COUNT(*)" + join + "WHERE o_orderdate > " + lit +
                 " GROUP BY l_shipdate",
       GroupRows(q4, TypeId::kDate)},
      {"Q5", "SELECT l_suppkey, COUNT(*)" + join + "WHERE o_orderdate = " + lit +
                 " GROUP BY l_suppkey",
       GroupRows(q5, TypeId::kInt64)},
      {"Q6", "SELECT l_suppkey, COUNT(*)" + join + "WHERE o_orderdate > " + lit +
                 " GROUP BY l_suppkey",
       GroupRows(q6, TypeId::kInt64)},
      {"Q7", "SELECT c_nationkey, SUM(l_extendedprice)" + join +
                 "JOIN customer ON o_custkey = c_custkey WHERE o_orderdate > " + lit +
                 " GROUP BY c_nationkey",
       GroupRows(q7, TypeId::kInt64)},
  };

  WorkloadSpec spec;
  spec.options.num_nodes = 1;
  spec.options.k_safety = 0;
  spec.options.local_segments_per_node = 1;
  // Fan-out 1, as on every workload: a query waits for its slowest
  // fragment, so at fan-out nproc any core the shared host took away slowed
  // the whole query (IQR over median 0.30 on queries_per_s over 10 seeds).
  spec.options.intra_node_parallelism = 1;
  spec.options.worker_threads = Nproc();
  spec.cycles = {std::move(cycle)};
  spec.load = [lineitem, orders, customers](Database* db, SetupStats* stats) {
    Exec(db, "CREATE TABLE lineitem (l_shipdate DATE, l_suppkey INT, l_orderkey INT, "
             "l_extendedprice FLOAT)");
    Exec(db, "CREATE TABLE orders (o_orderdate DATE, o_orderkey INT, o_custkey INT)");
    Exec(db, "CREATE TABLE customer (c_custkey INT, c_nationkey INT)");
    LoadTimed(db, "lineitem", *lineitem, stats);
    LoadTimed(db, "orders", *orders, stats);
    LoadTimed(db, "customer", *customers, stats);
    MoverTimed(db, stats);
  };
  spec.tables = {"lineitem", "orders", "customer"};
  spec.fact_projection = "lineitem_super";
  spec.scan_columns = {"l_shipdate", "l_orderkey"};
  spec.sizes = {{"lineitem_rows", n_lineitem},
                {"orders_rows", n_orders},
                {"customer_rows", n_customers}};
  return spec;
}

// ---- meter_rle ----------------------------------------------------------------
//
// The Section 8.2.2 meter store (examples/meter_analytics.cpp) at 20 metrics
// x 250 meters x 288 five-minute samples, loaded in (metric, meter,
// collected) order so metric and meter are long RLE runs. 250 meters, not
// 500: loading runs at ~200k rows/s, and three set-ups of 2.88M rows took
// 45 s of every run. One read unit runs the five shapes under each of the
// four parameter sets, so every unit does the same work.

WorkloadSpec MakeMeterRle(const Args& args) {
  constexpr int64_t kMetrics = 20;
  constexpr int64_t kSamples = 288;
  constexpr int kVariants = 4;  // parameter sets each read unit runs
  const int64_t n_meters = Scaled(250, args.scale, 20);

  auto rows = std::make_shared<RowBlock>(std::vector<TypeId>{
      TypeId::kInt64, TypeId::kInt64, TypeId::kTimestamp, TypeId::kFloat64});
  Rng rng(DeriveSeed(args.seed, 2));
  const int64_t t0 = MakeDate(2012, 6, 1) * 86400LL * 1000000LL;
  const int64_t step = 300LL * 1000000LL;
  for (int64_t metric = 0; metric < kMetrics; ++metric) {
    for (int64_t meter = 0; meter < n_meters; ++meter) {
      double value = 50 + rng.NextDouble() * 10;
      for (int64_t k = 0; k < kSamples; ++k) {
        value += rng.NextDouble() - 0.5;
        rows->columns[0].ints.push_back(metric);
        rows->columns[1].ints.push_back(meter);
        rows->columns[2].ints.push_back(t0 + k * step);
        rows->columns[3].doubles.push_back(value);
      }
    }
  }
  const auto& metric_col = rows->columns[0].ints;
  const auto& meter_col = rows->columns[1].ints;
  const auto& collected_col = rows->columns[2].ints;
  const auto& value_col = rows->columns[3].doubles;
  const int64_t n_rows = static_cast<int64_t>(metric_col.size());

  std::vector<QueryCase> cycle;
  // The parameters are fixed, spread evenly over the sort order, so that
  // every seed does the same work: seeded metrics made some seeds 10%
  // slower than others.
  for (int v = 0; v < kVariants; ++v) {
    const int64_t m = kMetrics * (2 * v + 1) / (2 * kVariants);
    const int64_t width = std::max<int64_t>(2, n_meters / 10);
    const int64_t lo = (n_meters - width) * (2 * v + 1) / (2 * kVariants);
    const int64_t hi = lo + width;
    const int64_t order_hi = lo + 5;
    const std::string ms = std::to_string(m);
    const std::string range =
        "meter >= " + std::to_string(lo) + " AND meter < " + std::to_string(hi);
    const std::string order_range =
        "meter >= " + std::to_string(lo) + " AND meter < " + std::to_string(order_hi);

    int64_t count = 0;
    double sum = 0;
    std::map<int64_t, std::pair<int64_t, double>> by_meter, by_metric;
    std::map<int64_t, std::tuple<int64_t, double, double>> by_collected;
    std::vector<Row> ordered;
    for (int64_t r = 0; r < n_rows; ++r) {
      double val = value_col[r];
      if (metric_col[r] == m) {
        ++count;
        sum += val;
        auto& bm = by_meter[meter_col[r]];
        ++bm.first;
        bm.second += val;
        auto [it, fresh] = by_collected.try_emplace(collected_col[r], 0, val, val);
        auto& [n, lo_v, hi_v] = it->second;
        ++n;
        lo_v = std::min(lo_v, val);
        hi_v = std::max(hi_v, val);
        if (meter_col[r] >= lo && meter_col[r] < order_hi) {
          ordered.push_back({Value::Int64(m), Value::Int64(meter_col[r]),
                             Value::Timestamp(collected_col[r]), Value::Float64(val)});
        }
      }
      if (meter_col[r] >= lo && meter_col[r] < hi) {
        auto& bt = by_metric[metric_col[r]];
        ++bt.first;
        bt.second += val;
      }
    }
    auto count_sum_rows = [](const std::map<int64_t, std::pair<int64_t, double>>& g) {
      std::vector<Row> out;
      for (const auto& [k, cs] : g) {
        out.push_back({Value::Int64(k), Value::Int64(cs.first), Value::Float64(cs.second)});
      }
      return out;
    };
    std::vector<Row> collected_rows;
    for (const auto& [t, agg] : by_collected) {
      collected_rows.push_back({Value::Timestamp(t), Value::Int64(std::get<0>(agg)),
                                Value::Float64(std::get<1>(agg)),
                                Value::Float64(std::get<2>(agg))});
    }
    std::vector<QueryCase> shapes = {
        {"count_sum_metric",
         "SELECT COUNT(*), SUM(value) FROM readings WHERE metric = " + ms,
         {{Value::Int64(count), Value::Float64(sum)}}},
        {"group_by_meter",
         "SELECT meter, COUNT(*), SUM(value) FROM readings WHERE metric = " + ms +
             " GROUP BY meter",
         count_sum_rows(by_meter)},
        {"group_by_collected",
         "SELECT collected, COUNT(*), MIN(value), MAX(value) FROM readings "
         "WHERE metric = " + ms + " GROUP BY collected",
         collected_rows},
        {"meter_range_by_metric",
         "SELECT metric, COUNT(*), SUM(value) FROM readings WHERE " + range +
             " GROUP BY metric",
         count_sum_rows(by_metric)},
        {"order_by_prefix",
         "SELECT metric, meter, collected, value FROM readings WHERE metric = " + ms +
             " AND " + order_range + " ORDER BY metric, meter, collected",
         ordered, /*ordered=*/true},
    };
    for (QueryCase& q : shapes) cycle.push_back(std::move(q));
  }

  WorkloadSpec spec;
  spec.options.num_nodes = 1;
  spec.options.k_safety = 0;
  spec.options.local_segments_per_node = 1;
  // Fan-out 1: at fan-out nproc/2 these short queries waited on the
  // slowest worker's wake-up (IQR over median 0.37 on queries_per_s).
  spec.options.intra_node_parallelism = 1;
  spec.options.worker_threads = Nproc();
  spec.cycles = {std::move(cycle)};
  spec.load = [rows](Database* db, SetupStats* stats) {
    Exec(db, "CREATE TABLE readings (metric INT, meter INT, collected TIMESTAMP, "
             "value FLOAT)");
    LoadTimed(db, "readings", *rows, stats);
    MoverTimed(db, stats);
  };
  spec.tables = {"readings"};
  spec.fact_projection = "readings_super";
  spec.scan_columns = {"metric", "meter"};
  spec.sizes = {{"readings_rows", static_cast<uint64_t>(n_rows)},
                {"metrics", kMetrics},
                {"meters", static_cast<uint64_t>(n_meters)},
                {"samples_per_meter", kSamples}};
  return spec;
}

// ---- mixed_ingest -------------------------------------------------------------
//
// Writes beside reads on a 3-node, K=1 cluster: the Writer (harness.h)
// trickles 100-row INSERTs, DELETEs and explicit tuple-mover passes while
// the reader runs a GROUP BY and a filtered COUNT. One reader, not two: each
// query runs a fragment on every node, so two readers beside the writer and
// the mover kept more threads busy than a 4-vCPU host has, and the IQR over
// median of read_p50_ms across runs tripled (0.043 -> 0.133).

WorkloadSpec MakeMixedIngest(const Args& args) {
  constexpr int64_t kFilterVal = 500000;
  const int64_t n_rows = Scaled(300000, args.scale, 1000, Writer::kBatchRows);
  auto rows = std::make_shared<RowBlock>(
      std::vector<TypeId>{TypeId::kInt64, TypeId::kInt64, TypeId::kInt64});
  Rng rng(DeriveSeed(args.seed, 3));
  int64_t below = 0;
  for (int64_t id = 0; id < n_rows; ++id) {
    int64_t val = static_cast<int64_t>(rng.Uniform(Writer::kInsertedValFloor));
    rows->columns[0].ints.push_back(id);
    rows->columns[1].ints.push_back(id % Writer::kGroups);
    rows->columns[2].ints.push_back(val);
    below += val < kFilterVal;
  }

  QueryCase group_by;
  group_by.shape = "group_by_grp";
  group_by.sql = "SELECT grp, COUNT(*), SUM(val) FROM t GROUP BY grp";
  // Every committed INSERT or DELETE moves each grp by the same count, so
  // any consistent snapshot shows equal per-grp counts summing to whole
  // batches.
  group_by.check = [](const std::vector<Row>& got) -> std::string {
    if (got.size() != Writer::kGroups) return "got " + std::to_string(got.size()) + " groups";
    int64_t total = 0;
    for (const Row& row : got) {
      if (row[1].i64() != got[0][1].i64()) return "per-grp counts differ in one snapshot";
      total += row[1].i64();
    }
    if (total % Writer::kBatchRows != 0) return "COUNT(*) is not whole batches";
    return "";
  };
  QueryCase filtered;
  filtered.shape = "filtered_count";
  // Inserted vals all exceed the filter, so the answer is fixed at set-up.
  filtered.sql = "SELECT COUNT(*) FROM t WHERE val < " + std::to_string(kFilterVal);
  filtered.expected = {{Value::Int64(below)}};

  WorkloadSpec spec;
  spec.options.num_nodes = 3;
  spec.options.k_safety = 1;
  spec.options.intra_node_parallelism = 1;
  spec.options.worker_threads = Nproc();
  spec.cycles = {{std::move(group_by), std::move(filtered)}};
  spec.load = [rows](Database* db, SetupStats* stats) {
    Exec(db, "CREATE TABLE t (id INT, grp INT, val INT)");
    LoadTimed(db, "t", *rows, stats);
    MoverTimed(db, stats);
  };
  spec.tables = {"t"};
  spec.fact_projection = "t_super";
  spec.scan_columns = {"grp", "val"};
  spec.writer_table = "t";
  spec.writer_first_id = n_rows;
  spec.writer_loaded = rows;
  spec.sizes = {{"t_rows", static_cast<uint64_t>(n_rows)},
                {"nodes", 3},
                {"k_safety", 1},
                {"batch_rows", Writer::kBatchRows}};
  return spec;
}

}  // namespace stratica::e2e
