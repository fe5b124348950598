// Column pruning (DESIGN.md §14): every scan emits only the columns the
// query reads, and every index above it — join keys, SIP probe columns,
// prune bounds, sort-elimination keys — is remapped through the kept list.
//
// Each query shape the remapping touches runs under every plan variant the
// engine can pick for it: 1 node and a 3-node K=1 cluster, morsel fan-out
// 1 and 4, encoded and decode-first execution. Answers are checked against
// results computed by plain loops over the generated rows. The fact table
// keeps a slice of its rows in the WOS so both scan sources are pruned.
// The same harness pins the planner's co-location and outer-join predicate
// placement rules (DESIGN.md §15) on small tables of their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/database.h"

namespace stratica {
namespace {

constexpr int64_t kRosRows = 100000;  // fan-out 4 engages on 3 units at 98304
constexpr int64_t kFactRows = kRosRows + 600;  // the rest stays in the WOS
constexpr int64_t kDimRows = 80;
constexpr int64_t kDimKeys = 75;  // d.k is NULL from here on

// Fact f(g, id, k, v, s, w, x); the default super projection sorts by
// (g, id, k) and segments by HASH(g).
int64_t FG(int64_t id) { return id % 7; }
bool FKNull(int64_t id) { return id % 11 == 0; }
int64_t FK(int64_t id) { return id % 90; }
int64_t FV(int64_t id) { return (id * 37) % 1000; }
std::string FS(int64_t id) { return "s" + std::to_string(id % 5); }
int64_t FW(int64_t id) { return id % 13; }
double FX(int64_t id) { return id * 0.5; }

// Dimension d(k, ek, dv, flag, dname); d.k = i for i < kDimKeys, else NULL.
int64_t DEk(int64_t i) { return i % 5; }
int64_t DDv(int64_t i) { return (i * 53) % 1000; }
int64_t DFlag(int64_t i) { return i % 2; }
std::string DName(int64_t i) { return "d" + std::to_string(i); }

// Co-location tables: cf(fk, pad) with fk = i % 100; ct(j, k) with
// k = 37j % 100, a permutation of 0..99; co(j, x). Each is segmented by
// HASH of its first column, so ct and co are segmented alike on the ct-co
// join key but neither matches the fact's HASH(cf.fk) on the cf-ct edge.
constexpr int64_t kStarFactRows = 3000;
constexpr int64_t kStarDimRows = 100;

// Outer-join tables: lf(k, p) with k = p = 0..9; ld(k, dname) with
// k = 0..4 and dname NULL from k = 3 on.
constexpr int64_t kOuterFactRows = 10;
constexpr int64_t kOuterDimRows = 5;

using Row = std::vector<Value>;

std::string Render(const Row& row) {
  std::string s;
  for (size_t c = 0; c < row.size(); ++c) s += (c ? "|" : "") + row[c].ToString();
  return s;
}

std::vector<std::string> Rendered(const QueryResult& r) {
  std::vector<std::string> out;
  for (size_t i = 0; i < r.NumRows(); ++i) {
    Row row;
    for (size_t c = 0; c < r.rows.NumColumns(); ++c) row.push_back(r.At(i, c));
    out.push_back(Render(row));
  }
  return out;
}

std::vector<std::string> Rendered(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const auto& row : rows) out.push_back(Render(row));
  return out;
}

Value Int(int64_t i) { return Value::Int64(i); }
Value Str(const std::string& s) { return Value::String(s); }
Value NullInt() { return Value::Null(TypeId::kInt64); }
Value NullStr() { return Value::Null(TypeId::kString); }

struct Variant {
  uint32_t nodes;
  size_t fanout;
  std::string Name() const {
    return std::to_string(nodes) + " node(s), fan-out " + std::to_string(fanout);
  }
};

const Variant kVariants[] = {{1, 1}, {1, 4}, {3, 1}, {3, 4}};

std::unique_ptr<Database> MakeDatabase(const Variant& v) {
  DatabaseOptions opts;
  opts.num_nodes = v.nodes;
  opts.k_safety = v.nodes > 1 ? 1 : 0;
  opts.intra_node_parallelism = v.fanout;
  opts.worker_threads = 4;
  auto db = std::make_unique<Database>(opts);
  auto exec = [&](const std::string& sql) {
    auto r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  };
  exec("CREATE TABLE f (g INT NOT NULL, id INT NOT NULL, k INT, v INT NOT NULL, "
       "s VARCHAR, w INT NOT NULL, x FLOAT)");
  exec("CREATE TABLE d (k INT, ek INT NOT NULL, dv INT NOT NULL, flag INT NOT NULL, "
       "dname VARCHAR)");
  exec("CREATE TABLE e (ek INT NOT NULL, ename VARCHAR)");

  auto fact_rows = [](int64_t lo, int64_t hi) {
    RowBlock rows({TypeId::kInt64, TypeId::kInt64, TypeId::kInt64, TypeId::kInt64,
                   TypeId::kString, TypeId::kInt64, TypeId::kFloat64});
    for (int64_t id = lo; id < hi; ++id) {
      rows.columns[0].ints.push_back(FG(id));
      rows.columns[1].ints.push_back(id);
      rows.columns[2].ints.push_back(FKNull(id) ? 0 : FK(id));
      rows.columns[2].nulls.push_back(FKNull(id) ? 1 : 0);
      rows.columns[3].ints.push_back(FV(id));
      rows.columns[4].strings.push_back(FS(id));
      rows.columns[5].ints.push_back(FW(id));
      rows.columns[6].doubles.push_back(FX(id));
    }
    return rows;
  };
  RowBlock d({TypeId::kInt64, TypeId::kInt64, TypeId::kInt64, TypeId::kInt64,
              TypeId::kString});
  for (int64_t i = 0; i < kDimRows; ++i) {
    d.columns[0].ints.push_back(i < kDimKeys ? i : 0);
    d.columns[0].nulls.push_back(i < kDimKeys ? 0 : 1);
    d.columns[1].ints.push_back(DEk(i));
    d.columns[2].ints.push_back(DDv(i));
    d.columns[3].ints.push_back(DFlag(i));
    d.columns[4].strings.push_back(DName(i));
  }
  RowBlock e({TypeId::kInt64, TypeId::kString});
  for (int64_t i = 0; i < 5; ++i) {
    e.columns[0].ints.push_back(i);
    e.columns[1].strings.push_back("e" + std::to_string(i));
  }
  EXPECT_TRUE(db->Load("f", fact_rows(0, kRosRows)).ok());
  EXPECT_TRUE(db->Load("d", d).ok());
  EXPECT_TRUE(db->Load("e", e).ok());

  exec("CREATE TABLE cf (fk INT, pad INT)");
  exec("CREATE TABLE ct (j INT, k INT)");
  exec("CREATE TABLE co (j INT, x INT)");
  RowBlock cf({TypeId::kInt64, TypeId::kInt64});
  for (int64_t i = 0; i < kStarFactRows; ++i) {
    cf.columns[0].ints.push_back(i % kStarDimRows);
    cf.columns[1].ints.push_back(i);
  }
  RowBlock ct({TypeId::kInt64, TypeId::kInt64});
  RowBlock co({TypeId::kInt64, TypeId::kInt64});
  for (int64_t i = 0; i < kStarDimRows; ++i) {
    ct.columns[0].ints.push_back(i);
    ct.columns[1].ints.push_back((i * 37) % kStarDimRows);
    co.columns[0].ints.push_back(i);
    co.columns[1].ints.push_back(i);
  }
  EXPECT_TRUE(db->Load("cf", cf).ok());
  EXPECT_TRUE(db->Load("ct", ct).ok());
  EXPECT_TRUE(db->Load("co", co).ok());

  exec("CREATE TABLE lf (k INT, p INT)");
  exec("CREATE TABLE ld (k INT, dname VARCHAR)");
  RowBlock lf({TypeId::kInt64, TypeId::kInt64});
  for (int64_t i = 0; i < kOuterFactRows; ++i) {
    lf.columns[0].ints.push_back(i);
    lf.columns[1].ints.push_back(i);
  }
  RowBlock ld({TypeId::kInt64, TypeId::kString});
  for (int64_t i = 0; i < kOuterDimRows; ++i) {
    ld.columns[0].ints.push_back(i);
    ld.columns[1].strings.push_back(i < 3 ? "n" + std::to_string(i) : "");
    ld.columns[1].nulls.push_back(i < 3 ? 0 : 1);
  }
  EXPECT_TRUE(db->Load("lf", lf).ok());
  EXPECT_TRUE(db->Load("ld", ld).ok());
  EXPECT_TRUE(db->RunTupleMover().ok());
  EXPECT_TRUE(db->Load("f", fact_rows(kRosRows, kFactRows)).ok());  // WOS
  return db;
}

class ColumnPruningTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (const auto& v : kVariants) dbs_.push_back(MakeDatabase(v));
  }
  static void TearDownTestSuite() { dbs_.clear(); }

  // Runs `sql` on every database, encoded and decode-first, and compares
  // with `expected` — in order when `ordered`, as a multiset otherwise.
  static void ExpectEverywhere(const std::string& sql, const std::vector<Row>& expected,
                               bool ordered = false) {
    std::vector<std::string> want = Rendered(expected);
    if (!ordered) std::sort(want.begin(), want.end());
    for (size_t i = 0; i < dbs_.size(); ++i) {
      for (bool decode_first : {false, true}) {
        SCOPED_TRACE(sql + " on " + kVariants[i].Name() +
                     (decode_first ? ", decode-first" : ", encoded"));
        dbs_[i]->SetDecodeFirst(decode_first);
        auto r = dbs_[i]->Execute(sql);
        dbs_[i]->SetDecodeFirst(false);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        std::vector<std::string> got = Rendered(r.value());
        if (!ordered) std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want);
      }
    }
  }

  // An ON condition the engine cannot evaluate is refused on every
  // database rather than answered wrongly.
  static void ExpectNotImplementedEverywhere(const std::string& sql) {
    for (size_t i = 0; i < dbs_.size(); ++i) {
      SCOPED_TRACE(sql + " on " + kVariants[i].Name());
      auto r = dbs_[i]->Execute(sql);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kNotImplemented) << r.status().ToString();
    }
  }

  static std::string Explain(size_t variant, const std::string& sql) {
    auto r = dbs_[variant]->Execute("EXPLAIN " + sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().message : std::string();
  }

  static std::vector<std::unique_ptr<Database>> dbs_;
};

std::vector<std::unique_ptr<Database>> ColumnPruningTest::dbs_;

TEST_F(ColumnPruningTest, SingleTableGroupBy) {
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;  // g -> (count, sum v)
  for (int64_t id = 0; id < kFactRows; ++id) {
    ++groups[FG(id)].first;
    groups[FG(id)].second += FV(id);
  }
  std::vector<Row> expected;
  for (const auto& [g, cs] : groups) expected.push_back({Int(g), Int(cs.first), Int(cs.second)});
  ExpectEverywhere("SELECT g, COUNT(*), SUM(v) FROM f GROUP BY g", expected);
  EXPECT_NE(Explain(0, "SELECT g, COUNT(*), SUM(v) FROM f GROUP BY g")
                .find("Scan(f_super, cols: g, v, encoded)"),
            std::string::npos);
}

TEST_F(ColumnPruningTest, CountStarWithoutWhere) {
  ExpectEverywhere("SELECT COUNT(*) FROM f", {{Int(kFactRows)}});
  // Nothing is referenced: the scan emits the first sort column only.
  EXPECT_NE(Explain(0, "SELECT COUNT(*) FROM f").find("Scan(f_super, cols: g, encoded)"),
            std::string::npos);
}

TEST_F(ColumnPruningTest, CountStarWithWhere) {
  int64_t n = 0;
  for (int64_t id = 0; id < kFactRows; ++id) n += FV(id) < 250;
  ExpectEverywhere("SELECT COUNT(*) FROM f WHERE v < 250", {{Int(n)}});
  EXPECT_NE(Explain(0, "SELECT COUNT(*) FROM f WHERE v < 250")
                .find("Scan(f_super, cols: v, filter:"),
            std::string::npos);
}

TEST_F(ColumnPruningTest, SelectStarKeepsEveryColumn) {
  std::vector<Row> expected;
  for (int64_t id = 0; id < 40; ++id) {
    expected.push_back({Int(FG(id)), Int(id), FKNull(id) ? NullInt() : Int(FK(id)),
                        Int(FV(id)), Str(FS(id)), Int(FW(id)), Value::Float64(FX(id))});
  }
  ExpectEverywhere("SELECT * FROM f WHERE id < 40", expected);
}

TEST_F(ColumnPruningTest, ThreeWayJoinWithPredicateOnlyBuildColumn) {
  // d.flag is read only by d's pushed-down predicate; the e join probes
  // d.ek, which sits after f's kept columns in the stream.
  std::map<std::string, std::pair<int64_t, int64_t>> groups;
  for (int64_t id = 0; id < kFactRows; ++id) {
    if (FKNull(id) || FK(id) >= kDimKeys || DFlag(FK(id)) != 1) continue;
    auto& cs = groups["e" + std::to_string(DEk(FK(id)))];
    ++cs.first;
    cs.second += FV(id);
  }
  std::vector<Row> expected;
  for (const auto& [name, cs] : groups) expected.push_back({Str(name), Int(cs.first), Int(cs.second)});
  const std::string sql =
      "SELECT e.ename, COUNT(*), SUM(f.v) FROM f JOIN d ON f.k = d.k "
      "JOIN e ON d.ek = e.ek WHERE d.flag = 1 GROUP BY e.ename";
  ExpectEverywhere(sql, expected);
  EXPECT_NE(Explain(0, sql).find("Scan(d_super, cols: k, ek, flag, filter:"),
            std::string::npos);
}

TEST_F(ColumnPruningTest, LeftJoinWithNullKeys) {
  std::vector<Row> expected;
  for (int64_t id = 0; id < 500; ++id) {
    bool match = !FKNull(id) && FK(id) < kDimKeys;
    expected.push_back({Int(id), FKNull(id) ? NullInt() : Int(FK(id)),
                        match ? Str(DName(FK(id))) : NullStr()});
  }
  ExpectEverywhere(
      "SELECT f.id, f.k, d.dname FROM f LEFT JOIN d ON f.k = d.k WHERE f.id < 500",
      expected);
}

TEST_F(ColumnPruningTest, CrossTableResidualPredicate) {
  // f.v and d.dv are read only by the residual above the join. f keeps
  // (k, v, w), so the SIP probe column f.k is scan output 0, not table
  // column 2; d.flag makes the SIP reject keys.
  int64_t count = 0, sum = 0;
  for (int64_t id = 0; id < kFactRows; ++id) {
    if (FKNull(id) || FK(id) >= kDimKeys || DFlag(FK(id)) != 1) continue;
    if (FV(id) <= DDv(FK(id))) continue;
    ++count;
    sum += FW(id);
  }
  ExpectEverywhere(
      "SELECT COUNT(*), SUM(f.w) FROM f JOIN d ON f.k = d.k "
      "WHERE f.v > d.dv AND d.flag = 1",
      {{Int(count), Int(sum)}});
}

TEST_F(ColumnPruningTest, SortEliminatedOrderByOnSortPrefix) {
  // w is a predicate-only column the order-carrying scan emits beside the
  // sort keys; k, the projection's third sort column, is pruned.
  std::vector<std::pair<int64_t, int64_t>> keys;
  for (int64_t id = 0; id < kFactRows; ++id) {
    if (FW(id) == 3) keys.push_back({FG(id), id});
  }
  std::sort(keys.begin(), keys.end());
  std::vector<Row> expected;
  for (const auto& [g, id] : keys) expected.push_back({Int(g), Int(id), Int(FV(id))});
  const std::string sql = "SELECT g, id, v FROM f WHERE w = 3 ORDER BY g, id";
  ExpectEverywhere(sql, expected, /*ordered=*/true);
  std::string plan = Explain(0, sql);  // one unit: the scan carries the order
  EXPECT_NE(plan.find("Scan(f_super, cols: g, id, v, w, filter:"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find(", sorted)"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Sort("), std::string::npos) << plan;
}

TEST_F(ColumnPruningTest, OrderByAliasIsNotTheSameNamedColumn) {
  // ORDER BY g names the output alias (id), not the table column g that the
  // WHERE clause reads, so the projection's (g, id, k) order does not apply.
  std::vector<Row> expected;
  for (int64_t id = 0; id < kFactRows; ++id) {
    if (FG(id) < 3 && FW(id) == 5) expected.push_back({Int(id), Int(FV(id))});
  }
  ExpectEverywhere("SELECT id AS g, v FROM f WHERE g < 3 AND w = 5 ORDER BY g", expected,
                   /*ordered=*/true);
}

TEST_F(ColumnPruningTest, WindowFunction) {
  // g is read only by PARTITION BY, v only by the window argument.
  std::map<int64_t, int64_t> running;  // g -> sum so far, ids ascending
  std::vector<Row> expected;
  for (int64_t id = 0; id < 300; ++id) {
    running[FG(id)] += FV(id);
    expected.push_back({Int(id), Int(running[FG(id)])});
  }
  ExpectEverywhere(
      "SELECT id, SUM(v) OVER (PARTITION BY g ORDER BY id) AS rs FROM f WHERE id < 300",
      expected);
}

TEST_F(ColumnPruningTest, Distinct) {
  std::set<std::pair<int64_t, std::string>> pairs;
  for (int64_t id = 0; id < kFactRows; ++id) {
    if (FW(id) == 0 && FV(id) < 200) pairs.insert({FG(id), FS(id)});
  }
  std::vector<Row> expected;
  for (const auto& [g, s] : pairs) expected.push_back({Int(g), Str(s)});
  ExpectEverywhere("SELECT DISTINCT g, s FROM f WHERE w = 0 AND v < 200", expected);
}

TEST_F(ColumnPruningTest, SelfJoinWithAliases) {
  // The same projection scanned twice with different kept columns: a keeps
  // (k, dname), b keeps (ek, flag, dname), so b's join key ek is table
  // column 1 but scan output 0.
  std::vector<Row> expected;
  for (int64_t i = 0; i < kDimRows; ++i) {
    if (DFlag(i) == 1) expected.push_back({Str(DName(DEk(i))), Str(DName(i))});
  }
  const std::string sql =
      "SELECT a.dname, b.dname FROM d a JOIN d b ON a.k = b.ek WHERE b.flag = 1";
  ExpectEverywhere(sql, expected);
  std::string plan = Explain(0, sql);
  EXPECT_NE(plan.find("Scan(d_super, cols: k, dname, SIP filters: 1)"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("Scan(d_super, cols: ek, flag, dname, filter:"), std::string::npos)
      << plan;
}

TEST_F(ColumnPruningTest, ColocatedSelfJoin) {
  // Both sides are segmented by HASH(k), so the 3-node plan joins per unit
  // with a pruned build-side scan instead of a broadcast. Each unit's build
  // holds only its segment's keys, so no SIP filter is shared across units.
  int64_t n = 0;
  for (int64_t i = 0; i < kDimKeys; ++i) n += DFlag(i) == 1;
  ExpectEverywhere("SELECT COUNT(*) FROM d a JOIN d b ON a.k = b.k WHERE a.flag = 1",
                   {{Int(n)}});
}

// The stream is partitioned by the fact's segmentation, so a join is
// co-located only through an edge, segmented alike on both sides, to the
// fact or to a table already co-located with it that way. ct and co are
// segmented alike on their own join key, but ct broadcasts, so the ct-co
// join must broadcast too. Both conjunct orders must agree.
TEST_F(ColumnPruningTest, ColocationFollowsFactEdgeFactKeyFirst) {
  ExpectEverywhere("SELECT COUNT(*) FROM cf, ct, co WHERE cf.fk = ct.k AND ct.j = co.j",
                   {{Int(kStarFactRows)}});
}

TEST_F(ColumnPruningTest, ColocationFollowsFactEdgeFactKeyLast) {
  ExpectEverywhere("SELECT COUNT(*) FROM cf, ct, co WHERE ct.j = co.j AND cf.fk = ct.k",
                   {{Int(kStarFactRows)}});
}

// co is co-located with cf on cf.fk = co.j, so the stream is partitioned by
// HASH(co.j) too, and ct joins co-located through co. Each unit emits the
// unmatched ct rows of its own segment once: 50 ct rows match 30 cf rows
// each and 50 match none.
TEST_F(ColumnPruningTest, RightJoinColocatedThroughAStreamTable) {
  ExpectEverywhere(
      "SELECT COUNT(*), COUNT(co.j) FROM cf JOIN co ON cf.fk = co.j AND co.x < 50 "
      "RIGHT JOIN ct ON co.j = ct.j",
      {{Int(50 * kStarFactRows / kStarDimRows + 50), Int(50 * kStarFactRows / kStarDimRows)}});
}

// A RIGHT or FULL join's build that is not segmented like the stream would
// emit its unmatched rows once per fact unit; with one unit the answer is
// right, with several the join is refused.
TEST_F(ColumnPruningTest, OuterJoinWithBroadcastBuildNeedsOneFactUnit) {
  std::vector<Row> right, full;
  for (int64_t k = 0; k < kOuterFactRows; ++k) {
    if (k < kOuterDimRows) right.push_back({Int(k), Int(k)});
    full.push_back({Int(k), k < kOuterDimRows ? Int(k) : NullInt()});
  }
  const std::pair<std::string, std::vector<Row>> cases[] = {
      {"SELECT lf.k, ld.k FROM lf RIGHT JOIN ld ON lf.p = ld.k", right},
      {"SELECT lf.k, ld.k FROM lf FULL JOIN ld ON lf.p = ld.k", full},
  };
  for (const auto& [sql, expected] : cases) {
    for (size_t i = 0; i < dbs_.size(); ++i) {
      SCOPED_TRACE(sql + " on " + kVariants[i].Name());
      auto r = dbs_[i]->Execute(sql);
      if (kVariants[i].nodes > 1) {
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kNotImplemented) << r.status().ToString();
        continue;
      }
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      std::vector<std::string> got = Rendered(r.value()), want = Rendered(expected);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want);
    }
  }
}

// Outer-join predicate placement. A WHERE conjunct on a null-extended side
// filters the joined rows; an ON conjunct on the nullable side filters
// that side's scan.
TEST_F(ColumnPruningTest, LeftJoinWhereIsNullOnNullableSide) {
  std::vector<Row> expected;
  for (int64_t k = 3; k < kOuterFactRows; ++k) expected.push_back({Int(k), NullStr()});
  ExpectEverywhere(
      "SELECT lf.k, ld.dname FROM lf LEFT JOIN ld ON lf.k = ld.k WHERE ld.dname IS NULL",
      expected);
}

TEST_F(ColumnPruningTest, LeftJoinOnPredicateOnPreservedSideIsRefused) {
  ExpectNotImplementedEverywhere(
      "SELECT lf.k, ld.k FROM lf LEFT JOIN ld ON lf.k = ld.k AND lf.p > 5");
}

TEST_F(ColumnPruningTest, LeftJoinOnPredicateOnNullableSide) {
  std::vector<Row> expected;
  for (int64_t k = 0; k < kOuterFactRows; ++k) {
    expected.push_back({Int(k), k == 3 ? Int(3) : NullInt()});
  }
  ExpectEverywhere("SELECT lf.k, ld.k FROM lf LEFT JOIN ld ON lf.k = ld.k AND ld.k = 3",
                   expected);
}

TEST_F(ColumnPruningTest, LeftJoinOnCrossTablePredicateIsRefused) {
  ExpectNotImplementedEverywhere(
      "SELECT lf.k, ld.k FROM lf LEFT JOIN ld ON lf.k = ld.k AND ld.k < lf.p");
}

TEST_F(ColumnPruningTest, RightJoinWhereOnNullableSide) {
  ExpectEverywhere("SELECT lf.k, ld.k FROM lf RIGHT JOIN ld ON lf.k = ld.k WHERE lf.p > 2",
                   {{Int(3), Int(3)}, {Int(4), Int(4)}});
}

TEST_F(ColumnPruningTest, FullJoinWhereOnNullableSide) {
  ExpectEverywhere("SELECT lf.k, ld.k FROM lf FULL JOIN ld ON lf.k = ld.k WHERE lf.p > 7",
                   {{Int(8), NullInt()}, {Int(9), NullInt()}});
}

TEST_F(ColumnPruningTest, RightJoinWhereIsNullOnNullableSide) {
  ExpectEverywhere(
      "SELECT lf.k, ld.k FROM lf RIGHT JOIN ld ON lf.k = ld.k WHERE lf.p IS NULL", {});
}

// An INNER join's ON conjunct on a table an earlier LEFT join null-extends
// filters the joined rows: with no later join null-extending its tables it
// is a residual above the joins, not a filter on that table's scan.
TEST_F(ColumnPruningTest, InnerJoinOnConjunctOverNullExtendedTableIsResidual) {
  std::vector<Row> null_names, matched;
  for (int64_t k = 3; k < kOuterFactRows; ++k) null_names.push_back({Int(k), NullStr()});
  for (int64_t k = 0; k < kOuterDimRows; ++k) matched.push_back({Int(k)});
  ExpectEverywhere(
      "SELECT lf.k, ld.dname FROM lf LEFT JOIN ld ON lf.k = ld.k "
      "JOIN co ON lf.k = co.j AND ld.dname IS NULL",
      null_names);
  ExpectEverywhere(
      "SELECT lf.k FROM lf LEFT JOIN ld ON lf.k = ld.k JOIN co ON lf.k = co.j AND ld.k <= co.x",
      matched);
}

// A later RIGHT join null-extends the tables the conjunct reads, so no
// residual above the joins gives the INNER join's rows; it is refused.
TEST_F(ColumnPruningTest, InnerJoinOnConjunctBeforeRightJoinIsRefused) {
  ExpectNotImplementedEverywhere(
      "SELECT COUNT(*) FROM lf JOIN co ON lf.k = co.j AND lf.p < co.x "
      "RIGHT JOIN ld ON lf.k = ld.k");
}

// The Q1 shape of the paper's Table 3 on a 4-column table: the scan emits
// only the grouped, filtered column, so no payload value is decoded.
TEST(ColumnPruningStatsTest, Q1ShapeDecodesNoPayload) {
  DatabaseOptions opts;
  opts.num_nodes = 1;
  opts.intra_node_parallelism = 1;
  Database db(opts);
  ASSERT_TRUE(db.Execute("CREATE TABLE q (a INT, b INT, c INT, d INT)").ok());
  RowBlock rows({TypeId::kInt64, TypeId::kInt64, TypeId::kInt64, TypeId::kInt64});
  for (int64_t i = 0; i < 20000; ++i) {
    rows.columns[0].ints.push_back(i % 100);
    rows.columns[1].ints.push_back(i);
    rows.columns[2].ints.push_back(i * 7 % 1000);
    rows.columns[3].ints.push_back(i % 3);
  }
  ASSERT_TRUE(db.Load("q", rows).ok());
  ASSERT_TRUE(db.RunTupleMover().ok());
  uint64_t before = db.stats()->rows_decoded.load();
  auto r = db.Execute("SELECT a, COUNT(*) FROM q WHERE a > 49 GROUP BY a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().NumRows(), 50u);
  EXPECT_EQ(db.stats()->rows_decoded.load() - before, 0u);
}

// The Q4 shape of the paper's Table 3: each scan lists exactly the join key
// and the one column its side reads.
TEST(ColumnPruningStatsTest, Q4ShapeExplainListsOnlyReadColumns) {
  DatabaseOptions opts;
  opts.num_nodes = 1;
  Database db(opts);
  ASSERT_TRUE(db.Execute("CREATE TABLE lineitem (l_shipdate DATE, l_suppkey INT, "
                         "l_orderkey INT, l_extendedprice FLOAT)")
                  .ok());
  ASSERT_TRUE(
      db.Execute("CREATE TABLE orders (o_orderdate DATE, o_orderkey INT, o_custkey INT)")
          .ok());
  // lineitem is the larger table, so it is the probe (fact) side.
  RowBlock lineitem({TypeId::kDate, TypeId::kInt64, TypeId::kInt64, TypeId::kFloat64});
  for (int64_t i = 0; i < 30; ++i) {
    lineitem.columns[0].ints.push_back(MakeDate(1995, 1, 1) + i);
    lineitem.columns[1].ints.push_back(i % 4);
    lineitem.columns[2].ints.push_back(i % 10);
    lineitem.columns[3].doubles.push_back(i * 1.5);
  }
  RowBlock orders({TypeId::kDate, TypeId::kInt64, TypeId::kInt64});
  for (int64_t i = 0; i < 10; ++i) {
    orders.columns[0].ints.push_back(MakeDate(1995, 6, 1) + i - 5);
    orders.columns[1].ints.push_back(i);
    orders.columns[2].ints.push_back(i % 3);
  }
  ASSERT_TRUE(db.Load("lineitem", lineitem).ok());
  ASSERT_TRUE(db.Load("orders", orders).ok());
  ASSERT_TRUE(db.RunTupleMover().ok());
  auto r = db.Execute(
      "EXPLAIN SELECT l_shipdate, COUNT(*) FROM lineitem JOIN orders "
      "ON l_orderkey = o_orderkey WHERE o_orderdate > DATE '1995-06-01' "
      "GROUP BY l_shipdate");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& plan = r.value().message;
  EXPECT_NE(plan.find("Scan(lineitem_super, cols: l_shipdate, l_orderkey, SIP filters: 1)"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("Scan(orders_super, cols: o_orderdate, o_orderkey, filter:"),
            std::string::npos)
      << plan;
}

}  // namespace
}  // namespace stratica
