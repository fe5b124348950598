// Direct-indexed hash join differential sweep (DESIGN.md §5).
//
// A hash join whose single integer-class build key spans at most 4x its
// key count is indexed by key offset and publishes a bitmap SIP filter;
// every other join hashes. Each join here runs twice over the same logical
// data: once with keys laid out densely (the direct path) and once with
// every key multiplied by a large factor (the hash path). The answers —
// rendered without the physical key columns — must match each other and a
// nested-loop reference cell for cell, the SIP must drop the same rows on
// both paths, and ExecStats::direct_join_builds must show which path ran.
//
// Covered: duplicate and NULL build keys, NULL probe keys, negative keys,
// keys next to INT64_MIN/INT64_MAX and a build spanning both (the span
// overflows int64, so it must take the hash path), empty and all-NULL
// builds, DATE keys; INNER, LEFT, RIGHT, FULL, SEMI and ANTI; the serial
// build and a 4-way shared build under morsel fragments; late
// materialization and decode-first; RLE, dict-coded and plain probe
// columns (the fact table also keeps a WOS slice). A SQL-level test runs
// the planner's join plans over the same two layouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "exec/exchange.h"
#include "exec/join.h"
#include "exec/scan.h"
#include "exec/simple_ops.h"

namespace stratica {
namespace {

constexpr int64_t kL = 600;           // logical keys lie in [-kL, kL]
constexpr int64_t kScale = 1000003;   // spreads keys far beyond the 4x rule
constexpr int kRosRows = 12000;
constexpr int kWosRows = 400;
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// Physical key layouts of the logical keys.
enum class Layout { kBase0, kNearMax, kNearMin, kExtremes, kScaled };

const char* LayoutName(Layout l) {
  switch (l) {
    case Layout::kBase0: return "base0";
    case Layout::kNearMax: return "near_max";
    case Layout::kNearMin: return "near_min";
    case Layout::kExtremes: return "extremes";
    case Layout::kScaled: return "scaled";
  }
  return "?";
}

// Every layout is strictly increasing, so sort order and runs are the same.
int64_t Phys(Layout l, int64_t lk) {
  switch (l) {
    case Layout::kBase0: return lk;
    case Layout::kNearMax: return kMax - kL + lk;
    case Layout::kNearMin: return kMin + kL + lk;
    case Layout::kExtremes: return lk < 0 ? kMin + (lk + kL) : kMax - (kL - lk);
    case Layout::kScaled: return lk * kScale;
  }
  return 0;
}

// Logical fact row i: key (or NULL) and payload. Every key in [-kL, kL]
// appears, so probes fall below, inside and above each build's range.
bool FactNull(int i) { return i % 17 == 0; }
int64_t FactKey(int i) { return (static_cast<int64_t>(i) * 7919) % (2 * kL + 1) - kL; }

// Logical build rows: (key or NULL, payload).
struct BuildRow {
  bool null;
  int64_t lk;
  int64_t pay;
};

enum class BuildCase { kDupsAndNulls, kEmpty, kAllNull };

const char* BuildName(BuildCase b) {
  switch (b) {
    case BuildCase::kDupsAndNulls: return "dups_nulls";
    case BuildCase::kEmpty: return "empty";
    case BuildCase::kAllNull: return "all_null";
  }
  return "?";
}

// Keys in [-kL/2, kL/2] with gaps (k % 3 == 0 absent), duplicates (k % 5
// == 0 twice), and NULL-key rows interleaved: dense enough for the direct
// path, yet probes inside the range still miss.
std::vector<BuildRow> BuildRows(BuildCase b) {
  std::vector<BuildRow> rows;
  int64_t pay = 0;
  if (b == BuildCase::kAllNull) {
    for (int i = 0; i < 20; ++i) rows.push_back({true, 0, pay++});
  } else if (b == BuildCase::kDupsAndNulls) {
    for (int64_t k = -kL / 2; k <= kL / 2; ++k) {
      if (k % 3 == 0) continue;
      rows.push_back({false, k, pay++});
      if (k % 5 == 0) rows.push_back({false, k, pay++});
      if (k % 97 == 0) rows.push_back({true, 0, pay++});
    }
  }
  return rows;
}

std::string Cell(bool null, int64_t v) { return null ? "N" : std::to_string(v); }

// Nested-loop reference: rendered (probe lk, pay[, build lk, pay]) rows.
std::vector<std::string> Reference(JoinType type, const std::vector<BuildRow>& build) {
  std::vector<std::string> out;
  std::vector<bool> build_matched(build.size(), false);
  bool probe_only = type == JoinType::kSemi || type == JoinType::kAnti;
  for (int i = 0; i < kRosRows + kWosRows; ++i) {
    bool pn = FactNull(i);
    std::string probe = Cell(pn, FactKey(i)) + "|" + std::to_string(i);
    size_t matches = 0;
    for (size_t b = 0; b < build.size(); ++b) {
      if (pn || build[b].null || build[b].lk != FactKey(i)) continue;
      ++matches;
      build_matched[b] = true;
      if (!probe_only) {
        out.push_back(probe + "|" + std::to_string(build[b].lk) + "|" +
                      std::to_string(build[b].pay));
      }
    }
    bool lonely = (type == JoinType::kSemi && matches > 0) ||
                  (type == JoinType::kAnti && matches == 0) ||
                  ((type == JoinType::kLeft || type == JoinType::kFull) && matches == 0);
    if (lonely) out.push_back(probe_only ? probe : probe + "|N|N");
  }
  if (type == JoinType::kRight || type == JoinType::kFull) {
    for (size_t b = 0; b < build.size(); ++b) {
      if (!build_matched[b]) {
        out.push_back("N|N|" + Cell(build[b].null, build[b].lk) + "|" +
                      std::to_string(build[b].pay));
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Probe scan output: kr (RLE), kd (BlockDict), kp (plain), lk, pay. Build
// output: bk, blk, bpay. Rendering skips the physical keys kr/kd/kp/bk.
std::vector<std::string> Render(const RowBlock& rows, bool probe_only) {
  RowBlock flat = rows;
  flat.DecodeAll();
  std::vector<size_t> cols = {3, 4};
  if (!probe_only) cols.insert(cols.end(), {6, 7});
  std::vector<std::string> out;
  for (size_t r = 0; r < flat.NumRows(); ++r) {
    std::string s;
    for (size_t c : cols) {
      const ColumnVector& col = flat.columns[c];
      s += (s.empty() ? "" : "|") + Cell(col.IsNull(r), col.ints[r]);
    }
    out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct RunResult {
  std::vector<std::string> rows;
  uint64_t sip_filtered = 0;
  uint64_t direct_builds = 0;
  uint64_t encoded_rows = 0;
};

class DirectJoinFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatabaseOptions opts;
    opts.num_nodes = 1;
    opts.k_safety = 0;
    opts.local_segments_per_node = 1;
    opts.worker_threads = 4;
    db_ = new Database(opts);
    for (Layout l : {Layout::kBase0, Layout::kNearMax, Layout::kNearMin,
                     Layout::kExtremes, Layout::kScaled}) {
      MakeFact(l, TypeId::kInt64);
    }
    MakeFact(Layout::kBase0, TypeId::kDate);
    MakeFact(Layout::kScaled, TypeId::kDate);
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static std::string FactName(Layout l, TypeId t) {
    return std::string("f_") + LayoutName(l) + (t == TypeId::kDate ? "_date" : "");
  }

  // The first kRosRows rows go to the ROS; the rest stay in the WOS.
  static void MakeFact(Layout l, TypeId t) {
    std::string name = FactName(l, t);
    TableDef td;
    td.name = name;
    td.columns = {{"kr", t, true},
                  {"kd", t, true},
                  {"kp", t, true},
                  {"lk", TypeId::kInt64, true},
                  {"pay", TypeId::kInt64, false}};
    ProjectionDef p;
    p.name = name + "_super";
    p.anchor_table = name;
    p.columns = {{"kr", -1, EncodingId::kRle},
                 {"kd", -1, EncodingId::kBlockDict},
                 {"kp", -1, EncodingId::kPlain},
                 {"lk", -1, EncodingId::kPlain},
                 {"pay", -1, EncodingId::kPlain}};
    p.sort_columns = {0, 4};
    p.is_super = true;
    p.segmentation.expr = Func(FuncKind::kHash, {Col("pay")});
    ASSERT_TRUE(db_->catalog()->CreateTable(std::move(td)).ok());
    ASSERT_TRUE(db_->cluster()->CreateProjectionWithBuddies(p).ok());
    auto rows_for = [&](int lo, int hi) {
      RowBlock rows({t, t, t, TypeId::kInt64, TypeId::kInt64});
      for (int i = lo; i < hi; ++i) {
        bool null = FactNull(i);
        int64_t lk = FactKey(i);
        for (size_t c = 0; c < 4; ++c) {
          rows.columns[c].ints.push_back(c == 3 ? lk : Phys(l, lk));
          rows.columns[c].nulls.push_back(null ? 1 : 0);
        }
        rows.columns[4].ints.push_back(i);
      }
      return rows;
    };
    ASSERT_TRUE(db_->Load(name, rows_for(0, kRosRows)).ok());
    ASSERT_TRUE(db_->RunTupleMover().ok());
    ASSERT_TRUE(db_->Load(name, rows_for(kRosRows, kRosRows + kWosRows)).ok());
  }

  static RowBlock MakeBuild(const std::vector<BuildRow>& build, Layout l, TypeId t) {
    RowBlock rows({t, TypeId::kInt64, TypeId::kInt64});
    for (const auto& b : build) {
      rows.columns[0].ints.push_back(b.null ? 0 : Phys(l, b.lk));
      rows.columns[0].nulls.push_back(b.null ? 1 : 0);
      rows.columns[1].ints.push_back(b.lk);
      rows.columns[1].nulls.push_back(b.null ? 1 : 0);
      rows.columns[2].ints.push_back(b.pay);
    }
    return rows;
  }

  // One join: probe = scan of the fact (SIP on `probe_col` for INNER and
  // SEMI, as the planner installs it), build = the materialized rows.
  static RunResult Run(Layout l, TypeId t, const std::vector<BuildRow>& build,
                       JoinType type, size_t fanout, bool decode_first,
                       uint32_t probe_col) {
    std::string proj = FactName(l, t) + "_super";
    ProjectionStorage* ps = db_->cluster()->node(0)->GetStorage(proj);
    EXPECT_NE(ps, nullptr) << proj;
    ScanSpec probe_spec;
    probe_spec.storage = ps;
    probe_spec.projection_columns = {0, 1, 2, 3, 4};
    probe_spec.output_names = {"kr", "kd", "kp", "lk", "pay"};
    probe_spec.output_types = {t, t, t, TypeId::kInt64, TypeId::kInt64};
    JoinSpec jspec;
    jspec.type = type;
    jspec.probe_keys = {probe_col};
    jspec.build_keys = {0};
    if (type == JoinType::kInner || type == JoinType::kSemi) {
      auto sip = std::make_shared<SipFilter>();
      sip->probe_columns = {static_cast<int>(probe_col)};
      probe_spec.sips = {sip};
      jspec.sip = sip;
    }
    auto make_build = [&] {
      return std::make_unique<MaterializedOperator>(
          MakeBuild(build, l, t), std::vector<std::string>{"bk", "blk", "bpay"});
    };
    OperatorPtr root;
    if (fanout == 1) {
      root = std::make_unique<HashJoinOperator>(std::make_unique<ScanOperator>(probe_spec),
                                                make_build(), jspec);
    } else {
      // The planner's morsel shape: one shared build publishes the SIP,
      // fragments probe it over a shared morsel dispenser.
      auto dispenser = std::make_shared<MorselDispenser>(fanout);
      auto shared = std::make_shared<SharedJoinBuild>(make_build(), jspec, fanout);
      JoinSpec frag_spec = jspec;
      frag_spec.sip = nullptr;
      std::vector<OperatorPtr> frags;
      for (size_t f = 0; f < fanout; ++f) {
        ScanSpec s = probe_spec;
        s.morsels = dispenser;
        frags.push_back(std::make_unique<HashJoinOperator>(
            std::make_unique<ScanOperator>(s), shared, frag_spec, f == 0));
      }
      root = MakeUnionExchange(std::move(frags), "ParallelUnion", false);
    }
    ExecStats stats;
    ExecContext ctx = db_->MakeExecContext();
    ctx.stats = &stats;
    ctx.decode_first = decode_first;
    auto rows = DrainOperator(root.get(), &ctx);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    RunResult r;
    if (rows.ok()) {
      r.rows = Render(rows.value(),
                      type == JoinType::kSemi || type == JoinType::kAnti);
    }
    r.sip_filtered = stats.rows_sip_filtered.load();
    r.direct_builds = stats.direct_join_builds.load();
    r.encoded_rows = stats.rows_processed_encoded.load();
    return r;
  }

  // Runs every join type x fan-out x decode mode x probe column over
  // `layout` and kScaled and checks them against each other and the
  // reference. `expect_direct`: the build on `layout` takes the direct path.
  static void Sweep(Layout layout, TypeId t, BuildCase bc, bool expect_direct) {
    std::vector<BuildRow> build = BuildRows(bc);
    bool has_keys = false;
    for (const auto& b : build) has_keys |= !b.null;
    for (JoinType type : {JoinType::kInner, JoinType::kLeft, JoinType::kRight,
                          JoinType::kFull, JoinType::kSemi, JoinType::kAnti}) {
      std::vector<std::string> expected = Reference(type, build);
      bool sip = type == JoinType::kInner || type == JoinType::kSemi;
      for (size_t fanout : {size_t{1}, size_t{4}}) {
        // Shared builds never serve RIGHT/FULL (the planner keeps those
        // serial): unmatched build rows must be emitted exactly once.
        if (fanout > 1 && (type == JoinType::kRight || type == JoinType::kFull)) continue;
        for (bool decode_first : {false, true}) {
          for (uint32_t probe_col : {0u, 1u, 2u}) {
            std::string what = std::string(LayoutName(layout)) + "/" +
                               BuildName(bc) + "/" + JoinTypeName(type) +
                               "/fanout " + std::to_string(fanout) +
                               (decode_first ? "/decode-first" : "/late-mat") +
                               "/probe col " + std::to_string(probe_col) +
                               (t == TypeId::kDate ? "/DATE" : "/INT");
            RunResult dense =
                Run(layout, t, build, type, fanout, decode_first, probe_col);
            RunResult scaled =
                Run(Layout::kScaled, t, build, type, fanout, decode_first, probe_col);
            EXPECT_EQ(dense.rows, expected) << what;
            EXPECT_EQ(scaled.rows, expected) << what;
            EXPECT_EQ(dense.sip_filtered, scaled.sip_filtered) << what;
            if (sip) EXPECT_GT(dense.sip_filtered, 0u) << what;
            if (expect_direct) {
              EXPECT_GT(dense.direct_builds, 0u) << what;
            } else {
              EXPECT_EQ(dense.direct_builds, 0u) << what;
            }
            // A build without a single key is trivially dense on any layout.
            EXPECT_EQ(scaled.direct_builds, has_keys ? 0u : 1u) << what;
            // Dict-coded probe column under a SIP: the bitmap resolves once
            // per dictionary entry and counts the rows as encoded work, as
            // the hash path's code-range prune does.
            if (sip && has_keys && probe_col == 1 && !decode_first) {
              EXPECT_GT(dense.encoded_rows, 0u) << what;
              EXPECT_GT(scaled.encoded_rows, 0u) << what;
            }
          }
        }
      }
    }
  }

  static Database* db_;
};

Database* DirectJoinFixture::db_ = nullptr;

TEST_F(DirectJoinFixture, DuplicateAndNullKeysMatchHashPath) {
  Sweep(Layout::kBase0, TypeId::kInt64, BuildCase::kDupsAndNulls, /*expect_direct=*/true);
}

TEST_F(DirectJoinFixture, KeysNearInt64MaxMatchHashPath) {
  Sweep(Layout::kNearMax, TypeId::kInt64, BuildCase::kDupsAndNulls, true);
}

TEST_F(DirectJoinFixture, KeysNearInt64MinMatchHashPath) {
  Sweep(Layout::kNearMin, TypeId::kInt64, BuildCase::kDupsAndNulls, true);
}

TEST_F(DirectJoinFixture, SpanAcrossInt64RangeTakesHashPath) {
  // The build's keys sit next to both INT64_MIN and INT64_MAX: the span
  // overflows int64 and must fail the 4x rule instead of wrapping into it.
  Sweep(Layout::kExtremes, TypeId::kInt64, BuildCase::kDupsAndNulls, false);
}

TEST_F(DirectJoinFixture, EmptyBuildMatchesHashPath) {
  Sweep(Layout::kBase0, TypeId::kInt64, BuildCase::kEmpty, true);
}

TEST_F(DirectJoinFixture, AllNullBuildMatchesHashPath) {
  Sweep(Layout::kBase0, TypeId::kInt64, BuildCase::kAllNull, true);
}

TEST_F(DirectJoinFixture, DateKeysMatchHashPath) {
  Sweep(Layout::kBase0, TypeId::kDate, BuildCase::kDupsAndNulls, true);
}

TEST(JoinIndexTest, DirectChainsDuplicatesMostRecentFirst) {
  // Same chain order as FlatHashTable, so both paths emit duplicate
  // matches in the same order.
  RowBlock rows({TypeId::kInt64});
  for (int64_t k : {5, 7, 5, 6, 5}) rows.columns[0].ints.push_back(k);
  ExecStats stats;
  ExecContext ctx;
  ctx.stats = &stats;
  auto sip = std::make_shared<SipFilter>();
  JoinIndex index;
  index.Build(rows, {0}, 1, &ctx, sip.get());
  ASSERT_TRUE(index.direct());
  EXPECT_EQ(stats.direct_join_builds.load(), 1u);
  RowBlock probe({TypeId::kInt64});
  for (int64_t k : {5, 4, 8, 6}) probe.columns[0].ints.push_back(k);
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> nulls;
  std::vector<uint32_t> heads;
  index.ProbeHeads(probe, {0}, &hashes, &nulls, &heads);
  std::vector<uint32_t> chain;
  for (uint32_t r = heads[0]; r != JoinIndex::kNone; r = index.Next(r)) chain.push_back(r);
  EXPECT_EQ(chain, (std::vector<uint32_t>{4, 2, 0}));
  EXPECT_EQ(heads[1], JoinIndex::kNone);
  EXPECT_EQ(heads[2], JoinIndex::kNone);
  EXPECT_EQ(heads[3], 3u);
  ASSERT_TRUE(sip->ready.load());
  ASSERT_TRUE(sip->bitmap_form);
  EXPECT_EQ(sip->span, 3u);
  EXPECT_TRUE(sip->BitmapContains(5));
  EXPECT_TRUE(sip->BitmapContains(6));
  EXPECT_TRUE(sip->BitmapContains(7));
  EXPECT_FALSE(sip->BitmapContains(4));
  EXPECT_FALSE(sip->BitmapContains(8));
  EXPECT_FALSE(sip->BitmapContains(kMin));
  EXPECT_FALSE(sip->BitmapContains(kMax));

  // One key more than 4x the key count away tips the build to hashing.
  rows.columns[0].ints.push_back(5 + 4 * 6);
  index.Build(rows, {0}, 1, &ctx, sip.get());
  EXPECT_FALSE(index.direct());
  EXPECT_FALSE(sip->bitmap_form);
  EXPECT_TRUE(sip->has_range);
  EXPECT_EQ(stats.direct_join_builds.load(), 1u);
  rows.columns[0].ints.back() = 5 + 4 * 6 - 1;  // span exactly 4x: direct
  index.Build(rows, {0}, 1, &ctx, sip.get());
  EXPECT_TRUE(index.direct());
}

// The planner's plans (broadcast build, SIP on the fact scan, morsel
// fragments at fan-out 4) over a dense and a scaled copy of one data set.
class DirectJoinSqlTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DirectJoinSqlTest, PlannedJoinsMatchAcrossLayouts) {
  constexpr int kFact = 40000;  // fan-out 4 engages from 32768 rows per unit
  DatabaseOptions opts;
  opts.num_nodes = 1;
  opts.local_segments_per_node = 1;
  opts.intra_node_parallelism = GetParam();
  opts.worker_threads = 4;
  Database db(opts);
  for (const char* suffix : {"dense", "scaled"}) {
    int64_t scale = std::string(suffix) == "dense" ? 1 : kScale;
    std::string f = std::string("f_") + suffix, d = std::string("d_") + suffix;
    ASSERT_TRUE(db.Execute("CREATE TABLE " + f + " (k INT, lk INT, pay INT)").ok());
    ASSERT_TRUE(db.Execute("CREATE TABLE " + d + " (k INT, lk INT, flag INT)").ok());
    RowBlock fact({TypeId::kInt64, TypeId::kInt64, TypeId::kInt64});
    for (int i = 0; i < kFact; ++i) {
      int64_t lk = (static_cast<int64_t>(i) * 7919) % 3001 - 1000;
      bool null = i % 13 == 0;
      fact.columns[0].ints.push_back(lk * scale);
      fact.columns[0].nulls.push_back(null ? 1 : 0);
      fact.columns[1].ints.push_back(lk);
      fact.columns[1].nulls.push_back(null ? 1 : 0);
      fact.columns[2].ints.push_back(i);
    }
    RowBlock dim({TypeId::kInt64, TypeId::kInt64, TypeId::kInt64});
    for (int64_t lk = -300; lk < 1200; ++lk) {
      if (lk % 4 == 0) continue;
      dim.columns[0].ints.push_back(lk * scale);
      dim.columns[1].ints.push_back(lk);
      dim.columns[2].ints.push_back(lk % 2);
    }
    ASSERT_TRUE(db.Load(f, fact, /*direct=*/true).ok());
    ASSERT_TRUE(db.Load(d, dim, /*direct=*/true).ok());
  }
  ASSERT_TRUE(db.RunTupleMover().ok());

  const std::vector<std::string> shapes = {
      // Q4 shape: filtered dimension, SIP on the fact scan.
      "SELECT f.lk, COUNT(*) FROM f_%s f JOIN d_%s d ON f.k = d.k "
      "WHERE d.flag = 1 GROUP BY f.lk",
      "SELECT f.pay, d.lk FROM f_%s f JOIN d_%s d ON f.k = d.k WHERE f.pay < 5000",
      "SELECT f.pay, d.lk FROM f_%s f LEFT JOIN d_%s d ON f.k = d.k "
      "WHERE f.pay < 3000",
      "SELECT f.lk, d.lk FROM f_%s f RIGHT JOIN d_%s d ON f.k = d.k",
      "SELECT f.lk, d.lk FROM f_%s f FULL JOIN d_%s d ON f.k = d.k",
  };
  auto render = [](const QueryResult& r) {
    std::vector<std::string> out;
    for (size_t i = 0; i < r.NumRows(); ++i) {
      std::string s;
      for (size_t c = 0; c < r.rows.NumColumns(); ++c) s += r.At(i, c).ToString() + "|";
      out.push_back(s);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  for (const auto& shape : shapes) {
    for (bool decode_first : {false, true}) {
      db.SetDecodeFirst(decode_first);
      std::map<std::string, std::vector<std::string>> answers;
      std::map<std::string, uint64_t> sip_filtered, direct;
      for (const char* suffix : {"dense", "scaled"}) {
        std::string sql = shape;
        for (size_t p; (p = sql.find("%s")) != std::string::npos;) sql.replace(p, 2, suffix);
        // Queries run one at a time, so the cumulative counters' deltas
        // belong to this query alone.
        uint64_t sip0 = db.stats()->rows_sip_filtered.load();
        uint64_t direct0 = db.stats()->direct_join_builds.load();
        auto r = db.Execute(sql);
        ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
        answers[suffix] = render(r.value());
        sip_filtered[suffix] = db.stats()->rows_sip_filtered.load() - sip0;
        direct[suffix] = db.stats()->direct_join_builds.load() - direct0;
      }
      std::string what = shape + (decode_first ? " [decode-first]" : "");
      EXPECT_FALSE(answers["dense"].empty()) << what;
      EXPECT_EQ(answers["dense"], answers["scaled"]) << what;
      EXPECT_EQ(sip_filtered["dense"], sip_filtered["scaled"]) << what;
      EXPECT_GT(direct["dense"], 0u) << what;
      EXPECT_EQ(direct["scaled"], 0u) << what;
    }
  }
  db.SetDecodeFirst(false);
}

INSTANTIATE_TEST_SUITE_P(FanOut, DirectJoinSqlTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "fanout" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace stratica
