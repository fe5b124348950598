// Group-by differential sweep (DESIGN.md §13): every GroupBy flavor and key
// form runs over blocks whose columns arrive flat, RLE and dictionary-coded,
// and must match a std::map reference computed from the same rows flattened.
//
//   * HashGroupByOperator in single phase and partial -> combine, for no
//     key, a flat int key, a flat string key, a dict-coded key with NULLs,
//     an RLE key, and two keys; spill off and a 1-byte budget;
//   * every AggKind, grouped COUNT(DISTINCT) included, over flat, RLE and
//     dict-coded inputs;
//   * PipelinedGroupByOperator on RLE and flat input;
//   * PrepassGroupByOperator flushing and disabled at runtime, under a
//     combine.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/fs.h"
#include "exec/group_by.h"

namespace stratica {
namespace {

// Columns of the sweep input.
enum Col : uint32_t {
  kKeyInt,   // flat int, 11 values
  kKeyStr,   // flat string, 5 values
  kKeyDict,  // dict-coded string with NULLs; the dictionary changes mid-input
  kKeyRle,   // RLE int, ascending, runs cross block boundaries
  kUnique,   // flat int, every row distinct
  kValInt,   // flat int with NULLs
  kValRle,   // RLE int with NULL runs, runs unaligned with kKeyRle's
  kValDict,  // dict-coded int with NULLs
  kValDbl,   // flat double (multiples of 1/4, so sums are exact) with NULLs
  kNumCols
};

constexpr size_t kBlocks = 6;
constexpr size_t kBlockRows = 500;

/// Replays prebuilt, possibly encoded blocks (MaterializedOperator would
/// flatten them).
class BlocksOperator : public Operator {
 public:
  explicit BlocksOperator(std::vector<RowBlock> blocks) : blocks_(std::move(blocks)) {}

  Status Open(ExecContext*) override {
    next_ = 0;
    return Status::OK();
  }
  Status GetNext(RowBlock* out) override {
    *out = next_ < blocks_.size() ? blocks_[next_++] : RowBlock(OutputTypes());
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  std::vector<TypeId> OutputTypes() const override {
    std::vector<TypeId> types;
    for (const auto& c : blocks_[0].columns) types.push_back(c.type);
    return types;
  }
  std::vector<std::string> OutputNames() const override {
    return std::vector<std::string>(blocks_[0].NumColumns(), "c");
  }
  std::string DebugString() const override { return "Blocks"; }

 private:
  std::vector<RowBlock> blocks_;
  size_t next_ = 0;
};

/// RLE column of `vals`: equal neighbours (NULLs included) share a run.
ColumnVector Rle(TypeId type, const std::vector<Value>& vals) {
  ColumnVector col(type);
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i > 0 && vals[i].is_null() == vals[i - 1].is_null() &&
        (vals[i].is_null() || vals[i] == vals[i - 1])) {
      ++col.runs.back();
    } else {
      col.Append(vals[i]);  // adds the entry's run of 1 once the column is RLE
      if (col.runs.empty()) col.runs.push_back(1);
    }
  }
  return col;
}

/// Dict-coded column: row i is (*dict)[codes[i]], NULL where nulls[i].
ColumnVector Dict(std::shared_ptr<const ColumnVector> dict, std::vector<int64_t> codes,
                  std::vector<uint8_t> nulls) {
  ColumnVector col(dict->type);
  col.dict = std::move(dict);
  col.ints = std::move(codes);
  col.nulls = std::move(nulls);
  return col;
}

std::shared_ptr<const ColumnVector> MakeDict(TypeId type,
                                             const std::vector<Value>& vals) {
  auto dict = std::make_shared<ColumnVector>(type);
  for (const Value& v : vals) dict->Append(v);
  return dict;
}

std::vector<RowBlock> SweepBlocks() {
  auto fruit_a = MakeDict(TypeId::kString, {Value::String("apple"), Value::String("pear"),
                                            Value::String("fig"), Value::String("kiwi")});
  // Later blocks switch dictionaries; "fig" and "apple" have new codes.
  auto fruit_b = MakeDict(TypeId::kString, {Value::String("fig"), Value::String("plum"),
                                            Value::String("apple")});
  auto nums = MakeDict(TypeId::kInt64, {Value::Int64(5), Value::Int64(-2),
                                        Value::Int64(40), Value::Int64(7),
                                        Value::Int64(1000)});
  std::vector<RowBlock> blocks;
  for (size_t b = 0; b < kBlocks; ++b) {
    RowBlock block({TypeId::kInt64, TypeId::kString, TypeId::kString, TypeId::kInt64,
                    TypeId::kInt64, TypeId::kInt64, TypeId::kInt64, TypeId::kInt64,
                    TypeId::kFloat64});
    const auto& fruit = b < 4 ? fruit_a : fruit_b;
    std::vector<int64_t> fruit_codes, num_codes;
    std::vector<uint8_t> fruit_nulls, num_nulls;
    std::vector<Value> key_rle, val_rle;
    for (size_t j = 0; j < kBlockRows; ++j) {
      int64_t i = static_cast<int64_t>(b * kBlockRows + j);
      block.columns[kKeyInt].Append(Value::Int64((i * 7) % 11));
      block.columns[kKeyStr].Append(Value::String("s" + std::to_string(i % 5)));
      fruit_codes.push_back((i * 3) % static_cast<int64_t>(fruit->PhysicalSize()));
      fruit_nulls.push_back(i % 9 == 0);
      key_rle.push_back(Value::Int64(i / 37));
      block.columns[kUnique].Append(Value::Int64(i));
      block.columns[kValInt].Append(i % 7 == 0 ? Value::Null(TypeId::kInt64)
                                               : Value::Int64((i * 13) % 101 - 50));
      int64_t step = (i / 23) % 6;
      val_rle.push_back(step == 4 ? Value::Null(TypeId::kInt64)
                                  : Value::Int64(step * 10 - 3));
      num_codes.push_back((i * i) % 5);
      num_nulls.push_back(i % 11 == 0);
      block.columns[kValDbl].Append(i % 13 == 0 ? Value::Null(TypeId::kFloat64)
                                                : Value::Float64((i % 97) * 0.25));
    }
    block.columns[kKeyDict] = Dict(fruit, fruit_codes, fruit_nulls);
    block.columns[kKeyRle] = Rle(TypeId::kInt64, key_rle);
    block.columns[kValRle] = Rle(TypeId::kInt64, val_rle);
    block.columns[kValDict] = Dict(nums, num_codes, num_nulls);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

std::vector<RowBlock> Flattened(std::vector<RowBlock> blocks) {
  for (auto& b : blocks) b.DecodeAll();
  return blocks;
}

/// Every AggKind, over flat, RLE and dict-coded inputs.
std::vector<AggSpec> AllAggs(bool partialable_only) {
  std::vector<AggSpec> aggs = {
      {AggKind::kCountStar, -1, TypeId::kInt64},
      {AggKind::kCount, kValInt, TypeId::kInt64},
      {AggKind::kCount, kValRle, TypeId::kInt64},
      {AggKind::kSum, kValInt, TypeId::kInt64},
      {AggKind::kSum, kValRle, TypeId::kInt64},
      {AggKind::kSum, kValDict, TypeId::kInt64},
      {AggKind::kSum, kValDbl, TypeId::kFloat64},
      {AggKind::kAvg, kValDbl, TypeId::kFloat64},
      {AggKind::kAvg, kValDict, TypeId::kInt64},
      {AggKind::kMin, kValRle, TypeId::kInt64},
      {AggKind::kMin, kValDbl, TypeId::kFloat64},
      {AggKind::kMax, kValDict, TypeId::kInt64},
      {AggKind::kMax, kKeyDict, TypeId::kString},
  };
  if (!partialable_only) {
    aggs.push_back({AggKind::kCountDistinct, kValInt, TypeId::kInt64});
    aggs.push_back({AggKind::kCountDistinct, kValRle, TypeId::kInt64});
    aggs.push_back({AggKind::kCountDistinct, kValDict, TypeId::kInt64});
    aggs.push_back({AggKind::kCountDistinct, kKeyDict, TypeId::kString});
  }
  return aggs;
}

GroupBySpec Spec(std::vector<uint32_t> keys, std::vector<AggSpec> aggs, AggPhase phase) {
  GroupBySpec spec;
  spec.group_columns = std::move(keys);
  spec.aggs = std::move(aggs);
  spec.phase = phase;
  spec.output_names.assign(spec.group_columns.size() + spec.aggs.size(), "c");
  return spec;
}

/// The combine stage above a partial stage of `partial`.
GroupBySpec CombineOf(const GroupBySpec& partial) {
  std::vector<uint32_t> keys(partial.group_columns.size());
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<uint32_t>(i);
  return Spec(keys, partial.aggs, AggPhase::kCombine);
}

std::string KeyOf(const std::vector<Value>& vals) {
  std::string key;
  for (const Value& v : vals) key += (v.is_null() ? "<null>" : v.ToString()) + "|";
  return key;
}

using Groups = std::map<std::string, std::vector<Value>>;  // key -> agg results

/// SQL aggregation of `rows`, written independently of AggState.
Groups Reference(const std::vector<std::vector<Value>>& rows, const GroupBySpec& spec) {
  std::map<std::string, std::vector<const std::vector<Value>*>> members;
  for (const auto& row : rows) {
    std::vector<Value> key;
    for (uint32_t c : spec.group_columns) key.push_back(row[c]);
    members[KeyOf(key)].push_back(&row);
  }
  Groups out;
  for (const auto& [key, group] : members) {
    std::vector<Value>& res = out[key];
    for (const AggSpec& agg : spec.aggs) {
      std::vector<Value> in;
      for (const auto* row : group) {
        if (agg.input_column >= 0 && !(*row)[agg.input_column].is_null())
          in.push_back((*row)[agg.input_column]);
      }
      double dsum = 0;
      int64_t isum = 0;
      for (const Value& v : in) {
        dsum += v.AsDouble();
        isum += v.i64();
      }
      switch (agg.kind) {
        case AggKind::kCountStar:
          res.push_back(Value::Int64(static_cast<int64_t>(group.size())));
          break;
        case AggKind::kCount:
          res.push_back(Value::Int64(static_cast<int64_t>(in.size())));
          break;
        case AggKind::kSum:
          res.push_back(in.empty() ? Value::Null(agg.OutputType())
                        : agg.input_type == TypeId::kFloat64 ? Value::Float64(dsum)
                                                              : Value::Int64(isum));
          break;
        case AggKind::kAvg:
          res.push_back(in.empty()
                            ? Value::Null(TypeId::kFloat64)
                            : Value::Float64(dsum / static_cast<double>(in.size())));
          break;
        case AggKind::kMin:
        case AggKind::kMax: {
          Value best = Value::Null(agg.input_type);
          for (const Value& v : in) {
            bool better = agg.kind == AggKind::kMin ? v < best : best < v;
            if (best.is_null() || better) best = v;
          }
          res.push_back(best);
          break;
        }
        case AggKind::kCountDistinct:
          res.push_back(Value::Int64(
              static_cast<int64_t>(std::set<Value>(in.begin(), in.end()).size())));
          break;
      }
    }
  }
  return out;
}

std::vector<std::vector<Value>> FlatRows(const std::vector<RowBlock>& blocks) {
  std::vector<std::vector<Value>> rows;
  for (RowBlock b : blocks) {
    b.DecodeAll();
    for (size_t r = 0; r < b.NumRows(); ++r) {
      std::vector<Value> row;
      for (const auto& c : b.columns) row.push_back(c.GetValue(r));
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

/// Drain `op` (final values: single or combine phase) and diff it against
/// the reference of `spec` over `input`.
void ExpectMatches(Operator* op, ExecContext* ctx, const std::vector<RowBlock>& input,
                   const GroupBySpec& spec, const std::string& what) {
  auto drained = DrainOperator(op, ctx);
  ASSERT_TRUE(drained.ok()) << what << ": " << drained.status().ToString();
  const RowBlock& rows = drained.value();
  Groups expected = Reference(FlatRows(input), spec);
  size_t k = spec.group_columns.size();
  ASSERT_EQ(rows.NumRows(), expected.size()) << what;
  std::set<std::string> seen;
  for (size_t r = 0; r < rows.NumRows(); ++r) {
    std::vector<Value> key;
    for (size_t i = 0; i < k; ++i) key.push_back(rows.columns[i].GetValue(r));
    std::string ks = KeyOf(key);
    ASSERT_TRUE(seen.insert(ks).second) << what << ": group " << ks << " twice";
    auto it = expected.find(ks);
    ASSERT_NE(it, expected.end()) << what << ": unexpected group " << ks;
    for (size_t a = 0; a < spec.aggs.size(); ++a) {
      Value got = rows.columns[k + a].GetValue(r);
      const Value& want = it->second[a];
      std::string where = what + " group " + ks + " agg " + std::to_string(a) + " (" +
                          AggKindName(spec.aggs[a].kind) + ")";
      ASSERT_EQ(got.is_null(), want.is_null()) << where;
      if (want.is_null()) continue;
      if (want.type() == TypeId::kFloat64) {
        EXPECT_NEAR(got.f64(), want.f64(), 1e-9 * std::max(1.0, std::fabs(want.f64())))
            << where;
      } else {
        EXPECT_TRUE(got == want) << where << ": " << got.ToString() << " vs "
                                 << want.ToString();
      }
    }
  }
}

struct KeyForm {
  const char* name;
  std::vector<uint32_t> keys;
  bool encoded;  // the key itself is RLE or dict-coded
};

const std::vector<KeyForm>& KeyForms() {
  static const std::vector<KeyForm> forms = {
      {"none", {}, false},
      {"flat int", {kKeyInt}, false},
      {"flat string", {kKeyStr}, false},
      {"dict with NULLs", {kKeyDict}, true},
      {"RLE", {kKeyRle}, true},
      {"two keys", {kKeyRle, kKeyDict}, false},
  };
  return forms;
}

/// Execution context with an in-memory spill area and, if `spill`, a
/// 1-byte budget that externalizes after every block.
struct Env {
  explicit Env(bool spill) : budget(1) {
    ctx.fs = &fs;
    ctx.stats = &stats;
    if (spill) ctx.budget = &budget;
  }
  MemFileSystem fs;
  ResourceBudget budget;
  ExecStats stats;
  ExecContext ctx;
};

TEST(GroupBySweep, HashSinglePhase) {
  const std::vector<RowBlock> input = SweepBlocks();
  for (const KeyForm& form : KeyForms()) {
    for (bool spill : {false, true}) {
      std::string what = std::string("single/") + form.name + (spill ? "/spill" : "");
      Env env(spill);
      GroupBySpec spec = Spec(form.keys, AllAggs(false), AggPhase::kSingle);
      HashGroupByOperator gb(std::make_unique<BlocksOperator>(input), spec);
      ExpectMatches(&gb, &env.ctx, input, spec, what);
      if (form.encoded) EXPECT_GT(env.stats.rows_processed_encoded.load(), 0u) << what;
      if (spill) EXPECT_GT(env.stats.rows_spilled.load(), 0u) << what;
    }
  }
}

TEST(GroupBySweep, HashPartialThenCombine) {
  const std::vector<RowBlock> input = SweepBlocks();
  for (const KeyForm& form : KeyForms()) {
    for (bool spill : {false, true}) {
      std::string what =
          std::string("partial+combine/") + form.name + (spill ? "/spill" : "");
      Env env(spill);
      GroupBySpec partial = Spec(form.keys, AllAggs(true), AggPhase::kPartial);
      GroupBySpec combine = CombineOf(partial);
      HashGroupByOperator gb(std::make_unique<HashGroupByOperator>(
                                 std::make_unique<BlocksOperator>(input), partial),
                             combine);
      ExpectMatches(&gb, &env.ctx, input, partial, what);
      if (spill) EXPECT_GT(env.stats.rows_spilled.load(), 0u) << what;
    }
  }
}

TEST(GroupBySweep, FlatInputMatchesEncoded) {
  // The same rows decoded up front: every key form takes its flat path.
  const std::vector<RowBlock> input = Flattened(SweepBlocks());
  for (const KeyForm& form : KeyForms()) {
    Env env(false);
    GroupBySpec spec = Spec(form.keys, AllAggs(false), AggPhase::kSingle);
    HashGroupByOperator gb(std::make_unique<BlocksOperator>(input), spec);
    ExpectMatches(&gb, &env.ctx, input, spec, std::string("flat/") + form.name);
    EXPECT_EQ(env.stats.rows_processed_encoded.load(), 0u) << form.name;
  }
}

TEST(GroupBySweep, GlobalAggregateOverEmptyInputIsOneRow) {
  Env env(false);
  GroupBySpec spec = Spec({}, {{AggKind::kCountStar, -1, TypeId::kInt64},
                               {AggKind::kSum, kValInt, TypeId::kInt64}},
                          AggPhase::kSingle);
  std::vector<RowBlock> empty = SweepBlocks();
  for (auto& b : empty) b.Clear();
  HashGroupByOperator gb(std::make_unique<BlocksOperator>(empty), spec);
  auto rows = DrainOperator(&gb, &env.ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().NumRows(), 1u);
  EXPECT_EQ(rows.value().columns[0].GetValue(0).i64(), 0);
  EXPECT_TRUE(rows.value().columns[1].GetValue(0).is_null());
}

TEST(GroupBySweep, PipelinedOnRleAndFlatInput) {
  // kKeyRle ascends, so the input is sorted on the key.
  for (bool encoded : {true, false}) {
    std::vector<RowBlock> input = encoded ? SweepBlocks() : Flattened(SweepBlocks());
    Env env(false);
    GroupBySpec spec = Spec({kKeyRle}, AllAggs(false), AggPhase::kSingle);
    PipelinedGroupByOperator gb(std::make_unique<BlocksOperator>(input), spec);
    ExpectMatches(&gb, &env.ctx, input, spec,
                  encoded ? "pipelined/RLE" : "pipelined/flat");
    if (encoded) {
      EXPECT_GT(gb.runs_consumed(), 0u);
      EXPECT_LT(gb.runs_consumed(), kBlocks * kBlockRows / 10);
    } else {
      EXPECT_EQ(gb.runs_consumed(), 0u);
    }
  }
}

TEST(GroupBySweep, PrepassFlushesUnderCombine) {
  const std::vector<RowBlock> input = SweepBlocks();
  for (const KeyForm& form : KeyForms()) {
    std::string what = std::string("prepass/") + form.name;
    Env env(false);
    GroupBySpec partial = Spec(form.keys, AllAggs(true), AggPhase::kPartial);
    // Capacity 4 is below every key form's group count but "none": the table
    // fills and flushes mid-block. Keys that cycle row by row then reduce
    // too little and switch the prepass off; the ascending RLE key reduces.
    auto prepass = std::make_unique<PrepassGroupByOperator>(
        std::make_unique<BlocksOperator>(input), partial, /*capacity=*/4);
    PrepassGroupByOperator* pre = prepass.get();
    HashGroupByOperator gb(std::move(prepass), CombineOf(partial));
    ExpectMatches(&gb, &env.ctx, input, partial, what);
    if (form.keys == std::vector<uint32_t>{kKeyRle}) {
      EXPECT_FALSE(pre->disabled()) << what;
    }
  }
}

TEST(GroupBySweep, PrepassDisablesAtRuntimeUnderCombine) {
  const std::vector<RowBlock> input = SweepBlocks();
  Env env(false);
  GroupBySpec partial = Spec({kUnique}, AllAggs(true), AggPhase::kPartial);
  auto prepass = std::make_unique<PrepassGroupByOperator>(
      std::make_unique<BlocksOperator>(input), partial, /*capacity=*/16);
  PrepassGroupByOperator* pre = prepass.get();
  HashGroupByOperator gb(std::move(prepass), CombineOf(partial));
  ExpectMatches(&gb, &env.ctx, input, partial, "prepass/disabled");
  EXPECT_TRUE(pre->disabled());
  EXPECT_EQ(env.stats.prepass_disabled.load(), 1u);
}

}  // namespace
}  // namespace stratica
