// Hash aggregation microbenchmark: distinct-cardinality sweep from 10 to
// 10M groups over an in-memory input (no storage layer), isolating the
// group-by hash path; plus one arm per other way a block maps to groups —
// a dict-coded key (code cache), an RLE key (one lookup per run) and no key
// (the single global group). Counters are machine-readable: run with
//   bench_group_by --benchmark_format=json --benchmark_out=BENCH_group_by.json
// to track the perf trajectory; rows_per_sec is the headline figure.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>

#include "common/rng.h"
#include "exec/group_by.h"
#include "exec/simple_ops.h"

namespace stratica {
namespace {

constexpr int64_t kRows = 8000000;

/// Input shared across benchmark runs: kRows rows of (int64 key, float64
/// payload). Keys for a given cardinality are `rng % cardinality` scaled by
/// a large odd stride so consecutive keys don't land in adjacent hash slots
/// by accident.
const RowBlock& InputFor(int64_t cardinality) {
  static std::map<int64_t, RowBlock> cache;
  auto it = cache.find(cardinality);
  if (it != cache.end()) return it->second;
  RowBlock rows({TypeId::kInt64, TypeId::kFloat64});
  rows.columns[0].ints.reserve(kRows);
  rows.columns[1].doubles.reserve(kRows);
  Rng rng(42);
  for (int64_t i = 0; i < kRows; ++i) {
    rows.columns[0].ints.push_back(
        static_cast<int64_t>(rng.Range(0, cardinality - 1)) * 2654435761LL);
    rows.columns[1].doubles.push_back(rng.NextDouble());
  }
  return cache.emplace(cardinality, std::move(rows)).first->second;
}

void BM_HashGroupBy(benchmark::State& state) {
  int64_t cardinality = state.range(0);
  const RowBlock& input = InputFor(cardinality);
  int64_t out_rows = 0;
  GroupBySpec spec;
  spec.group_columns = {0};
  spec.aggs = {{AggKind::kSum, 1, TypeId::kFloat64},
               {AggKind::kCountStar, -1, TypeId::kInt64}};
  spec.output_names = {"k", "total", "n"};
  HashGroupByOperator gb(
      std::make_unique<MaterializedOperator>(input,
                                             std::vector<std::string>{"k", "payload"}),
      spec);
  for (auto _ : state) {
    ExecContext ctx;
    auto rows = DrainOperator(&gb, &ctx);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    out_rows = static_cast<int64_t>(rows.value().NumRows());
    benchmark::DoNotOptimize(out_rows);
  }
  state.counters["groups"] = static_cast<double>(out_rows);
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(kRows) * state.iterations(), benchmark::Counter::kIsRate);
  state.SetLabel("distinct=" + std::to_string(cardinality));
}

BENCHMARK(BM_HashGroupBy)
    ->Arg(10)
    ->Arg(1000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Arg(10000000)
    ->Unit(benchmark::kMillisecond);

/// Prepass flavor: the L1-sized table right above scans; low cardinality is
/// its design point, high cardinality exercises the flush + runtime-disable
/// path.
void BM_PrepassGroupBy(benchmark::State& state) {
  int64_t cardinality = state.range(0);
  const RowBlock& input = InputFor(cardinality);
  GroupBySpec spec;
  spec.group_columns = {0};
  spec.aggs = {{AggKind::kSum, 1, TypeId::kFloat64}};
  spec.output_names = {"k", "total"};
  PrepassGroupByOperator gb(
      std::make_unique<MaterializedOperator>(input,
                                             std::vector<std::string>{"k", "payload"}),
      spec);
  for (auto _ : state) {
    ExecContext ctx;
    auto rows = DrainOperator(&gb, &ctx);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(rows.value().NumRows());
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(kRows) * state.iterations(), benchmark::Counter::kIsRate);
  state.SetLabel("distinct=" + std::to_string(cardinality));
}

BENCHMARK(BM_PrepassGroupBy)->Arg(10)->Arg(1000)->Unit(benchmark::kMillisecond);

constexpr size_t kEncodedRows = 2000000;

/// Replays prebuilt blocks as they are, RLE and dict-coded columns included
/// (MaterializedOperator would flatten them).
class BlocksOperator : public Operator {
 public:
  explicit BlocksOperator(const std::vector<RowBlock>* blocks) : blocks_(blocks) {}
  Status Open(ExecContext*) override {
    next_ = 0;
    return Status::OK();
  }
  Status GetNext(RowBlock* out) override {
    *out = next_ < blocks_->size() ? (*blocks_)[next_++] : RowBlock(OutputTypes());
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  std::vector<TypeId> OutputTypes() const override {
    std::vector<TypeId> types;
    for (const auto& c : (*blocks_)[0].columns) types.push_back(c.type);
    return types;
  }
  std::vector<std::string> OutputNames() const override {
    return {"k", "payload", "code"};
  }
  std::string DebugString() const override { return "Blocks"; }

 private:
  const std::vector<RowBlock>* blocks_;
  size_t next_ = 0;
};

enum class KeyForm { kDict, kRle };

/// kEncodedRows rows in blocks of kDefaultVectorSize: an int64 key over
/// `cardinality` values — dict-coded (one dictionary for the whole input) or
/// RLE (runs of 16 rows) — a float64 payload, and a dict-coded int64 column
/// over 100 values.
const std::vector<RowBlock>& EncodedInputFor(KeyForm form, int64_t cardinality) {
  static std::map<std::pair<KeyForm, int64_t>, std::vector<RowBlock>> cache;
  auto it = cache.find({form, cardinality});
  if (it != cache.end()) return it->second;
  auto key_dict = std::make_shared<ColumnVector>(TypeId::kInt64);
  for (int64_t v = 0; v < cardinality; ++v) key_dict->ints.push_back(v * 2654435761LL);
  auto code_dict = std::make_shared<ColumnVector>(TypeId::kInt64);
  for (int64_t v = 0; v < 100; ++v) code_dict->ints.push_back(v * 7);
  std::vector<RowBlock> blocks;
  Rng rng(42);
  for (size_t start = 0; start < kEncodedRows; start += kDefaultVectorSize) {
    size_t n = std::min(kDefaultVectorSize, kEncodedRows - start);
    RowBlock block({TypeId::kInt64, TypeId::kFloat64, TypeId::kInt64});
    ColumnVector& key = block.columns[0];
    if (form == KeyForm::kDict) key.dict = key_dict;
    block.columns[2].dict = code_dict;
    for (size_t i = start; i < start + n; ++i) {
      if (form == KeyForm::kDict) {
        key.ints.push_back(static_cast<int64_t>(rng.Range(0, cardinality - 1)));
      } else if (i == start || i % 16 == 0) {
        key.ints.push_back(static_cast<int64_t>((i / 16) % cardinality) * 2654435761LL);
        key.runs.push_back(1);
      } else {
        ++key.runs.back();
      }
      block.columns[1].doubles.push_back(rng.NextDouble());
      block.columns[2].ints.push_back(static_cast<int64_t>(rng.Range(0, 99)));
    }
    blocks.push_back(std::move(block));
  }
  return cache.emplace(std::make_pair(form, cardinality), std::move(blocks))
      .first->second;
}

void RunEncoded(benchmark::State& state, const std::vector<RowBlock>& input,
                const GroupBySpec& spec, const std::string& label) {
  HashGroupByOperator gb(std::make_unique<BlocksOperator>(&input), spec);
  int64_t out_rows = 0;
  for (auto _ : state) {
    ExecContext ctx;
    auto rows = DrainOperator(&gb, &ctx);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    out_rows = static_cast<int64_t>(rows.value().NumRows());
    benchmark::DoNotOptimize(out_rows);
  }
  state.counters["groups"] = static_cast<double>(out_rows);
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(kEncodedRows) * state.iterations(),
      benchmark::Counter::kIsRate);
  state.SetLabel(label);
}

/// Dict-coded key: groups resolve through the code→group cache.
void BM_DictKeyGroupBy(benchmark::State& state) {
  GroupBySpec spec;
  spec.group_columns = {0};
  spec.aggs = {{AggKind::kSum, 1, TypeId::kFloat64},
               {AggKind::kCountStar, -1, TypeId::kInt64}};
  spec.output_names = {"k", "total", "n"};
  RunEncoded(state, EncodedInputFor(KeyForm::kDict, state.range(0)), spec,
             "dict key/distinct=" + std::to_string(state.range(0)));
}

BENCHMARK(BM_DictKeyGroupBy)->Arg(10)->Arg(1000)->Unit(benchmark::kMillisecond);

/// RLE key (runs of 16 rows): one group lookup per run.
void BM_RleKeyGroupBy(benchmark::State& state) {
  GroupBySpec spec;
  spec.group_columns = {0};
  spec.aggs = {{AggKind::kSum, 1, TypeId::kFloat64},
               {AggKind::kCountStar, -1, TypeId::kInt64}};
  spec.output_names = {"k", "total", "n"};
  RunEncoded(state, EncodedInputFor(KeyForm::kRle, state.range(0)), spec,
             "RLE key/distinct=" + std::to_string(state.range(0)));
}

BENCHMARK(BM_RleKeyGroupBy)->Arg(10)->Arg(1000)->Unit(benchmark::kMillisecond);

/// No GROUP BY: one global group; SUM over the flat payload, MIN over the
/// dict-coded column (aggregated per code) and COUNT(*).
void BM_GlobalGroupBy(benchmark::State& state) {
  GroupBySpec spec;
  spec.aggs = {{AggKind::kSum, 1, TypeId::kFloat64},
               {AggKind::kMin, 2, TypeId::kInt64},
               {AggKind::kCountStar, -1, TypeId::kInt64}};
  spec.output_names = {"total", "lo", "n"};
  RunEncoded(state, EncodedInputFor(KeyForm::kRle, 10), spec, "no key");
}

BENCHMARK(BM_GlobalGroupBy)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stratica

BENCHMARK_MAIN();
