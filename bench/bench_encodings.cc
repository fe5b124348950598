// Ablation (Section 3.4): every encoding type against every data shape —
// size and decode speed. Shows why per-column encoding choice matters and
// what Auto picks.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "storage/encoding.h"

namespace stratica {
namespace {

constexpr size_t kN = 65536;

ColumnVector MakeShape(int shape) {
  Rng rng(shape + 1);
  ColumnVector col(TypeId::kInt64);
  col.ints.reserve(kN);
  switch (shape) {
    case 0:  // sorted low-cardinality (RLE territory)
      for (size_t i = 0; i < kN; ++i) col.ints.push_back(static_cast<int64_t>(i / 4096));
      break;
    case 1:  // unsorted small-range (DeltaValue territory)
      for (size_t i = 0; i < kN; ++i) col.ints.push_back(rng.Range(100000, 100255));
      break;
    case 2:  // few-valued unsorted (BlockDict territory)
      for (size_t i = 0; i < kN; ++i) col.ints.push_back(rng.Range(0, 15) * 997);
      break;
    case 3:  // sorted many-valued (DeltaRange territory)
    {
      int64_t v = 0;
      for (size_t i = 0; i < kN; ++i) col.ints.push_back(v += rng.Range(0, 9));
      break;
    }
    case 4:  // periodic with breaks (CommonDelta territory)
    {
      int64_t t = 0;
      for (size_t i = 0; i < kN; ++i)
        col.ints.push_back(t += rng.Uniform(64) == 0 ? 86400 : 300);
      break;
    }
    default:  // adversarial random (Plain territory)
      for (size_t i = 0; i < kN; ++i) col.ints.push_back(static_cast<int64_t>(rng.Next()));
  }
  return col;
}

const char* ShapeName(int shape) {
  static const char* kNames[] = {"sorted_lowcard", "small_range", "few_valued",
                                 "sorted_dense",   "periodic",    "random"};
  return kNames[shape];
}

void BM_Encode(benchmark::State& state) {
  auto enc = static_cast<EncodingId>(state.range(0));
  int shape = static_cast<int>(state.range(1));
  ColumnVector col = MakeShape(shape);
  if (!EncodingSupports(enc, StorageClass::kInt64) && enc != EncodingId::kAuto) {
    state.SkipWithError("unsupported");
    return;
  }
  size_t encoded = 0;
  for (auto _ : state) {
    std::string buf;
    if (!EncodeBlock(enc, col, 0, kN, &buf).ok()) {
      state.SkipWithError("encode failed");
      return;
    }
    encoded = buf.size();
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetLabel(std::string(ShapeName(shape)) + "/" + EncodingName(enc));
  state.counters["bytes_per_value"] =
      static_cast<double>(encoded) / static_cast<double>(kN);
  state.counters["ratio_vs_raw"] = 8.0 * kN / static_cast<double>(encoded);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kN);
}

void BM_Decode(benchmark::State& state) {
  auto enc = static_cast<EncodingId>(state.range(0));
  int shape = static_cast<int>(state.range(1));
  ColumnVector col = MakeShape(shape);
  std::string buf;
  if (!EncodeBlock(enc, col, 0, kN, &buf).ok()) {
    state.SkipWithError("encode failed");
    return;
  }
  // One output vector for every iteration (DecodeBlock appends), so the
  // timing is the decode, not a fresh 512 KB allocation per call.
  ColumnVector out(TypeId::kInt64);
  for (auto _ : state) {
    out.Clear();
    size_t offset = 0;
    if (!DecodeBlock(buf, &offset, TypeId::kInt64, &out).ok()) {
      state.SkipWithError("decode failed");
      return;
    }
    benchmark::DoNotOptimize(out.ints.data());
  }
  state.SetLabel(std::string(ShapeName(shape)) + "/" + EncodingName(enc));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kN);
}

void AllCombos(benchmark::internal::Benchmark* b) {
  for (int enc : {0, 1, 2, 3, 4, 5, 6}) {
    for (int shape = 0; shape < 6; ++shape) b->Args({enc, shape});
  }
}

BENCHMARK(BM_Encode)->Apply(AllCombos)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Decode)->Apply(AllCombos)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace stratica

BENCHMARK_MAIN();
