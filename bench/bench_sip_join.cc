// Ablation (Section 6.1): Sideways Information Passing. A hash join whose
// build side is selective installs a SIP filter in the probe scan; rows
// that cannot join never leave the scan. Sweeps build-side selectivity.
//
// Two key layouts at each selectivity: BM_JoinSip builds keys i * 7, whose
// span is too wide for a direct index, so the join hashes and publishes a
// hash-set SIP; BM_JoinSipDense builds keys i, which the join indexes
// directly by key offset and filters with a bitmap SIP (DESIGN.md §5).
#include <benchmark/benchmark.h>

#include "api/database.h"
#include "common/rng.h"
#include "exec/join.h"
#include "exec/scan.h"
#include "exec/simple_ops.h"

namespace stratica {
namespace {

struct Fixture {
  Fixture() {
    DatabaseOptions opts;
    opts.num_nodes = 1;
    opts.local_segments_per_node = 1;
    db = std::make_unique<Database>(opts);
    (void)db->Execute("CREATE TABLE fact (k INT, payload FLOAT)");
    RowBlock rows({TypeId::kInt64, TypeId::kFloat64});
    Rng rng(3);
    for (int i = 0; i < 2000000; ++i) {
      rows.columns[0].ints.push_back(rng.Range(0, 99999));
      rows.columns[1].doubles.push_back(rng.NextDouble());
    }
    (void)db->Load("fact", rows, true);
    (void)db->RunTupleMover();
    ps = db->cluster()->node(0)->GetStorage("fact_super");
  }
  std::unique_ptr<Database> db;
  ProjectionStorage* ps;
};

Fixture& GetFixture() {
  static Fixture f;
  return f;
}

void RunJoinSip(benchmark::State& state, int64_t key_step) {
  auto& f = GetFixture();
  int64_t build_keys = state.range(0);  // distinct keys on the build side
  bool sip = state.range(1) != 0;

  for (auto _ : state) {
    ExecContext ctx = f.db->MakeExecContext();
    ScanSpec probe_spec;
    probe_spec.storage = f.ps;
    probe_spec.projection_columns = {0, 1};
    probe_spec.output_names = {"k", "payload"};
    probe_spec.output_types = {TypeId::kInt64, TypeId::kFloat64};
    auto sip_filter = std::make_shared<SipFilter>();
    sip_filter->probe_columns = {0};
    if (sip) probe_spec.sips = {sip_filter};

    RowBlock build({TypeId::kInt64});
    for (int64_t i = 0; i < build_keys; ++i) build.columns[0].ints.push_back(i * key_step);
    JoinSpec jspec;
    jspec.type = JoinType::kInner;
    jspec.probe_keys = {0};
    jspec.build_keys = {0};
    if (sip) jspec.sip = sip_filter;
    HashJoinOperator join(
        std::make_unique<ScanOperator>(probe_spec),
        std::make_unique<MaterializedOperator>(build,
                                               std::vector<std::string>{"bk"}),
        jspec);
    auto rows = DrainOperator(&join, &ctx);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(rows.value().NumRows());
  }
  state.SetLabel(std::string("build_keys=") + std::to_string(build_keys) +
                 (key_step == 1 ? "/dense" : "/step7") + (sip ? "/SIP" : "/noSIP"));
}

void BM_JoinSip(benchmark::State& state) { RunJoinSip(state, 7); }
void BM_JoinSipDense(benchmark::State& state) { RunJoinSip(state, 1); }

void SelectivitySweep(benchmark::internal::Benchmark* b) {
  for (int64_t keys : {100, 1000, 10000}) {
    b->Args({keys, 0});
    b->Args({keys, 1});
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_JoinSip)->Apply(SelectivitySweep);
BENCHMARK(BM_JoinSipDense)->Apply(SelectivitySweep);

}  // namespace
}  // namespace stratica

BENCHMARK_MAIN();
