#include "exec/join.h"

#include "common/hash.h"
#include "exec/group_by.h"
#include "exec/scheduler.h"
#include "storage/sort_util.h"

namespace stratica {

const char* JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner: return "INNER";
    case JoinType::kLeft: return "LEFT OUTER";
    case JoinType::kRight: return "RIGHT OUTER";
    case JoinType::kFull: return "FULL OUTER";
    case JoinType::kSemi: return "SEMI";
    case JoinType::kAnti: return "ANTI";
  }
  return "?";
}

namespace {

bool ProbeOnlyOutput(JoinType t) { return t == JoinType::kSemi || t == JoinType::kAnti; }

bool AnyNullKey(const RowBlock& block, const std::vector<uint32_t>& keys, size_t row) {
  for (uint32_t k : keys) {
    if (block.columns[k].IsNull(row)) return true;
  }
  return false;
}

void AppendNullRow(RowBlock* out, size_t first_col, const std::vector<TypeId>& types) {
  for (size_t c = 0; c < types.size(); ++c) {
    out->columns[first_col + c].Append(Value::Null(types[c]));
  }
}

/// Drains an open build input into `rows`, reserving each block against the
/// query budget (`*bytes` is the reservation held), then closes it. When a
/// block does not fit, the join switches from hash to sort-merge at run
/// time: what is held, that block and the rest of the input are spooled to
/// one spill file, the reservation is released, `rows` is emptied and
/// `*spill_path` names the file.
Status DrainBuild(Operator* build, ExecContext* ctx, RowBlock* rows, size_t* bytes,
                  std::string* spill_path) {
  *rows = RowBlock(build->OutputTypes());
  for (;;) {
    RowBlock block;
    STRATICA_RETURN_NOT_OK(build->GetNext(&block));
    if (block.NumRows() == 0) break;
    block.DecodeAll();
    size_t block_bytes = block.MemoryBytes();
    if (ctx->budget && !ctx->budget->TryReserve(block_bytes)) {
      if (ctx->stats) ctx->stats->hash_to_merge_switches.fetch_add(1);
      SpillWriter writer(ctx->fs, ctx->NextSpillPath());
      STRATICA_RETURN_NOT_OK(writer.Append(*rows));
      STRATICA_RETURN_NOT_OK(writer.Append(block));
      for (;;) {
        RowBlock more;
        STRATICA_RETURN_NOT_OK(build->GetNext(&more));
        if (more.NumRows() == 0) break;
        more.DecodeAll();
        STRATICA_RETURN_NOT_OK(writer.Append(more));
      }
      STRATICA_RETURN_NOT_OK(writer.Finish());
      if (ctx->stats) {
        ctx->stats->rows_spilled.fetch_add(writer.rows());
        ctx->stats->spill_files.fetch_add(1);
      }
      ctx->budget->Release(*bytes);
      *bytes = 0;
      *rows = RowBlock(build->OutputTypes());
      *spill_path = writer.path();
      break;
    }
    *bytes += block_bytes;
    rows->AppendRange(block, 0, block.NumRows());
  }
  return build->Close();
}

/// The sort-merge join that replaces a hash join whose build spilled: the
/// probe input and the spilled build, each sorted on the join keys.
OperatorPtr MergeJoinOverSpill(OperatorPtr probe, const std::string& spill_path,
                               std::vector<TypeId> build_types,
                               std::vector<std::string> build_names, JoinSpec spec) {
  std::vector<SortKey> lkeys, rkeys;
  for (uint32_t k : spec.probe_keys) lkeys.push_back({k, false});
  for (uint32_t k : spec.build_keys) rkeys.push_back({k, false});
  auto spill_src = std::make_unique<SpillSourceOperator>(
      spill_path, std::move(build_types), std::move(build_names));
  auto sorted_build = std::make_unique<SortOperator>(std::move(spill_src), rkeys);
  auto sorted_probe = std::make_unique<SortOperator>(std::move(probe), lkeys);
  spec.sip = nullptr;  // no hash table to filter with
  return std::make_unique<MergeJoinOperator>(std::move(sorted_probe),
                                             std::move(sorted_build), std::move(spec));
}

}  // namespace

// ---------------------------------------------------------------------------
// JoinIndex

void JoinIndex::Build(const RowBlock& rows, const std::vector<uint32_t>& keys,
                      size_t shards, ExecContext* ctx, SipFilter* sip) {
  // The range of the non-NULL keys of a single integer-class key picks the
  // path and bounds either SIP form. Offsets are unsigned, so a span across
  // INT64_MIN..INT64_MAX cannot overflow; it simply fails the 4x rule.
  bool single_int_key =
      keys.size() == 1 &&
      StorageClassOf(rows.columns[keys[0]].type) == StorageClass::kInt64;
  uint64_t count = 0;
  int64_t lo = 0, hi = 0;
  if (single_int_key) {
    const ColumnVector& key = rows.columns[keys[0]];
    for (size_t r = 0; r < key.ints.size(); ++r) {
      if (key.IsNull(r)) continue;
      int64_t v = key.ints[r];
      lo = count == 0 ? v : std::min(lo, v);
      hi = count == 0 ? v : std::max(hi, v);
      ++count;
    }
  }
  uint64_t span_minus_1 = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  direct_ = single_int_key && (count == 0 || span_minus_1 < kDirectSpanFactor * count);
  if (sip != nullptr) {  // a re-opened join refills the same filter
    sip->bitmap_form = false;
    sip->bitmap.clear();
    sip->key_hashes.Clear();
    sip->has_range = single_int_key && count > 0;
    sip->min = lo;
    sip->max = hi;
  }
  if (direct_) {
    min_ = lo;
    span_ = count == 0 ? 0 : span_minus_1 + 1;
    BuildDirect(rows.columns[keys[0]], sip);
    if (ctx->stats) ctx->stats->direct_join_builds.fetch_add(1);
  } else {
    BuildHashed(rows, keys, shards, ctx, sip);
  }
  // Publish exactly once, before any probe-side scan opens (the pull model,
  // or — for shared builds — every fragment blocked in Ensure).
  if (sip != nullptr) sip->ready.store(true, std::memory_order_release);
}

void JoinIndex::BuildDirect(const ColumnVector& key, SipFilter* sip) {
  size_t n = key.ints.size();
  head_.assign(span_, kNone);
  next_.assign(n, kNone);
  for (size_t r = 0; r < n; ++r) {
    if (key.IsNull(r)) continue;
    uint64_t off = static_cast<uint64_t>(key.ints[r]) - static_cast<uint64_t>(min_);
    next_[r] = head_[off];  // most recent first, like FlatHashTable chains
    head_[off] = static_cast<uint32_t>(r);
  }
  if (sip == nullptr) return;
  sip->bitmap_form = true;
  sip->span = span_;
  sip->bitmap.assign((span_ + 63) / 64, 0);
  for (uint64_t off = 0; off < span_; ++off) {
    if (head_[off] != kNone) sip->bitmap[off >> 6] |= uint64_t{1} << (off & 63);
  }
}

void JoinIndex::BuildHashed(const RowBlock& rows, const std::vector<uint32_t>& keys,
                            size_t shards, ExecContext* ctx, SipFilter* sip) {
  // Partitioned build: hash every row once, then one task per shard inserts
  // the rows whose high hash bits select it. Each task owns its shard and
  // the next_ links of its rows exclusively, so no insert synchronizes.
  size_t n = rows.NumRows();
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> null_keys;
  HashRows(rows, keys, kGroupKeySeed, &hashes);
  NullKeyMask(rows, keys, &null_keys);
  shards_.clear();
  shards_.resize(shards == 0 ? 1 : shards);
  shard_mask_ = shards_.size() - 1;
  next_.assign(n, kNone);
  auto insert_shard = [&](size_t s) {
    Shard& sh = shards_[s];
    sh.table.Reserve(n / shards_.size() + 16);
    for (size_t r = 0; r < n; ++r) {
      if (null_keys[r]) continue;  // NULL keys never match a probe
      uint64_t h = hashes[r];
      if (((h >> 32) & shard_mask_) != s) continue;
      sh.table.Insert(h);
      sh.rows.push_back(static_cast<uint32_t>(r));
    }
    // Re-express the table's equal-hash chains in build-row ids.
    for (uint32_t local = 0; local < sh.rows.size(); ++local) {
      uint32_t nl = sh.table.Next(local);
      next_[sh.rows[local]] = nl == FlatHashTable::kNone ? kNone : sh.rows[nl];
    }
  };
  constexpr size_t kParallelBuildMinRows = 8192;
  if (ctx->scheduler != nullptr && shards_.size() > 1 && n >= kParallelBuildMinRows) {
    Scheduler::TaskSet tasks(ctx->scheduler);
    for (size_t s = 0; s < shards_.size(); ++s) {
      tasks.Submit([&insert_shard, s] { insert_shard(s); });
    }
    tasks.Wait();
  } else {
    for (size_t s = 0; s < shards_.size(); ++s) insert_shard(s);
  }

  if (sip == nullptr) return;
  // Scan-side hash seed (Section 6.1). No Reserve: the distinct-key count
  // is unknown (often << n) and the set grows geometrically; reserving for
  // n rows would allocate O(rows) outside the operator budget.
  HashRows(rows, keys, kSipSeed, &hashes);
  for (size_t r = 0; r < n; ++r) {
    if (!null_keys[r]) sip->key_hashes.Insert(hashes[r]);
  }
}

void JoinIndex::ProbeHeads(const RowBlock& probe, const std::vector<uint32_t>& keys,
                           std::vector<uint64_t>* hash_scratch,
                           std::vector<uint8_t>* null_scratch,
                           std::vector<uint32_t>* heads) const {
  size_t n = probe.NumRows();
  heads->resize(n);
  uint32_t* out = heads->data();
  if (direct_) {
    // A probe key of another storage class never equals an integer key.
    const ColumnVector& col = probe.columns[keys[0]];
    if (StorageClassOf(col.type) != StorageClass::kInt64) {
      std::fill(out, out + n, kNone);
      return;
    }
    const int64_t* v = col.ints.data();
    for (size_t r = 0; r < n; ++r) {
      uint64_t off = static_cast<uint64_t>(v[r]) - static_cast<uint64_t>(min_);
      out[r] = off < span_ ? head_[off] : kNone;
    }
    if (!col.nulls.empty()) {
      for (size_t r = 0; r < n; ++r) {
        if (col.nulls[r]) out[r] = kNone;
      }
    }
    return;
  }
  // Hash the whole probe block once, then resolve every row's chain head;
  // a single shard probes in one prefetching batch.
  HashRows(probe, keys, kGroupKeySeed, hash_scratch);
  NullKeyMask(probe, keys, null_scratch);
  const uint64_t* h = hash_scratch->data();
  const uint8_t* nulls = null_scratch->data();
  if (shards_.size() == 1) {
    const Shard& sh = shards_[0];
    sh.table.ProbeBatch(h, n, out);
    for (size_t r = 0; r < n; ++r) {
      out[r] = nulls[r] || out[r] == FlatHashTable::kNone ? kNone : sh.rows[out[r]];
    }
    return;
  }
  for (size_t r = 0; r < n; ++r) {
    out[r] = kNone;
    if (nulls[r]) continue;
    const Shard& sh = shards_[(h[r] >> 32) & shard_mask_];
    uint32_t local = sh.table.Probe(h[r]);
    if (local != FlatHashTable::kNone) out[r] = sh.rows[local];
  }
}

// ---------------------------------------------------------------------------
// SharedJoinBuild

SharedJoinBuild::SharedJoinBuild(OperatorPtr build, JoinSpec spec, size_t fanout)
    : build_(std::move(build)),
      spec_(std::move(spec)),
      fanout_(fanout == 0 ? 1 : fanout),
      open_fragments_(fanout == 0 ? 1 : fanout) {
  while (num_shards_ < fanout_ && num_shards_ < 64) num_shards_ <<= 1;
}

Status SharedJoinBuild::Ensure(ExecContext* ctx) {
  std::lock_guard lock(mu_);
  if (done_) return status_;
  done_ = true;
  status_ = Build(ctx);
  return status_;
}

Status SharedJoinBuild::Build(ExecContext* ctx) {
  STRATICA_RETURN_NOT_OK(build_->Open(ctx));
  // On a spill every fragment sort-merges its own probe subset against the
  // full spilled build (their union is the unit's result).
  STRATICA_RETURN_NOT_OK(DrainBuild(build_.get(), ctx, &rows_, &bytes_, &spill_path_));
  if (spilled()) return Status::OK();
  // Every fragment is blocked in Ensure until this returns, so the SIP is
  // published before any fragment's probe scan opens.
  index_.Build(rows_, spec_.build_keys, num_shards_, ctx, spec_.sip.get());
  return Status::OK();
}

void SharedJoinBuild::FragmentClosed(ExecContext* ctx) {
  std::lock_guard lock(mu_);
  if (open_fragments_ == 0) return;
  if (--open_fragments_ == 0 && ctx != nullptr && ctx->budget != nullptr) {
    ctx->budget->Release(bytes_);
    bytes_ = 0;
  }
}

// ---------------------------------------------------------------------------
// HashJoinOperator

std::vector<TypeId> HashJoinOperator::OutputTypes() const {
  // After the runtime switch the probe child lives inside the fallback
  // merge join, which exposes the identical schema.
  if (fallback_) return fallback_->OutputTypes();
  std::vector<TypeId> t = probe_->OutputTypes();
  if (!ProbeOnlyOutput(spec_.type)) {
    for (TypeId bt : shared_ ? shared_->OutputTypes() : build_->OutputTypes())
      t.push_back(bt);
  }
  return t;
}

std::vector<std::string> HashJoinOperator::OutputNames() const {
  if (fallback_) return fallback_->OutputNames();
  std::vector<std::string> n = probe_->OutputNames();
  if (!ProbeOnlyOutput(spec_.type)) {
    for (const auto& bn : shared_ ? shared_->OutputNames() : build_->OutputNames())
      n.push_back(bn);
  }
  return n;
}

std::vector<Operator*> HashJoinOperator::Children() const {
  if (fallback_) return {fallback_.get()};
  // Shared build: the designated fragment exposes the build subtree so
  // EXPLAIN and plan-memory estimation see it exactly once.
  if (shared_) {
    if (show_build_) return {probe_.get(), shared_->child()};
    return {probe_.get()};
  }
  return {probe_.get(), build_.get()};
}

Status HashJoinOperator::BuildTable() {
  build_bytes_ = 0;
  std::string spill_path;
  STRATICA_RETURN_NOT_OK(
      DrainBuild(build_.get(), ctx_, &build_rows_, &build_bytes_, &spill_path));
  if (!spill_path.empty()) {
    fallback_ = MergeJoinOverSpill(std::move(probe_), spill_path, build_->OutputTypes(),
                                   build_->OutputNames(), spec_);
    return fallback_->Open(ctx_);
  }
  build_matched_.assign(build_rows_.NumRows(), 0);
  // Index once, with the row count known; also publishes the SIP filter.
  index_.Build(build_rows_, spec_.build_keys, /*shards=*/1, ctx_, spec_.sip.get());
  return Status::OK();
}

Status HashJoinOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  fallback_.reset();
  probe_done_ = false;
  emitting_unmatched_ = false;
  probe_cursor_ = 0;
  unmatched_cursor_ = 0;
  if (shared_) {
    if (spec_.type == JoinType::kRight || spec_.type == JoinType::kFull) {
      return Status::InvalidArgument(
          "shared join build cannot serve ", JoinTypeName(spec_.type),
          ": unmatched build rows must be emitted exactly once");
    }
    STRATICA_RETURN_NOT_OK(shared_->Ensure(ctx));
    if (shared_->spilled()) {
      fallback_ = MergeJoinOverSpill(std::move(probe_), shared_->spill_path(),
                                     shared_->OutputTypes(), shared_->OutputNames(), spec_);
      return fallback_->Open(ctx);
    }
    return probe_->Open(ctx);
  }
  STRATICA_RETURN_NOT_OK(build_->Open(ctx));
  STRATICA_RETURN_NOT_OK(BuildTable());  // closes the build
  if (fallback_) return Status::OK();  // probe was consumed by the fallback
  return probe_->Open(ctx);
}

Status HashJoinOperator::EmitUnmatchedBuild(RowBlock* out) {
  auto probe_types = probe_->OutputTypes();
  while (unmatched_cursor_ < build_rows_.NumRows() &&
         out->NumRows() < ctx_->vector_size) {
    size_t r = unmatched_cursor_++;
    if (build_matched_[r]) continue;
    AppendNullRow(out, 0, probe_types);
    for (size_t c = 0; c < build_rows_.NumColumns(); ++c) {
      out->columns[probe_types.size() + c].AppendFrom(build_rows_.columns[c], r);
    }
  }
  return Status::OK();
}

Status HashJoinOperator::GetNext(RowBlock* out) {
  if (fallback_) return fallback_->GetNext(out);
  *out = RowBlock(OutputTypes());
  bool build_output = !ProbeOnlyOutput(spec_.type);
  size_t probe_width = probe_->OutputTypes().size();
  // Shared-build mode reads the sibling-shared rows and index; the serial
  // mode owns both. Either way candidates are `brows` row indexes.
  const RowBlock& brows = shared_ ? shared_->rows() : build_rows_;
  const JoinIndex& index = shared_ ? shared_->index() : index_;

  // Process one whole probe block per call: match indexes are collected
  // first, then columns materialize with typed batch gathers.
  while (out->NumRows() == 0 && !probe_done_) {
    STRATICA_RETURN_NOT_OK(probe_->GetNext(&probe_block_));
    probe_block_.DecodeAll();
    if (probe_block_.NumRows() == 0) {
      probe_done_ = true;
      break;
    }
    std::vector<uint32_t> probe_idx, build_idx;  // matched pairs
    std::vector<uint32_t> lonely_probe;          // unmatched probe rows
    size_t n = probe_block_.NumRows();
    // Resolve every row's first candidate in one batched pass; the per-row
    // loop only walks candidates. NULL probe keys get none.
    index.ProbeHeads(probe_block_, spec_.probe_keys, &hash_buf_, &null_key_buf_,
                     &head_buf_);
    // Direct-index candidates carry exactly the probe key. Hash candidates
    // share only its hash and are re-checked; with a single int-class key a
    // raw value compare suffices (both keys are non-NULL here).
    const bool verify = !index.direct();
    const int64_t* probe_ints = nullptr;
    const int64_t* build_ints = nullptr;
    if (spec_.probe_keys.size() == 1 &&
        StorageClassOf(probe_block_.columns[spec_.probe_keys[0]].type) ==
            StorageClass::kInt64 &&
        StorageClassOf(brows.columns[spec_.build_keys[0]].type) ==
            StorageClass::kInt64) {
      probe_ints = probe_block_.columns[spec_.probe_keys[0]].ints.data();
      build_ints = brows.columns[spec_.build_keys[0]].ints.data();
    }
    for (size_t r = 0; r < n; ++r) {
      size_t matches = 0;
      for (uint32_t br = head_buf_[r]; br != JoinIndex::kNone; br = index.Next(br)) {
        if (verify) {
          bool eq;
          if (probe_ints) {
            eq = probe_ints[r] == build_ints[br];
          } else {
            eq = true;
            for (size_t k = 0; k < spec_.probe_keys.size() && eq; ++k) {
              eq = ColumnVector::CompareEntries(
                       probe_block_.columns[spec_.probe_keys[k]], r,
                       brows.columns[spec_.build_keys[k]], br) == 0;
            }
          }
          if (!eq) continue;
        }
        ++matches;
        // Matched bits feed RIGHT/FULL emission only; shared builds never
        // serve those types, so sibling fragments need not synchronize.
        if (!shared_) build_matched_[br] = 1;
        if (spec_.type == JoinType::kSemi || spec_.type == JoinType::kAnti) break;
        if (build_output) {
          probe_idx.push_back(static_cast<uint32_t>(r));
          build_idx.push_back(br);
        }
      }
      bool emit_lonely = (spec_.type == JoinType::kAnti && matches == 0) ||
                         (spec_.type == JoinType::kSemi && matches > 0) ||
                         ((spec_.type == JoinType::kLeft ||
                           spec_.type == JoinType::kFull) &&
                          matches == 0);
      if (emit_lonely) lonely_probe.push_back(static_cast<uint32_t>(r));
    }
    for (size_t c = 0; c < probe_width; ++c) {
      out->columns[c].AppendGather(probe_block_.columns[c], probe_idx);
    }
    if (build_output) {
      for (size_t c = 0; c < brows.NumColumns(); ++c) {
        out->columns[probe_width + c].AppendGather(brows.columns[c], build_idx);
      }
    }
    if (!lonely_probe.empty()) {
      for (size_t c = 0; c < probe_width; ++c) {
        out->columns[c].AppendGather(probe_block_.columns[c], lonely_probe);
      }
      if (build_output) {
        auto build_types = shared_ ? shared_->OutputTypes() : build_->OutputTypes();
        for (size_t i = 0; i < lonely_probe.size(); ++i) {
          AppendNullRow(out, probe_width, build_types);
        }
      }
    }
  }

  if (out->NumRows() == 0 && probe_done_ &&
      (spec_.type == JoinType::kRight || spec_.type == JoinType::kFull)) {
    if (!emitting_unmatched_) {
      emitting_unmatched_ = true;
      unmatched_cursor_ = 0;
    }
    STRATICA_RETURN_NOT_OK(EmitUnmatchedBuild(out));
  }
  return Status::OK();
}

Status HashJoinOperator::Close() {
  if (fallback_) {
    // A shared build that spilled still holds a fragment slot.
    if (shared_) shared_->FragmentClosed(ctx_);
    return fallback_->Close();
  }
  if (shared_) {
    shared_->FragmentClosed(ctx_);  // last fragment releases the build bytes
    return probe_->Close();
  }
  if (ctx_ && ctx_->budget) ctx_->budget->Release(build_bytes_);
  build_bytes_ = 0;
  return probe_->Close();
}

std::string HashJoinOperator::DebugString() const {
  std::string s = std::string("JoinHash(") + JoinTypeName(spec_.type);
  if (spec_.sip) s += ", SIP";
  if (shared_) s += ", shared build /" + std::to_string(shared_->fanout());
  if (fallback_) s += ", switched to sort-merge at runtime";
  return s + ")";
}

// ---------------------------------------------------------------------------
// MergeJoinOperator

Status MergeJoinOperator::Cursor::Refill() {
  if (done) return Status::OK();
  if (pos < block.NumRows()) return Status::OK();
  for (;;) {
    STRATICA_RETURN_NOT_OK(op->GetNext(&block));
    block.DecodeAll();
    pos = 0;
    if (block.NumRows() == 0) {
      done = true;
      return Status::OK();
    }
    return Status::OK();
  }
}

std::vector<TypeId> MergeJoinOperator::OutputTypes() const {
  std::vector<TypeId> t = left_->OutputTypes();
  if (!ProbeOnlyOutput(spec_.type)) {
    for (TypeId rt : right_->OutputTypes()) t.push_back(rt);
  }
  return t;
}

std::vector<std::string> MergeJoinOperator::OutputNames() const {
  std::vector<std::string> n = left_->OutputNames();
  if (!ProbeOnlyOutput(spec_.type)) {
    for (const auto& rn : right_->OutputNames()) n.push_back(rn);
  }
  return n;
}

Status MergeJoinOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  STRATICA_RETURN_NOT_OK(left_->Open(ctx));
  STRATICA_RETURN_NOT_OK(right_->Open(ctx));
  left_types_ = left_->OutputTypes();
  right_types_ = right_->OutputTypes();
  lcur_ = Cursor{left_.get(), RowBlock(), 0, false};
  rcur_ = Cursor{right_.get(), RowBlock(), 0, false};
  STRATICA_RETURN_NOT_OK(lcur_.Refill());
  STRATICA_RETURN_NOT_OK(rcur_.Refill());
  pending_ = RowBlock(OutputTypes());
  pending_cursor_ = 0;
  return Status::OK();
}

Status MergeJoinOperator::CollectGroup(Cursor* cur, const std::vector<uint32_t>& keys,
                                       RowBlock* group) {
  // First row of the group.
  group->AppendRowFrom(cur->block, cur->pos);
  size_t anchor = group->NumRows() - 1;
  ++cur->pos;
  std::vector<uint32_t> group_keys = keys;
  for (;;) {
    STRATICA_RETURN_NOT_OK(cur->Refill());
    if (cur->done) return Status::OK();
    if (CompareRows(*group, anchor, cur->block, cur->pos, group_keys, keys) != 0)
      return Status::OK();
    group->AppendRowFrom(cur->block, cur->pos);
    ++cur->pos;
  }
}

Status MergeJoinOperator::GetNext(RowBlock* out) {
  *out = RowBlock(OutputTypes());
  size_t lwidth = left_types_.size();
  bool right_output = !ProbeOnlyOutput(spec_.type);

  // Drain any cross-product overflow first.
  while (pending_cursor_ < pending_.NumRows() && out->NumRows() < ctx_->vector_size) {
    out->AppendRowFrom(pending_, pending_cursor_++);
  }
  if (pending_cursor_ >= pending_.NumRows()) {
    pending_ = RowBlock(OutputTypes());
    pending_cursor_ = 0;
  }

  while (out->NumRows() < ctx_->vector_size) {
    STRATICA_RETURN_NOT_OK(lcur_.Refill());
    STRATICA_RETURN_NOT_OK(rcur_.Refill());
    bool lvalid = !lcur_.done, rvalid = !rcur_.done;
    if (!lvalid && !rvalid) break;

    int cmp;
    bool lnull = lvalid && AnyNullKey(lcur_.block, spec_.probe_keys, lcur_.pos);
    bool rnull = rvalid && AnyNullKey(rcur_.block, spec_.build_keys, rcur_.pos);
    if (!lvalid) {
      cmp = 1;  // only right rows remain
    } else if (!rvalid) {
      cmp = -1;
    } else if (lnull) {
      cmp = -1;  // NULL sorts first and never matches: treat as left-smaller
    } else if (rnull) {
      cmp = 1;
    } else {
      cmp = CompareRows(lcur_.block, lcur_.pos, rcur_.block, rcur_.pos,
                        spec_.probe_keys, spec_.build_keys);
    }

    if (cmp < 0) {
      // Left row has no match.
      if (spec_.type == JoinType::kLeft || spec_.type == JoinType::kFull ||
          spec_.type == JoinType::kAnti) {
        for (size_t c = 0; c < lwidth; ++c)
          out->columns[c].AppendFrom(lcur_.block.columns[c], lcur_.pos);
        if (right_output) AppendNullRow(out, lwidth, right_types_);
      }
      ++lcur_.pos;
    } else if (cmp > 0) {
      if (spec_.type == JoinType::kRight || spec_.type == JoinType::kFull) {
        AppendNullRow(out, 0, left_types_);
        for (size_t c = 0; c < right_types_.size(); ++c)
          out->columns[lwidth + c].AppendFrom(rcur_.block.columns[c], rcur_.pos);
      }
      ++rcur_.pos;
    } else {
      // Equal keys: materialize both groups and emit the cross product.
      RowBlock lgroup(left_types_), rgroup(right_types_);
      STRATICA_RETURN_NOT_OK(CollectGroup(&lcur_, spec_.probe_keys, &lgroup));
      STRATICA_RETURN_NOT_OK(CollectGroup(&rcur_, spec_.build_keys, &rgroup));
      if (spec_.type == JoinType::kSemi) {
        for (size_t lr = 0; lr < lgroup.NumRows(); ++lr) {
          for (size_t c = 0; c < lwidth; ++c)
            out->columns[c].AppendFrom(lgroup.columns[c], lr);
        }
      } else if (spec_.type == JoinType::kAnti) {
        // matched: emit nothing
      } else {
        for (size_t lr = 0; lr < lgroup.NumRows(); ++lr) {
          for (size_t rr = 0; rr < rgroup.NumRows(); ++rr) {
            RowBlock* dst = out->NumRows() < ctx_->vector_size ? out : &pending_;
            for (size_t c = 0; c < lwidth; ++c)
              dst->columns[c].AppendFrom(lgroup.columns[c], lr);
            for (size_t c = 0; c < right_types_.size(); ++c)
              dst->columns[lwidth + c].AppendFrom(rgroup.columns[c], rr);
          }
        }
      }
    }
  }
  return Status::OK();
}

Status MergeJoinOperator::Close() {
  STRATICA_RETURN_NOT_OK(left_->Close());
  return right_->Close();
}

std::string MergeJoinOperator::DebugString() const {
  return std::string("JoinMerge(") + JoinTypeName(spec_.type) + ")";
}

}  // namespace stratica
