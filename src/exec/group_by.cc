#include "exec/group_by.h"

#include <algorithm>

#include "common/hash.h"
#include "exec/scheduler.h"

namespace stratica {

uint64_t HashGroupKey(const RowBlock& block, const std::vector<uint32_t>& cols,
                      size_t row) {
  uint64_t h = kGroupKeySeed;
  for (uint32_t c : cols) h = HashCombine(h, block.columns[c].HashEntry(row));
  return h;
}

bool GroupKeyEquals(const RowBlock& a, const std::vector<uint32_t>& cols_a, size_t ra,
                    const RowBlock& b, const std::vector<uint32_t>& cols_b, size_t rb) {
  for (size_t i = 0; i < cols_a.size(); ++i) {
    const ColumnVector& ca = a.columns[cols_a[i]];
    const ColumnVector& cb = b.columns[cols_b[i]];
    if (ca.IsNull(ra) != cb.IsNull(rb)) return false;
    if (!ca.IsNull(ra) && ColumnVector::CompareEntries(ca, ra, cb, rb) != 0)
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// GroupTable

GroupTable::GroupTable(const std::vector<TypeId>& key_types, size_t num_aggs)
    : keys(key_types), key_cols(key_types.size()), num_aggs(num_aggs) {
  for (size_t i = 0; i < key_cols.size(); ++i) key_cols[i] = static_cast<uint32_t>(i);
}

uint32_t GroupTable::Insert(const RowBlock& block, const std::vector<uint32_t>& cols,
                            size_t row, uint64_t h) {
  for (size_t i = 0; i < cols.size(); ++i)
    keys.columns[i].AppendFrom(block.columns[cols[i]], row);
  states.resize(states.size() + num_aggs);
  bytes += 64 + 48 * num_aggs;
  return index.Insert(h);
}

void GroupTable::Clear() {
  keys.Clear();
  states.clear();
  index.Clear();
  bytes = 0;
}

// ---------------------------------------------------------------------------
// GroupByBase

std::vector<TypeId> GroupByBase::KeyTypes() const {
  std::vector<TypeId> types;
  auto child_types = child_->OutputTypes();
  for (uint32_t c : spec_.group_columns) types.push_back(child_types[c]);
  return types;
}

std::vector<TypeId> GroupByBase::OutputTypes() const {
  return GroupByOutputTypes(KeyTypes(), spec_.aggs, spec_.phase);
}

Status GroupByBase::OpenChild(ExecContext* ctx) {
  ctx_ = ctx;
  STRATICA_RETURN_NOT_OK(child_->Open(ctx));
  key_types_ = KeyTypes();
  out_types_ = GroupByOutputTypes(key_types_, spec_.aggs, spec_.phase);
  partial_first_.clear();
  size_t col = key_types_.size();
  for (const AggSpec& agg : spec_.aggs) {
    partial_first_.push_back(col);
    col += agg.PartialTypes().size();
  }
  return Status::OK();
}

GroupByBase::KeyEntries GroupByBase::StartBlock(RowBlock* block) {
  const std::vector<uint32_t>& kc = spec_.group_columns;
  const bool combine = spec_.phase == AggPhase::kCombine;
  KeyEntries entries{block->NumRows(), nullptr, 1};
  if (combine) block->DecodeAll();
  if (kc.empty()) {
    entries = {1, nullptr, block->NumRows()};
  } else if (kc.size() == 1 && block->columns[kc[0]].IsRle()) {
    const ColumnVector& key = block->columns[kc[0]];
    entries = {key.PhysicalSize(), key.runs.data(), 0};
  } else {
    // Several key columns: RLE runs are not row-parallel across them.
    for (uint32_t c : kc) {
      if (block->columns[c].IsRle()) block->columns[c] = block->columns[c].Decoded();
    }
  }
  block_ = block;
  entries_ = entries;
  groups_.resize(entries.count);
  inputs_.clear();
  for (const AggSpec& agg : spec_.aggs) {
    if (combine || agg.kind == AggKind::kCountStar) {
      inputs_.push_back({combine ? InputForm::kPartials : InputForm::kRowCount, nullptr});
      continue;
    }
    const ColumnVector& col = block->columns[agg.input_column];
    inputs_.push_back({col.IsRle()           ? InputForm::kRle
                       : col.IsDictCoded() ? InputForm::kDict
                                           : InputForm::kFlat,
                       &col});
  }
  return entries;
}

void GroupByBase::HashEntries(const RowBlock& block, const KeyEntries& entries) {
  if (entries.runs != nullptr) {  // one RLE key column: hash its runs
    hash_buf_.resize(entries.count);
    HashColumn(block.columns[spec_.group_columns[0]], hash_buf_.data());
    for (uint64_t& h : hash_buf_) h = HashCombine(kGroupKeySeed, h);
  } else if (spec_.group_columns.empty()) {
    hash_buf_.assign(1, kGroupKeySeed);
  } else {
    HashRows(block, spec_.group_columns, kGroupKeySeed, &hash_buf_);
  }
}

void GroupByBase::Fold(GroupTable* t, size_t first, size_t last, size_t row) {
  // Aggregate by aggregate, so each input's form is decided once per call.
  for (size_t a = 0; a < inputs_.size(); ++a) {
    const AggSpec& agg = spec_.aggs[a];
    AggInput& in = inputs_[a];
    // fold(state, begin row, end row) for every entry.
    auto each_entry = [&](auto&& fold) {
      for (size_t e = first, begin = row; e < last; ++e) {
        AggState& st = t->States(groups_[e])[a];
        size_t end = begin + entries_.Rows(e);
        size_t before = st.MemoryBytes();
        fold(st, begin, end);
        t->bytes += st.MemoryBytes() - before;
        begin = end;
      }
    };
    switch (in.form) {
      case InputForm::kPartials:
        each_entry([&](AggState& st, size_t b, size_t e) {
          for (size_t r = b; r < e; ++r)
            st.UpdatePartial(agg, *block_, partial_first_[a], r);
        });
        break;
      case InputForm::kRowCount:
        each_entry([](AggState& st, size_t b, size_t e) {
          st.UpdateCountStar(static_cast<uint32_t>(e - b));
        });
        break;
      case InputForm::kRle:
        // One update per run overlapping the entry, weighted by the overlap.
        each_entry([&](AggState& st, size_t b, size_t e) {
          for (size_t r = b; r < e;) {
            while (in.run_end <= r) in.run_end += in.col->runs[in.next_run++];
            size_t take = std::min(in.run_end, e) - r;
            st.Update(agg, *in.col, in.next_run - 1, static_cast<uint32_t>(take));
            r += take;
          }
        });
        break;
      case InputForm::kDict:
      case InputForm::kFlat:
        each_entry([&](AggState& st, size_t b, size_t e) {
          // Entries at least as long as the dictionary fold once per code.
          if (in.form == InputForm::kDict && e - b >= in.col->dict->PhysicalSize()) {
            FoldCodes(agg, *in.col, b, e, &st);
          } else {
            for (size_t r = b; r < e; ++r) st.Update(agg, *in.col, r, 1);
          }
        });
        break;
    }
  }
}

void GroupByBase::FoldCodes(const AggSpec& agg, const ColumnVector& col, size_t begin,
                            size_t end, AggState* st) {
  const ColumnVector& dict = *col.dict;
  code_counts_.assign(dict.PhysicalSize(), 0);
  for (size_t r = begin; r < end; ++r) {
    if (!col.IsNull(r)) ++code_counts_[static_cast<size_t>(col.ints[r])];
  }
  for (size_t code = 0; code < code_counts_.size(); ++code) {
    if (code_counts_[code] > 0) st->Update(agg, dict, code, code_counts_[code]);
  }
}

void GroupByBase::EmitGroups(const GroupTable& t, size_t begin, size_t end,
                             RowBlock* out) const {
  const size_t k = key_types_.size();
  for (size_t g = begin; g < end; ++g) {
    for (size_t i = 0; i < k; ++i) out->columns[i].AppendFrom(t.keys.columns[i], g);
    const AggState* states = t.States(g);
    for (size_t a = 0; a < spec_.aggs.size(); ++a) {
      if (spec_.phase == AggPhase::kPartial) {
        states[a].EmitPartial(spec_.aggs[a], &out->columns, partial_first_[a]);
      } else {
        out->columns[k + a].Append(states[a].Final(spec_.aggs[a]));
      }
    }
  }
}

void GroupByBase::EmitTable(const GroupTable& t, std::deque<RowBlock>* out) const {
  for (size_t g = 0; g < t.NumGroups(); g += ctx_->vector_size) {
    out->emplace_back(out_types_);
    EmitGroups(t, g, std::min(t.NumGroups(), g + ctx_->vector_size), &out->back());
  }
}

// ---------------------------------------------------------------------------
// HashGroupByOperator

Status HashGroupByOperator::Consume(RowBlock* blockp) {
  KeyEntries entries = StartBlock(blockp);
  const RowBlock& block = *blockp;
  const std::vector<uint32_t>& kc = spec_.group_columns;
  const ColumnVector* key = kc.size() == 1 ? &block.columns[kc[0]] : nullptr;
  const bool by_code = key != nullptr && key->IsDictCoded();
  if (by_code) {
    if (key->dict != code_map_dict_) {
      code_map_dict_ = key->dict;
      code_map_.assign(key->dict->PhysicalSize() + 1, FlatHashTable::kNone);
    }
  } else {
    // Hash every entry once (type-specialized per-column loops), then probe
    // in a batch; only entries that miss or collide walk further.
    HashEntries(block, entries);
    head_buf_.resize(entries.count);
    table_.index.ProbeBatch(hash_buf_.data(), entries.count, head_buf_.data());
  }
  for (size_t e = 0; e < entries.count; ++e) {
    uint32_t group;
    if (by_code) {
      // Only a code's first sight pays the hash lookup (the same dictionary
      // value may already have a group from another block). Last slot: NULL.
      uint32_t& slot = code_map_[key->IsNull(e) ? code_map_.size() - 1
                                                : static_cast<size_t>(key->ints[e])];
      if (slot == FlatHashTable::kNone) {
        uint64_t h = HashGroupKey(block, kc, e);
        slot = table_.FindOrInsert(block, kc, e, h, table_.index.Probe(h));
      }
      group = slot;
    } else {
      group = table_.FindOrInsert(block, kc, e, hash_buf_[e], head_buf_[e]);
    }
    groups_[e] = group;
  }
  Fold(&table_, 0, entries.count, 0);
  // Encoded rows: every row of an RLE or dict-coded key; without GROUP BY,
  // every row once per RLE or dict-coded aggregate input.
  if (ctx_->stats && spec_.phase != AggPhase::kCombine) {
    uint64_t n = block.NumRows(), encoded = 0;
    if (kc.empty()) {
      for (const AggSpec& agg : spec_.aggs) {
        if (agg.kind != AggKind::kCountStar && !block.columns[agg.input_column].IsFlat())
          encoded += n;
      }
    } else if (entries.runs != nullptr ||
               std::any_of(block.columns.begin(), block.columns.end(),
                           [](const ColumnVector& c) { return c.IsDictCoded(); })) {
      encoded = n;
    }
    if (encoded > 0) ctx_->stats->rows_processed_encoded.fetch_add(encoded);
  }
  // Externalize when over budget: flush groups (key + serialized states) to
  // grace partitions by key hash.
  if (ctx_->budget && table_.bytes > 0 &&
      static_cast<int64_t>(table_.bytes) > ctx_->budget->available()) {
    return SpillTable();
  }
  return Status::OK();
}

Status HashGroupByOperator::SpillTable() {
  if (partitions_.empty()) {
    for (size_t p = 0; p < kSpillPartitions; ++p) {
      partitions_.push_back(
          std::make_unique<SpillWriter>(ctx_->fs, ctx_->NextSpillPath()));
    }
  }
  std::vector<RowBlock> per_part(kSpillPartitions, RowBlock(spill_types_));
  const size_t k = key_types_.size();
  HashRows(table_.keys, table_.key_cols, kGroupKeySeed, &hash_buf_);
  hash_buf_.resize(table_.NumGroups(), kGroupKeySeed);  // no key: the global group
  for (size_t g = 0; g < table_.NumGroups(); ++g) {
    RowBlock& dst = per_part[(hash_buf_[g] >> 32) % kSpillPartitions];
    for (size_t i = 0; i < k; ++i) dst.columns[i].AppendFrom(table_.keys.columns[i], g);
    for (size_t a = 0; a < spec_.aggs.size(); ++a) {
      dst.columns[k + a].strings.push_back(table_.States(g)[a].Serialize(spec_.aggs[a]));
    }
  }
  for (size_t p = 0; p < kSpillPartitions; ++p) {
    if (per_part[p].NumRows() == 0) continue;
    STRATICA_RETURN_NOT_OK(partitions_[p]->Append(per_part[p]));
    if (ctx_->stats) ctx_->stats->rows_spilled.fetch_add(per_part[p].NumRows());
  }
  table_ = NewTable();
  // Group ids restarted with the table: the dict-code cache is stale.
  code_map_dict_.reset();
  code_map_.clear();
  return Status::OK();
}

Status HashGroupByOperator::MergePartition(SpillWriter* part, std::deque<RowBlock>* out) {
  SpillReader reader(ctx_->fs, part->path(), spill_types_);
  STRATICA_RETURN_NOT_OK(reader.Open());
  GroupTable merged = NewTable();
  const size_t k = key_types_.size();
  std::vector<uint64_t> hashes;  // per-task: hash_buf_ is not shareable
  for (;;) {
    RowBlock rec;
    STRATICA_RETURN_NOT_OK(reader.Next(&rec));
    if (rec.NumRows() == 0) break;
    HashRows(rec, merged.key_cols, kGroupKeySeed, &hashes);
    for (size_t r = 0; r < rec.NumRows(); ++r) {
      uint32_t group = merged.FindOrInsert(rec, merged.key_cols, r, hashes[r],
                                           merged.index.Probe(hashes[r]));
      for (size_t a = 0; a < spec_.aggs.size(); ++a) {
        STRATICA_ASSIGN_OR_RETURN(
            AggState st, AggState::Parse(spec_.aggs[a], rec.columns[k + a].strings[r]));
        merged.States(group)[a].Merge(spec_.aggs[a], st);
      }
    }
  }
  EmitTable(merged, out);
  return Status::OK();
}

Status HashGroupByOperator::Open(ExecContext* ctx) {
  STRATICA_RETURN_NOT_OK(OpenChild(ctx));
  table_ = NewTable();
  spill_types_ = key_types_;
  spill_types_.resize(key_types_.size() + spec_.aggs.size(), TypeId::kString);
  output_.clear();
  partitions_.clear();
  code_map_dict_.reset();
  code_map_.clear();
  for (;;) {
    RowBlock block;
    STRATICA_RETURN_NOT_OK(child_->GetNext(&block));
    if (block.NumRows() == 0) break;
    STRATICA_RETURN_NOT_OK(Consume(&block));
  }

  if (partitions_.empty()) {
    EmitTable(table_, &output_);
  } else {
    // Flush the tail, then merge the grace partitions. Partitions are
    // hash-disjoint — no group spans two — so they re-aggregate as
    // independent tasks on the query's worker pool (DESIGN.md §12); outputs
    // splice back in partition order, keeping emission deterministic.
    STRATICA_RETURN_NOT_OK(SpillTable());
    for (auto& part : partitions_) STRATICA_RETURN_NOT_OK(part->Finish());
    std::vector<std::deque<RowBlock>> part_out(partitions_.size());
    std::vector<Status> part_status(partitions_.size());
    auto merge_one = [&](size_t p) {
      part_status[p] = MergePartition(partitions_[p].get(), &part_out[p]);
    };
    if (ctx_->scheduler != nullptr && ctx_->intra_node_parallelism > 1) {
      Scheduler::TaskSet tasks(ctx_->scheduler);
      for (size_t p = 0; p < partitions_.size(); ++p)
        tasks.Submit([&merge_one, p] { merge_one(p); });
      tasks.Wait();
    } else {
      for (size_t p = 0; p < partitions_.size(); ++p) merge_one(p);
    }
    for (size_t p = 0; p < partitions_.size(); ++p) {
      STRATICA_RETURN_NOT_OK(part_status[p]);
      for (auto& block : part_out[p]) output_.push_back(std::move(block));
      (void)ctx_->fs->Delete(partitions_[p]->path());
    }
  }
  // SQL: aggregation without GROUP BY yields exactly one row even over
  // empty input (COUNT(*) = 0, SUM = NULL, ...): emit one fresh group.
  if (spec_.group_columns.empty() && output_.empty() &&
      spec_.phase != AggPhase::kPartial) {
    table_ = NewTable();
    table_.Insert(RowBlock(), {}, 0, kGroupKeySeed);
    EmitTable(table_, &output_);
  }
  table_ = GroupTable();
  return Status::OK();
}

Status HashGroupByOperator::GetNext(RowBlock* out) {
  if (output_.empty()) {
    *out = RowBlock(out_types_);
    return Status::OK();
  }
  *out = std::move(output_.front());
  output_.pop_front();
  return Status::OK();
}

std::string HashGroupByOperator::DebugString() const {
  std::string s = "GroupByHash(keys: " + std::to_string(spec_.group_columns.size());
  s += ", aggs:";
  for (const auto& a : spec_.aggs) s += std::string(" ") + AggKindName(a.kind);
  switch (spec_.phase) {
    case AggPhase::kSingle: break;
    case AggPhase::kPartial: s += ", partial"; break;
    case AggPhase::kCombine: s += ", combine"; break;
  }
  return s + ")";
}

// ---------------------------------------------------------------------------
// PipelinedGroupByOperator

Status PipelinedGroupByOperator::Open(ExecContext* ctx) {
  STRATICA_RETURN_NOT_OK(OpenChild(ctx));
  table_ = NewTable();
  input_done_ = false;
  runs_consumed_ = 0;
  return Status::OK();
}

Status PipelinedGroupByOperator::GetNext(RowBlock* out) {
  *out = RowBlock(out_types_);
  const std::vector<uint32_t>& kc = spec_.group_columns;
  while (!input_done_ && out->NumRows() < ctx_->vector_size) {
    RowBlock block;
    STRATICA_RETURN_NOT_OK(child_->GetNext(&block));
    if (block.NumRows() == 0) {
      input_done_ = true;
      break;
    }
    // Sorted input: an entry opens a new group exactly when its key differs
    // from the last group's — compared once per run on a single RLE key.
    KeyEntries entries = StartBlock(&block);
    if (entries.runs != nullptr) runs_consumed_ += entries.count;
    for (size_t e = 0; e < entries.count; ++e) {
      size_t n = table_.NumGroups();
      bool same =
          n > 0 && GroupKeyEquals(table_.keys, table_.key_cols, n - 1, block, kc, e);
      groups_[e] = same ? static_cast<uint32_t>(n - 1) : table_.Insert(block, kc, e, 0);
    }
    Fold(&table_, 0, entries.count, 0);
    // Every group but the last is complete; the last may continue into the
    // next block, so it carries over as group 0.
    size_t last = table_.NumGroups() - 1;
    EmitGroups(table_, 0, last, out);
    if (last > 0) {
      GroupTable carry = NewTable();
      carry.Insert(table_.keys, table_.key_cols, last, 0);
      std::move(table_.States(last), table_.States(last) + spec_.aggs.size(),
                carry.States(0));
      table_ = std::move(carry);
    }
  }
  if (input_done_ && table_.NumGroups() > 0) {
    EmitGroups(table_, 0, table_.NumGroups(), out);
    table_.Clear();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// PrepassGroupByOperator

Status PrepassGroupByOperator::Open(ExecContext* ctx) {
  STRATICA_RETURN_NOT_OK(OpenChild(ctx));
  table_ = NewTable();
  table_.index.Reserve(capacity_);
  output_.clear();
  input_done_ = false;
  rows_in_ = rows_out_ = flushes_ = 0;
  disabled_ = false;
  return Status::OK();
}

void PrepassGroupByOperator::Flush() {
  if (table_.NumGroups() == 0) return;
  rows_out_ += table_.NumGroups();
  EmitTable(table_, &output_);
  table_.Clear();
  ++flushes_;
  // Runtime shutoff check: a prepass that emits nearly as many rows as it
  // consumes is pure overhead.
  if (!disabled_ && flushes_ >= 3 && rows_out_ * 10 > rows_in_ * 9) {
    disabled_ = true;
    if (ctx_->stats) ctx_->stats->prepass_disabled.fetch_add(1);
  }
}

Status PrepassGroupByOperator::GetNext(RowBlock* out) {
  *out = RowBlock(out_types_);
  const std::vector<uint32_t>& kc = spec_.group_columns;
  while (output_.empty() && !input_done_) {
    RowBlock block;
    STRATICA_RETURN_NOT_OK(child_->GetNext(&block));
    if (block.NumRows() == 0) {
      input_done_ = true;
      Flush();
      break;
    }
    rows_in_ += block.NumRows();
    KeyEntries entries = StartBlock(&block);
    if (disabled_) {
      // Passthrough: every key entry becomes its own partial row.
      GroupTable pass = NewTable();
      for (size_t e = 0; e < entries.count; ++e)
        groups_[e] = pass.Insert(block, kc, e, 0);
      Fold(&pass, 0, entries.count, 0);
      rows_out_ += pass.NumGroups();
      EmitTable(pass, &output_);
      break;
    }
    HashEntries(block, entries);
    size_t first = 0, first_row = 0;  // first entry (and its row) not yet folded
    for (size_t e = 0, row = 0; e < entries.count; row += entries.Rows(e++)) {
      uint64_t h = hash_buf_[e];
      uint32_t group = table_.Find(block, kc, e, h, table_.index.Probe(h));
      if (group == FlatHashTable::kNone) {
        if (table_.NumGroups() >= capacity_) {
          // Table full: fold what is mapped, emit it and start afresh (§6.1).
          Fold(&table_, first, e, first_row);
          first = e;
          first_row = row;
          Flush();
        }
        group = table_.Insert(block, kc, e, h);
      }
      groups_[e] = group;
    }
    Fold(&table_, first, entries.count, first_row);
  }
  if (!output_.empty()) {
    *out = std::move(output_.front());
    output_.pop_front();
  }
  return Status::OK();
}

std::string PrepassGroupByOperator::DebugString() const {
  return "GroupByPrepass(capacity: " + std::to_string(capacity_) +
         (disabled_ ? ", disabled at runtime)" : ")");
}

}  // namespace stratica
