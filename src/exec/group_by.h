// GroupBy operators (Section 6.1 #2): several algorithms chosen by the
// optimizer for maximal performance —
//   HashGroupBy      general case; externalizes to grace partitions when
//                    over its memory budget.
//   PipelinedGroupBy one-pass aggregation over input sorted on the group
//                    keys: a group closes as soon as the key changes.
//   PrepassGroupBy   L1-cache-sized hash table placed right above scans to
//                    cheaply reduce data early; emits partials when full
//                    and disables itself at runtime when it stops reducing.
//
// The three differ only in how they map a block's rows to groups; the rest
// is shared (DESIGN.md §13). A block splits into key entries — the whole
// block when there are no group columns, each run of a single RLE group
// column, else each row — so an RLE key is looked up once per run. Each
// flavor maps each entry to a group of its GroupTable (hash probe,
// dictionary-code cache, or "same key as the last group"); one Fold then
// folds every entry's rows into its group's states, RLE inputs by run and
// dict-coded inputs by code, and one EmitGroups turns groups into rows.
#ifndef STRATICA_EXEC_GROUP_BY_H_
#define STRATICA_EXEC_GROUP_BY_H_

#include <deque>

#include "exec/agg.h"
#include "exec/hash_table.h"
#include "exec/operator.h"
#include "exec/spill.h"

namespace stratica {

/// Shared helper: do two key rows match exactly?
bool GroupKeyEquals(const RowBlock& a, const std::vector<uint32_t>& cols_a, size_t ra,
                    const RowBlock& b, const std::vector<uint32_t>& cols_b, size_t rb);

struct GroupBySpec {
  std::vector<uint32_t> group_columns;  ///< child output column indexes
  std::vector<AggSpec> aggs;
  AggPhase phase = AggPhase::kSingle;
  std::vector<std::string> output_names;  ///< group names then agg names
};

/// \brief Groups under aggregation: a key row and one AggState per aggregate
/// for each group. Group ids are dense in insertion order and equal the
/// entry ids of `index`, which finds a key's group by its hash.
struct GroupTable {
  GroupTable() = default;
  GroupTable(const std::vector<TypeId>& key_types, size_t num_aggs);

  size_t NumGroups() const { return index.NumEntries(); }
  AggState* States(size_t g) { return states.data() + g * num_aggs; }
  const AggState* States(size_t g) const { return states.data() + g * num_aggs; }

  /// The group keyed like `cols` of `block` at physical entry `row` (key
  /// hash `h`), or FlatHashTable::kNone. `head` is a chain head probed for
  /// `h` earlier — possibly before groups were added since.
  uint32_t Find(const RowBlock& block, const std::vector<uint32_t>& cols, size_t row,
                uint64_t h, uint32_t head) const {
    // Chains grow at the front, so groups added since `head` was probed sit
    // before it in the current chain: walk the old chain, then the new front.
    uint32_t g = Walk(head, FlatHashTable::kNone, block, cols, row);
    return g != FlatHashTable::kNone ? g : Walk(index.Probe(h), head, block, cols, row);
  }
  /// Add a group keyed like `cols` of `block` at `row`, without a lookup.
  uint32_t Insert(const RowBlock& block, const std::vector<uint32_t>& cols, size_t row,
                  uint64_t h);
  uint32_t FindOrInsert(const RowBlock& block, const std::vector<uint32_t>& cols,
                        size_t row, uint64_t h, uint32_t head) {
    uint32_t g = Find(block, cols, row, h, head);
    return g != FlatHashTable::kNone ? g : Insert(block, cols, row, h);
  }
  /// Drop every group, keeping allocations.
  void Clear();

  RowBlock keys;                   ///< group g's key is row g
  std::vector<AggState> states;    ///< group g's states: [g * num_aggs, +num_aggs)
  FlatHashTable index;
  std::vector<uint32_t> key_cols;  ///< 0..k-1: the columns of `keys`
  size_t num_aggs = 0;
  size_t bytes = 0;                ///< memory charged against the spill budget

 private:
  uint32_t Walk(uint32_t e, uint32_t stop, const RowBlock& block,
                const std::vector<uint32_t>& cols, size_t row) const {
    for (; e != stop; e = index.Next(e)) {
      if (GroupKeyEquals(keys, key_cols, e, block, cols, row)) return e;
    }
    return FlatHashTable::kNone;
  }
};

/// \brief What the three GroupBy flavors share: the layout fixed at Open,
/// the split of a block into key entries, the fold of entries into group
/// states, and group emission. Each flavor adds only its mapping of entries
/// to groups.
class GroupByBase : public Operator {
 public:
  Status Close() override { return child_->Close(); }
  std::vector<TypeId> OutputTypes() const override;
  std::vector<std::string> OutputNames() const override { return spec_.output_names; }
  std::vector<Operator*> Children() const override { return {child_.get()}; }

 protected:
  GroupByBase(OperatorPtr child, GroupBySpec spec)
      : child_(std::move(child)), spec_(std::move(spec)) {}

  /// Entries of a block that each carry one key: entry e covers the next
  /// Rows(e) rows, and physical entry e of every group column is its key.
  struct KeyEntries {
    size_t count;
    const uint32_t* runs;  ///< rows per entry, or nullptr: `rows_each` each
    size_t rows_each;
    size_t Rows(size_t e) const { return runs ? runs[e] : rows_each; }
  };

  /// Fix the layout (key and output types, partial-column offsets) and open
  /// the child.
  Status OpenChild(ExecContext* ctx);
  GroupTable NewTable() const { return GroupTable(key_types_, spec_.aggs.size()); }
  /// Start folding `block` and split it into key entries: flattens RLE group
  /// columns unless the block has a single one (entries are then its runs),
  /// and the whole block in the combine phase. The block must not change
  /// until its last Fold. Sizes groups_ to the entry count.
  KeyEntries StartBlock(RowBlock* block);
  /// hash_buf_[e] = key hash of entry e (seed kGroupKeySeed).
  void HashEntries(const RowBlock& block, const KeyEntries& entries);
  /// Fold key entries [first, last) of the block being folded — entry
  /// `first` starts at row `row` — into the states of their groups_ in `t`,
  /// charging state growth to `t->bytes`.
  void Fold(GroupTable* t, size_t first, size_t last, size_t row);
  /// Append groups [begin, end) of `t` to `out` as output rows.
  void EmitGroups(const GroupTable& t, size_t begin, size_t end, RowBlock* out) const;
  /// Append all groups of `t` to `out` in blocks of at most vector_size.
  void EmitTable(const GroupTable& t, std::deque<RowBlock>* out) const;

  OperatorPtr child_;
  GroupBySpec spec_;
  ExecContext* ctx_ = nullptr;
  std::vector<TypeId> key_types_;
  std::vector<TypeId> out_types_;
  /// First column of each agg's partials: in partial output, and in the
  /// input of the combine phase.
  std::vector<size_t> partial_first_;
  std::vector<uint64_t> hash_buf_;  // per-block entry hashes
  std::vector<uint32_t> groups_;    // per-block entry groups, for Fold

 private:
  std::vector<TypeId> KeyTypes() const;
  /// Fold dict-coded rows [begin, end) into `st`: one update per code
  /// present, in code order, weighted by its count.
  void FoldCodes(const AggSpec& agg, const ColumnVector& col, size_t begin, size_t end,
                 AggState* st);

  /// How an aggregate reads the block being folded, fixed by StartBlock.
  enum class InputForm : uint8_t { kPartials, kRowCount, kRle, kDict, kFlat };
  struct AggInput {
    InputForm form;
    const ColumnVector* col;  // kRle / kDict / kFlat
    size_t next_run = 0;      // kRle: run after the current one...
    size_t run_end = 0;       // ...and the row after the current run
  };
  const RowBlock* block_ = nullptr;  // the block being folded
  KeyEntries entries_{};             // ...and its key entries
  std::vector<AggInput> inputs_;     // per agg
  std::vector<uint32_t> code_counts_;  // per dictionary code, for FoldCodes
};

/// \brief Hash aggregation with grace-partition externalization. When the
/// table exceeds its budget, groups spill to 16 hash-disjoint partitions;
/// at end of input the partitions merge back — as independent work-stealing
/// tasks on the query's Scheduler when one is installed (DESIGN.md §12),
/// since no group can span two partitions.
class HashGroupByOperator : public GroupByBase {
 public:
  HashGroupByOperator(OperatorPtr child, GroupBySpec spec)
      : GroupByBase(std::move(child), std::move(spec)) {}

  Status Open(ExecContext* ctx) override;
  Status GetNext(RowBlock* out) override;
  std::string DebugString() const override;
  size_t MemoryEstimateBytes() const override {
    // Hash table + group keys/states up to the grace-spill threshold.
    return 8 << 20;
  }

 private:
  /// Map one block's key entries to groups and fold it in (DESIGN.md §13):
  /// a single dict-coded group column resolves codes through a cache, every
  /// other key form hashes its entries and probes them in one batch. Spills
  /// when over budget.
  Status Consume(RowBlock* block);
  Status SpillTable();
  /// Re-aggregate one grace partition into `out`. Touches only the
  /// partition's own reader/table/buffers, so partitions merge in parallel.
  Status MergePartition(SpillWriter* part, std::deque<RowBlock>* out);

  GroupTable table_;
  std::vector<TypeId> spill_types_;  // key columns, then one state per agg
  std::vector<uint32_t> head_buf_;   // per-block batched probe results
  /// Dense code→group-id cache for a dict-coded key, valid while the blocks'
  /// dictionary pointer stays `code_map_dict_` (the shared_ptr keeps it
  /// alive, so pointer identity is a safe key). Last slot = the NULL group.
  /// Invalidated on spill (group ids reset with the table).
  std::shared_ptr<const ColumnVector> code_map_dict_;
  std::vector<uint32_t> code_map_;
  static constexpr size_t kSpillPartitions = 16;
  std::vector<std::unique_ptr<SpillWriter>> partitions_;
  std::deque<RowBlock> output_;
};

/// \brief One-pass aggregation over key-sorted input; consumes RLE runs on
/// the group column directly when possible.
class PipelinedGroupByOperator : public GroupByBase {
 public:
  PipelinedGroupByOperator(OperatorPtr child, GroupBySpec spec)
      : GroupByBase(std::move(child), std::move(spec)) {}

  Status Open(ExecContext* ctx) override;
  Status GetNext(RowBlock* out) override;
  std::string DebugString() const override { return "GroupByPipelined"; }

  uint64_t runs_consumed() const { return runs_consumed_; }

 private:
  GroupTable table_;  // groups of the current block; the last one is open
  bool input_done_ = false;
  uint64_t runs_consumed_ = 0;
};

/// \brief Prepass partial aggregation (always AggPhase::kPartial output).
class PrepassGroupByOperator : public GroupByBase {
 public:
  PrepassGroupByOperator(OperatorPtr child, GroupBySpec spec,
                         size_t capacity = 4096)
      : GroupByBase(std::move(child), std::move(spec)), capacity_(capacity) {
    spec_.phase = AggPhase::kPartial;
  }

  Status Open(ExecContext* ctx) override;
  Status GetNext(RowBlock* out) override;
  std::string DebugString() const override;

  bool disabled() const { return disabled_; }

 private:
  void Flush();  // move table contents into output_

  size_t capacity_;
  GroupTable table_;
  std::deque<RowBlock> output_;
  bool input_done_ = false;

  // Runtime shutoff: stop prepassing when not reducing (Section 6.1).
  uint64_t rows_in_ = 0, rows_out_ = 0, flushes_ = 0;
  bool disabled_ = false;
};

/// Scalar reference for the batched HashRows(block, cols, kGroupKeySeed)
/// path: hash of the group-key columns of one row. Hot loops use HashRows;
/// this stays as the executable spec (tests assert batch == scalar).
uint64_t HashGroupKey(const RowBlock& block, const std::vector<uint32_t>& cols,
                      size_t row);

}  // namespace stratica

#endif  // STRATICA_EXEC_GROUP_BY_H_
