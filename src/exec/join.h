// Join operators (Section 6.1 #3): hash join and merge join, both able to
// externalize; all of INNER, LEFT/RIGHT/FULL OUTER, SEMI and ANTI.
//
// The hash join builds from its inner (right) child. When the build side
// exceeds the memory budget the engine switches algorithms at runtime —
// "if Vertica determines at runtime the hash table for a hash join will not
// fit in memory, we will perform a sort-merge join instead" — by spooling
// the build side to disk and delegating to a MergeJoin over sorted inputs.
//
// After a successful in-memory build, the join publishes a SIP filter
// (Sideways Information Passing) that probe-side scans use to drop rows
// that cannot join, as early as possible in the plan.
//
// Both the serial build and the morsel-shared build collect every build row
// first and then index them once through JoinIndex, which also fills the
// SIP. A single integer-class key whose values span at most 4x the key
// count is indexed directly by key offset and publishes a bitmap SIP;
// every other key set is hashed into FlatHashTables and publishes a hash
// set (DESIGN.md §5). The choice is made at run time from the keys the
// build received; there is no knob.
#ifndef STRATICA_EXEC_JOIN_H_
#define STRATICA_EXEC_JOIN_H_

#include <algorithm>
#include <mutex>

#include "exec/hash_table.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "exec/simple_ops.h"

namespace stratica {

enum class JoinType : uint8_t { kInner, kLeft, kRight, kFull, kSemi, kAnti };

const char* JoinTypeName(JoinType t);

struct JoinSpec {
  JoinType type = JoinType::kInner;
  std::vector<uint32_t> probe_keys;  ///< outer (left) child key columns
  std::vector<uint32_t> build_keys;  ///< inner (right) child key columns
  /// SIP filter to publish once the hash table is built (may be null; the
  /// optimizer only installs one when the join type allows filtering).
  std::shared_ptr<SipFilter> sip;
};

/// \brief Key index over a hash join's build rows, shared by the serial
/// build (HashJoinOperator) and the morsel fan-out build (SharedJoinBuild)
/// so the two plans index and publish SIP filters identically.
///
/// Built once over all build rows, with their count known. With a single
/// integer-class key whose non-NULL values span at most kDirectSpanFactor x
/// the non-NULL key count, rows are indexed *directly*: head_[key - min]
/// is the first build row with that key and next_[row] chains duplicates,
/// so resolving a probe row is one subtract, one bounds check and one load,
/// and every candidate equals the probe key. Otherwise rows go into
/// `shards` FlatHashTables keyed by the full key hash (shard = high hash
/// bits); their candidates only share a hash, so the caller re-checks key
/// equality. Either way candidates are rows() indexes, NULL-key rows are
/// never linked, and equal keys chain most recently inserted first.
///
/// The 4x rule needs no tuning: the direct index costs 4 B per span slot
/// plus 4 B per row, so at most 20 B per key, while a hashed row costs over
/// 32 B (a 16 B directory slot at load <= 7/8, an 8 B entry hash, a 4 B
/// table chain link and a 4 B row id, besides the shared 4 B next_ link).
class JoinIndex {
 public:
  static constexpr uint32_t kNone = FlatHashTable::kNone;
  static constexpr uint64_t kDirectSpanFactor = 4;

  /// Index `rows` (flat) on `keys`. `shards` (a power of two) splits the
  /// hash path into parallel insert tasks on ctx->scheduler for large
  /// inputs. When `sip` is set it is filled — bitmap for a direct index,
  /// hash set plus range otherwise — and marked ready. Counts
  /// ExecStats::direct_join_builds.
  void Build(const RowBlock& rows, const std::vector<uint32_t>& keys, size_t shards,
             ExecContext* ctx, SipFilter* sip);

  /// True when candidates need no key-equality re-check.
  bool direct() const { return direct_; }

  /// heads[r] = first candidate build row for row r of the flat `probe`
  /// block, or kNone (no candidate or a NULL key). The scratch vectors are
  /// the caller's, reused across blocks.
  void ProbeHeads(const RowBlock& probe, const std::vector<uint32_t>& keys,
                  std::vector<uint64_t>* hash_scratch,
                  std::vector<uint8_t>* null_scratch,
                  std::vector<uint32_t>* heads) const;

  /// Next candidate after build row `row` (kNone terminates).
  uint32_t Next(uint32_t row) const { return next_[row]; }

 private:
  struct Shard {
    FlatHashTable table;         ///< local dense entry ids
    std::vector<uint32_t> rows;  ///< local entry id -> build row
  };

  void BuildDirect(const ColumnVector& key, SipFilter* sip);
  void BuildHashed(const RowBlock& rows, const std::vector<uint32_t>& keys,
                   size_t shards, ExecContext* ctx, SipFilter* sip);

  bool direct_ = false;
  std::vector<uint32_t> next_;  ///< build row -> next candidate (both paths)
  // Direct path.
  int64_t min_ = 0;
  uint64_t span_ = 0;           ///< max - min + 1 (0: no non-NULL key)
  std::vector<uint32_t> head_;  ///< key - min -> first build row
  // Hash path.
  std::vector<Shard> shards_;
  size_t shard_mask_ = 0;
};

/// \brief Hash-join build side shared by sibling morsel fragments
/// (DESIGN.md §12): the inner table of one scan unit is read and hashed
/// once, not once per fragment.
///
/// The first fragment to Open executes the build under the lock: it pulls
/// the owned build child to completion, then indexes the rows with a
/// JoinIndex — hashed into `fanout`-sharded FlatHashTables with one
/// work-stealing task per shard on the query's Scheduler (shard = high hash
/// bits, so a probe derives its shard from the key hash alone and only ever
/// reads one shard), or indexed directly for small-span integer keys. Later
/// fragments block until the build resolves and probe the index read-only.
/// NULL-key rows are dropped at build time — shared builds never serve
/// RIGHT/FULL joins, the only types that emit unmatched build rows (they
/// would also race the matched-bit array across fragments; the planner
/// keeps such plans serial). If the accumulated build side exceeds the
/// memory budget, the rows are spooled to a single spill file and every
/// fragment independently switches to a sort-merge join over it (each
/// fragment's probe subset against the full build unions to the exact
/// per-unit result).
class SharedJoinBuild {
 public:
  /// `spec` carries the build keys and, for the pipeline that owns SIP
  /// publication, the SIP filter to fill. `fanout` = number of fragments
  /// that will share this build (also the shard-parallelism target).
  SharedJoinBuild(OperatorPtr build, JoinSpec spec, size_t fanout);

  /// Run or await the build; every fragment calls this from Open and shares
  /// the first caller's status.
  Status Ensure(ExecContext* ctx);
  /// Last fragment to close releases the build's budget reservation.
  void FragmentClosed(ExecContext* ctx);

  /// Valid after Ensure: the build exceeded its budget and lives in
  /// spill_path() instead of rows()/index().
  bool spilled() const { return !spill_path_.empty(); }
  const std::string& spill_path() const { return spill_path_; }
  const RowBlock& rows() const { return rows_; }
  const JoinIndex& index() const { return index_; }
  size_t fanout() const { return fanout_; }
  Operator* child() const { return build_.get(); }
  std::vector<TypeId> OutputTypes() const { return build_->OutputTypes(); }
  std::vector<std::string> OutputNames() const { return build_->OutputNames(); }

 private:
  Status Build(ExecContext* ctx);  ///< caller holds mu_

  OperatorPtr build_;
  JoinSpec spec_;
  const size_t fanout_;
  std::mutex mu_;
  bool done_ = false;  ///< guarded by mu_, as is everything below until set
  Status status_;
  std::string spill_path_;
  RowBlock rows_;
  JoinIndex index_;
  size_t num_shards_ = 1;      ///< hash-path shards: fanout rounded up to 2^k
  size_t bytes_ = 0;           ///< budget reservation held until last close
  size_t open_fragments_;      ///< fragments that have not closed yet
};

/// \brief Hash join (Section 6.1 #3): consumes the inner child, indexes it
/// once with a JoinIndex, then streams the probe side with batched probe
/// passes.
/// Externalizes by switching to a sort-merge join at runtime when the build
/// would not fit, and publishes a SIP filter after an in-memory build. In
/// morsel-fragment plans the build is a SharedJoinBuild owned jointly with
/// sibling fragments; only the probe side is per-fragment.
class HashJoinOperator : public Operator {
 public:
  HashJoinOperator(OperatorPtr probe, OperatorPtr build, JoinSpec spec)
      : probe_(std::move(probe)), build_(std::move(build)), spec_(std::move(spec)) {}

  /// Morsel-fragment variant (DESIGN.md §12): probe against a build shared
  /// with sibling fragments. `show_build` lets exactly one fragment expose
  /// the build subtree via Children() so EXPLAIN and plan-memory estimation
  /// count it once.
  HashJoinOperator(OperatorPtr probe, std::shared_ptr<SharedJoinBuild> shared,
                   JoinSpec spec, bool show_build = false)
      : probe_(std::move(probe)),
        spec_(std::move(spec)),
        shared_(std::move(shared)),
        show_build_(show_build) {}

  Status Open(ExecContext* ctx) override;
  Status GetNext(RowBlock* out) override;
  Status Close() override;
  std::vector<TypeId> OutputTypes() const override;
  std::vector<std::string> OutputNames() const override;
  std::string DebugString() const override;
  std::vector<Operator*> Children() const override;
  size_t MemoryEstimateBytes() const override {
    // Build-side rows + hash table up to the spill-to-merge threshold. A
    // shared build is one table split across `fanout` sibling operators, so
    // each fragment accounts a slice and the unit totals what one serial
    // join would have reserved.
    size_t e = 8 << 20;
    return shared_ ? std::max<size_t>(e / shared_->fanout(), 64 << 10) : e;
  }

  bool switched_to_merge() const { return fallback_ != nullptr; }

 private:
  Status BuildTable();
  Status EmitUnmatchedBuild(RowBlock* out);

  OperatorPtr probe_, build_;  ///< build_ null when shared_ is set
  JoinSpec spec_;
  std::shared_ptr<SharedJoinBuild> shared_;
  bool show_build_ = false;
  ExecContext* ctx_ = nullptr;

  RowBlock build_rows_;
  JoinIndex index_;  ///< candidates are build_rows_ row indexes
  std::vector<uint8_t> build_matched_;
  size_t build_bytes_ = 0;
  std::vector<uint64_t> hash_buf_;  // batched probe key hashes
  std::vector<uint32_t> head_buf_;  // batched probe chain heads
  std::vector<uint8_t> null_key_buf_;

  RowBlock probe_block_;
  size_t probe_cursor_ = 0;
  bool probe_done_ = false;
  size_t unmatched_cursor_ = 0;
  bool emitting_unmatched_ = false;

  OperatorPtr fallback_;  ///< merge-join pipeline after a runtime switch
};

/// \brief Merge join over inputs sorted ascending on the join keys.
class MergeJoinOperator : public Operator {
 public:
  MergeJoinOperator(OperatorPtr left, OperatorPtr right, JoinSpec spec)
      : left_(std::move(left)), right_(std::move(right)), spec_(std::move(spec)) {}

  Status Open(ExecContext* ctx) override;
  Status GetNext(RowBlock* out) override;
  Status Close() override;
  std::vector<TypeId> OutputTypes() const override;
  std::vector<std::string> OutputNames() const override;
  std::string DebugString() const override;
  std::vector<Operator*> Children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  /// Buffered cursor over a child's stream.
  struct Cursor {
    Operator* op = nullptr;
    RowBlock block;
    size_t pos = 0;
    bool done = false;

    Status Refill();
    bool Valid() const { return !done; }
  };

  /// Collect all consecutive rows equal to the current row's keys.
  Status CollectGroup(Cursor* cur, const std::vector<uint32_t>& keys, RowBlock* group);

  OperatorPtr left_, right_;
  JoinSpec spec_;
  ExecContext* ctx_ = nullptr;
  Cursor lcur_, rcur_;
  std::vector<TypeId> left_types_, right_types_;
  RowBlock pending_;  ///< cross-product overflow buffer
  size_t pending_cursor_ = 0;
};

/// \brief Operator reading back a spill file (used by the hash->merge
/// runtime switch).
class SpillSourceOperator : public Operator {
 public:
  SpillSourceOperator(std::string path, std::vector<TypeId> types,
                      std::vector<std::string> names)
      : path_(std::move(path)), types_(std::move(types)), names_(std::move(names)) {}

  Status Open(ExecContext* ctx) override {
    reader_ = std::make_unique<SpillReader>(ctx->fs, path_, types_);
    return reader_->Open();
  }
  Status GetNext(RowBlock* out) override { return reader_->Next(out); }
  Status Close() override { return Status::OK(); }
  std::vector<TypeId> OutputTypes() const override { return types_; }
  std::vector<std::string> OutputNames() const override { return names_; }
  std::string DebugString() const override { return "SpillSource(" + path_ + ")"; }

 private:
  std::string path_;
  std::vector<TypeId> types_;
  std::vector<std::string> names_;
  std::unique_ptr<SpillReader> reader_;
};

}  // namespace stratica

#endif  // STRATICA_EXEC_JOIN_H_
