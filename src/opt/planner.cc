#include "opt/planner.h"

#include <algorithm>
#include <functional>
#include <set>

#include "exec/exchange.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "exec/scan.h"
#include "exec/simple_ops.h"

namespace stratica {

namespace {

/// A materialize-once broadcast: every consumer replays the same blocks
/// (used for the inner side of non-co-located joins).
class BroadcastState {
 public:
  explicit BroadcastState(OperatorPtr child) : child_(std::move(child)) {}

  Status Materialize(ExecContext* ctx) {
    std::lock_guard lock(mu_);
    if (done_) return status_;
    done_ = true;
    status_ = child_->Open(ctx);
    rows_ = RowBlock(child_->OutputTypes());
    while (status_.ok()) {
      RowBlock block;
      status_ = child_->GetNext(&block);
      if (!status_.ok() || block.NumRows() == 0) break;
      block.DecodeAll();
      if (ctx->stats) ctx->stats->exchange_bytes.fetch_add(block.MemoryBytes());
      rows_.AppendRange(block, 0, block.NumRows());
    }
    if (status_.ok()) status_ = child_->Close();
    return status_;
  }

  const RowBlock& rows() const { return rows_; }
  Operator* child() const { return child_.get(); }

 private:
  OperatorPtr child_;
  std::mutex mu_;
  bool done_ = false;
  Status status_;
  RowBlock rows_;
};

class BroadcastConsumerOperator : public Operator {
 public:
  BroadcastConsumerOperator(std::shared_ptr<BroadcastState> state, bool primary)
      : state_(std::move(state)), primary_(primary) {}

  Status Open(ExecContext* ctx) override {
    ctx_ = ctx;
    cursor_ = 0;
    return state_->Materialize(ctx);
  }
  Status GetNext(RowBlock* out) override {
    const RowBlock& rows = state_->rows();
    *out = RowBlock(OutputTypes());
    if (cursor_ >= rows.NumRows()) return Status::OK();
    size_t take = std::min(ctx_->vector_size, rows.NumRows() - cursor_);
    out->AppendRange(rows, cursor_, take);
    cursor_ += take;
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  std::vector<TypeId> OutputTypes() const override {
    return state_->child()->OutputTypes();
  }
  std::vector<std::string> OutputNames() const override {
    return state_->child()->OutputNames();
  }
  std::string DebugString() const override { return "Recv(broadcast)"; }
  std::vector<Operator*> Children() const override {
    if (primary_) return {state_->child()};
    return {};
  }

 private:
  std::shared_ptr<BroadcastState> state_;
  bool primary_;
  ExecContext* ctx_ = nullptr;
  size_t cursor_ = 0;
};

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (!e) return;
  if (e->kind == ExprKind::kLogical && e->logic == LogicalOp::kAnd) {
    SplitConjuncts(e->children[0], out);
    SplitConjuncts(e->children[1], out);
    return;
  }
  out->push_back(e);
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr result;
  for (const auto& c : conjuncts) {
    result = result ? And(result, c) : c;
  }
  return result;
}

/// Deep copy with every column reference unbound, ready to bind by name
/// against another schema.
ExprPtr CloneUnbound(const ExprPtr& e) {
  ExprPtr copy = CloneExpr(e);
  std::vector<Expr*> stack = {copy.get()};
  while (!stack.empty()) {
    Expr* cur = stack.back();
    stack.pop_back();
    if (cur->kind == ExprKind::kColumnRef) cur->column_index = -1;
    for (auto& ch : cur->children) stack.push_back(ch.get());
  }
  return copy;
}

/// Does a bound predicate reject NULLs of the given column range? A plain
/// comparison or IS NOT NULL on those columns does.
bool NullRejecting(const Expr& e, int col_lo, int col_hi) {
  std::vector<int> cols;
  CollectColumns(e, &cols);
  bool touches = false;
  for (int c : cols) touches |= (c >= col_lo && c < col_hi);
  if (!touches) return false;
  if (e.kind == ExprKind::kCompare) return true;
  if (e.kind == ExprKind::kIsNull && e.negated) return true;
  return false;
}

/// A column name without its "alias." qualifier.
std::string BareName(const std::string& name) {
  auto dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

/// One resolved FROM entry.
struct TableSlot {
  std::string alias;
  TableDef def;
  ProjectionDef projection;             // chosen physical source
  int schema_offset = 0;                // column offset in the combined schema
  JoinType join_type = JoinType::kInner;
  uint64_t est_rows = 0;

  std::vector<ExprPtr> local_predicates;  // bound to the combined schema
  // Scan units: (storage, covering node) pairs; one per up node normally,
  // with buddies substituted for down nodes.
  std::vector<ProjectionStorage*> units;
  std::vector<uint32_t> unit_hosts;  // node id serving each unit (error context)
  // Remaining family copies per unit, health-checked again at hedge time so
  // a straggling or dead unit can be re-issued against a buddy mid-query.
  std::vector<std::vector<ProjectionStorage*>> unit_alts;
};

/// Equality join keys between two tables, as combined-schema columns.
struct JoinEdge {
  size_t left_table, right_table;          // indexes into tables, left < right
  std::vector<int> left_cols, right_cols;  // combined-schema indexes
};

/// One join of the stream against a build table. Join keys depend only on
/// the join order, not the unit, so steps are computed once; only the SIP
/// attachment, the co-located build unit and the fact storage vary per
/// pipeline.
struct JoinStep {
  JoinSpec jspec;                               // without sip
  std::shared_ptr<SipFilter> sip;               // primary of unit 0 populates
  bool colocated = false;
  ScanSpec build_spec;                          // colocated: per-unit scan
  std::vector<ProjectionStorage*> build_units;  //   "
  std::shared_ptr<BroadcastState> broadcast;    // else: shared materialization
};

/// Everything PlanSelect decides, filled in by the passes in order
/// (DESIGN.md §15). A pass reads only what earlier passes wrote.
struct PlanState {
  PlanState(const SelectStmt& select, Cluster* c) : stmt(select), cluster(c) {}

  const SelectStmt& stmt;
  Cluster* cluster;
  // Query shape.
  bool has_aggs = false;
  bool has_windows = false;
  // 1. Bind and place predicates.
  std::vector<TableSlot> tables;
  BindSchema schema;  // combined: "alias.col" names
  std::vector<JoinEdge> edges;
  std::vector<ExprPtr> residuals;  // bound to `schema`; filter above the joins
  bool all_inner = true;
  // 3. Join order: order[0] is the fact, the probe stream.
  std::vector<size_t> order;
  // 4. Column pruning: kept[t] lists the table columns scan t emits,
  // ascending; scan_pos[t] maps a table column to its scan-output index
  // (-1 = pruned).
  std::vector<std::vector<int>> kept, scan_pos;
  // 5. Scan specs: one per-unit template per table, and the stream schema
  // after all joins (each table's kept columns, in join order).
  std::vector<ScanSpec> scans;
  BindSchema stream_schema;
  // 6. Joins, shared by every unit pipeline, and the residual filter.
  std::shared_ptr<std::vector<JoinStep>> steps = std::make_shared<std::vector<JoinStep>>();
  ExprPtr residual_expr;
  // 7. Physical properties.
  bool sort_eliminated = false;
  size_t fanout = 1;
  bool morsel_bypass = false;

  size_t fact() const { return order[0]; }
  size_t TableOf(int col) const {
    for (size_t t = tables.size(); t-- > 0;) {
      if (col >= tables[t].schema_offset) return t;
    }
    return 0;
  }
  /// Scan-output index of a combined-schema column (its table keeps it).
  int ScanPos(int col) const {
    size_t t = TableOf(col);
    return scan_pos[t][col - tables[t].schema_offset];
  }
  Result<ExprPtr> RebindToStream(const ExprPtr& e) const {
    ExprPtr copy = CloneUnbound(e);
    STRATICA_RETURN_NOT_OK(BindExpr(copy, stream_schema));
    return copy;
  }
};

// ---- pass 1: bind and place predicates --------------------------------------

/// The tables a bound conjunct reads; one that reads no column counts as
/// table 0's.
std::set<size_t> TablesOf(const PlanState& s, const Expr& e) {
  std::vector<int> cols;
  CollectColumns(e, &cols);
  std::set<size_t> tables;
  for (int c : cols) tables.insert(s.TableOf(c));
  if (tables.empty()) tables.insert(0);
  return tables;
}

/// Adds `a.x = b.y` across two tables to their edge; false for any other
/// conjunct.
bool AddJoinKey(PlanState* s, const ExprPtr& conjunct) {
  if (conjunct->kind != ExprKind::kCompare || conjunct->cmp != CompareOp::kEq ||
      conjunct->children[0]->kind != ExprKind::kColumnRef ||
      conjunct->children[1]->kind != ExprKind::kColumnRef) {
    return false;
  }
  int a = conjunct->children[0]->column_index;
  int b = conjunct->children[1]->column_index;
  size_t ta = s->TableOf(a), tb = s->TableOf(b);
  if (ta == tb) return false;
  if (ta > tb) {
    std::swap(a, b);
    std::swap(ta, tb);
  }
  for (auto& edge : s->edges) {
    if (edge.left_table == ta && edge.right_table == tb) {
      edge.left_cols.push_back(a);
      edge.right_cols.push_back(b);
      return true;
    }
  }
  s->edges.push_back({ta, tb, {a}, {b}});
  return true;
}

/// Inner placement: a one-table conjunct filters that table's scan, a
/// column equality across two tables is a join key, anything else is a
/// residual above the joins.
void PlaceInner(PlanState* s, const ExprPtr& conjunct) {
  std::set<size_t> tables = TablesOf(*s, *conjunct);
  if (tables.size() == 1) {
    s->tables[*tables.begin()].local_predicates.push_back(conjunct);
  } else if (tables.size() != 2 || !AddJoinKey(s, conjunct)) {
    s->residuals.push_back(conjunct);
  }
}

/// Transitive predicates across join keys (Section 6.2): a literal
/// comparison on one side of a join equality applies to the other. Only
/// sound when every join is INNER.
void AddTransitivePredicates(PlanState* s) {
  for (const auto& edge : s->edges) {
    for (size_t k = 0; k < edge.left_cols.size(); ++k) {
      for (size_t t : {edge.left_table, edge.right_table}) {
        int from_col = t == edge.left_table ? edge.left_cols[k] : edge.right_cols[k];
        int to_col = t == edge.left_table ? edge.right_cols[k] : edge.left_cols[k];
        size_t to_table = t == edge.left_table ? edge.right_table : edge.left_table;
        for (const auto& pred : s->tables[t].local_predicates) {
          if (pred->kind != ExprKind::kCompare) continue;
          if (pred->children[0]->kind != ExprKind::kColumnRef ||
              pred->children[0]->column_index != from_col ||
              pred->children[1]->kind != ExprKind::kLiteral) {
            continue;
          }
          ExprPtr derived = Cmp(pred->cmp, ColIdx(to_col, s->schema.types[to_col]),
                                Lit(pred->children[1]->literal));
          derived->children[0]->column_name = s->schema.names[to_col];
          bool dup = false;
          for (const auto& existing : s->tables[to_table].local_predicates) {
            dup |= existing->ToString() == derived->ToString();
          }
          if (!dup) s->tables[to_table].local_predicates.push_back(derived);
        }
      }
    }
  }
}

/// Pass 1: resolves FROM, binds WHERE and ON, and places each conjunct as
/// a scan predicate, a join key or a residual. Join t's rows come from the
/// stream (tables before t) and table t; an outer join null-extends its
/// nullable side, so a conjunct on a table some join null-extends cannot
/// simply filter that table's scan (DESIGN.md §15).
Status BindAndPlacePredicates(PlanState* s) {
  const SelectStmt& stmt = s->stmt;
  s->has_aggs = !stmt.group_by.empty() || !stmt.having_aggs.empty();
  for (const auto& item : stmt.items) {
    s->has_aggs |= item.kind == SelectItem::Kind::kAgg;
    s->has_windows |= item.kind == SelectItem::Kind::kWindow;
  }
  if (stmt.from.empty()) return Status::NotImplemented("SELECT without FROM");
  Catalog* catalog = s->cluster->catalog();
  for (const auto& ref : stmt.from) {
    TableSlot slot;
    slot.alias = ref.alias.empty() ? ref.table : ref.alias;
    STRATICA_ASSIGN_OR_RETURN(slot.def, catalog->GetTable(ref.table));
    slot.join_type = ref.join_type;
    slot.schema_offset = static_cast<int>(s->schema.size());
    for (const auto& c : slot.def.columns) {
      s->schema.Add(slot.alias + "." + c.name, c.type);
    }
    s->tables.push_back(std::move(slot));
  }
  const size_t n = s->tables.size();

  std::vector<ExprPtr> where;
  if (stmt.where) {
    ExprPtr bound = CloneExpr(stmt.where);
    STRATICA_RETURN_NOT_OK(BindExpr(bound, s->schema));
    SplitConjuncts(bound, &where);
  }
  // Outer-to-inner conversion (Section 6.2): a null-rejecting WHERE
  // conjunct on a LEFT join's right side drops every row the join would
  // null-extend, so the join is INNER. ON conjuncts never convert.
  for (const auto& c : where) {
    std::set<size_t> tables = TablesOf(*s, *c);
    TableSlot& slot = s->tables[*tables.begin()];
    int lo = slot.schema_offset;
    int hi = lo + static_cast<int>(slot.def.columns.size());
    if (tables.size() == 1 && slot.join_type == JoinType::kLeft &&
        NullRejecting(*c, lo, hi)) {
      slot.join_type = JoinType::kInner;
    }
  }
  for (size_t t = 1; t < n; ++t) s->all_inner &= s->tables[t].join_type == JoinType::kInner;
  // Does a join in [from, to) null-extend a table of `tables`? LEFT extends
  // its right side, RIGHT the whole stream, FULL both.
  auto null_extended = [&](const std::set<size_t>& tables, size_t from, size_t to) {
    for (size_t j = std::max<size_t>(from, 1); j < to; ++j) {
      JoinType jt = s->tables[j].join_type;
      for (size_t t : tables) {
        if (((jt == JoinType::kLeft || jt == JoinType::kFull) && t == j) ||
            ((jt == JoinType::kRight || jt == JoinType::kFull) && t < j)) {
          return true;
        }
      }
    }
    return false;
  };
  // WHERE filters the joined rows: on a null-extended table it stays a
  // residual above the joins.
  for (const auto& c : where) {
    if (null_extended(TablesOf(*s, *c), 1, n)) {
      s->residuals.push_back(c);
    } else {
      PlaceInner(s, c);
    }
  }
  // ON of join t: an equality between t and the stream is a key of any
  // join. An INNER join places the rest like WHERE when no table they read
  // is null-extended before it; a conjunct over several tables also needs
  // them not null-extended after it, as it becomes a residual or an earlier
  // join's key. Otherwise the conjunct is a residual when no later join
  // null-extends a table it reads, since until then the rows it filters
  // keep their values and count. An outer join also takes a predicate local
  // to its nullable side, which filters that side's scan; anything else it
  // cannot evaluate.
  for (size_t t = 1; t < n; ++t) {
    if (!stmt.from[t].on) continue;
    ExprPtr on = CloneExpr(stmt.from[t].on);
    STRATICA_RETURN_NOT_OK(BindExpr(on, s->schema));
    std::vector<ExprPtr> on_conjuncts;
    SplitConjuncts(on, &on_conjuncts);
    const JoinType jt = s->tables[t].join_type;
    for (const auto& c : on_conjuncts) {
      std::set<size_t> tables = TablesOf(*s, *c);
      size_t last = *tables.rbegin();
      if (tables.size() == 2 && last == t && AddJoinKey(s, c)) continue;
      bool early = null_extended(tables, 1, t);
      bool late = null_extended(tables, t + 1, n);
      if (jt == JoinType::kInner && !early && (tables.size() == 1 || !late)) {
        PlaceInner(s, c);
        continue;
      }
      if (jt == JoinType::kInner && !late) {
        s->residuals.push_back(c);
        continue;
      }
      bool nullable_side = (jt == JoinType::kLeft && last == t) ||
                           (jt == JoinType::kRight && last < t);
      if (tables.size() == 1 && !early && nullable_side) {
        s->tables[last].local_predicates.push_back(c);
        continue;
      }
      return Status::NotImplemented("ON condition ", c->ToString(), " of a ",
                                    JoinTypeName(jt), " join");
    }
  }
  if (s->all_inner) AddTransitivePredicates(s);
  return Status::OK();
}

// ---- pass 2: access paths ---------------------------------------------------

/// Pass 2: picks each table's projection and its scan units.
Status ChooseAccessPaths(PlanState* s) {
  Cluster* cluster = s->cluster;
  const uint32_t num_nodes = cluster->num_nodes();
  for (auto& slot : s->tables) {
    auto candidates = cluster->catalog()->ProjectionsForTable(slot.def.name);
    // Only super projections are candidates: they cover every column.
    const ProjectionDef* best = nullptr;
    int64_t best_score = INT64_MIN;
    for (const auto& p : candidates) {
      if (p.segmentation.node_offset != 0) continue;  // buddies join via units
      if (p.IsPrejoin() || !p.is_super) continue;
      int64_t score = 0;
      // Compression-aware I/O proxy: smaller stored footprint wins.
      uint64_t bytes = 0;
      for (uint32_t n = 0; n < num_nodes; ++n) {
        auto* ps = cluster->node(n)->GetStorage(p.name);
        if (ps) bytes += ps->TotalRosBytes();
      }
      score -= static_cast<int64_t>(bytes / 1024);
      // Sorted-prefix predicate bonus: fast pruning and merge scans.
      if (!p.sort_columns.empty()) {
        const std::string& first_sort = p.columns[p.sort_columns[0]].name;
        for (const auto& pred : slot.local_predicates) {
          if (pred->kind == ExprKind::kCompare &&
              pred->children[0]->kind == ExprKind::kColumnRef &&
              BareName(pred->children[0]->column_name) == first_sort) {
            score += 1000000;
          }
        }
      }
      if (!best || score > best_score) {
        best = &p;
        best_score = score;
      }
    }
    if (!best) return Status::Internal("no projection for table ", slot.def.name);
    slot.projection = *best;

    // Scan units with buddy substitution (replan-with-buddy, Section 6.2):
    // copies[u] lists the (host, storage) copies that can serve unit u — a
    // replicated projection is one unit any node's copy serves, a segmented
    // one has a unit per ring slot served by its family — and the first up
    // copy serves it. A quarantined copy (persistent read failure or
    // corruption, DESIGN.md §10) is as unusable as a down node: a buddy
    // serves the slot until re-recovery clears the flag.
    std::vector<std::vector<std::pair<uint32_t, ProjectionStorage*>>> copies;
    if (slot.projection.segmentation.replicated) {
      copies.emplace_back();
      for (uint32_t n = 0; n < num_nodes; ++n) {
        copies[0].push_back({n, cluster->node(n)->GetStorage(slot.projection.name)});
      }
    } else {
      std::vector<const ProjectionDef*> family = {&slot.projection};
      for (const auto& p : candidates) {
        if (p.buddy_of == slot.projection.name) family.push_back(&p);
      }
      for (uint32_t ring_slot = 0; ring_slot < num_nodes; ++ring_slot) {
        copies.emplace_back();
        for (const ProjectionDef* copy : family) {
          uint32_t host = (ring_slot + copy->segmentation.node_offset) % num_nodes;
          copies.back().push_back({host, cluster->node(host)->GetStorage(copy->name)});
        }
      }
    }
    for (size_t u = 0; u < copies.size(); ++u) {
      ProjectionStorage* unit = nullptr;
      uint32_t unit_host = 0;
      std::vector<ProjectionStorage*> alts;
      for (auto [host, ps] : copies[u]) {
        if (!ps) continue;
        if (!unit && cluster->node(host)->up() && !ps->quarantined()) {
          unit = ps;
          unit_host = host;
        } else {
          alts.push_back(ps);
        }
      }
      if (!unit) {
        return Status::ClusterUnavailable("data unavailable: no live copy of ",
                                          slot.projection.name, " for ring slot ", u,
                                          " (K-safety exhausted)");
      }
      slot.units.push_back(unit);
      slot.unit_hosts.push_back(unit_host);
      slot.unit_alts.push_back(std::move(alts));
    }
    slot.est_rows = 0;
    for (auto* ps : slot.units) slot.est_rows += ps->TotalRosRows() + ps->WosRowCount();
  }
  return Status::OK();
}

// ---- pass 3: join order -----------------------------------------------------

/// Pass 3 (StarOpt heuristic): the probe stream is the largest table (the
/// fact); build sides join in ascending size order, most selective
/// dimensions first. Only pure-INNER plans are reordered.
void OrderJoins(PlanState* s) {
  const auto& tables = s->tables;
  s->order.resize(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) s->order[i] = i;
  if (!s->all_inner || tables.size() <= 1) return;
  size_t fact = 0;
  for (size_t t = 1; t < tables.size(); ++t) {
    if (tables[t].est_rows > tables[fact].est_rows) fact = t;
  }
  std::vector<size_t> rest;
  for (size_t t = 0; t < tables.size(); ++t) {
    if (t != fact) rest.push_back(t);
  }
  // Selectivity-first: tables with local predicates join earlier; size
  // breaks ties.
  std::stable_sort(rest.begin(), rest.end(), [&](size_t a, size_t b) {
    size_t pa = tables[a].local_predicates.size();
    size_t pb = tables[b].local_predicates.size();
    if (pa != pb) return pa > pb;
    return tables[a].est_rows < tables[b].est_rows;
  });
  s->order = {fact};
  // Greedy: append tables connected to the joined set first.
  std::set<size_t> joined = {fact};
  while (!rest.empty()) {
    size_t pick = SIZE_MAX;
    for (size_t i = 0; i < rest.size() && pick == SIZE_MAX; ++i) {
      for (const auto& edge : s->edges) {
        if ((joined.count(edge.left_table) && edge.right_table == rest[i]) ||
            (joined.count(edge.right_table) && edge.left_table == rest[i])) {
          pick = i;
          break;
        }
      }
    }
    if (pick == SIZE_MAX) pick = 0;  // cross join fallback
    joined.insert(rest[pick]);
    s->order.push_back(rest[pick]);
    rest.erase(rest.begin() + pick);
  }
}

// ---- pass 4: column pruning -------------------------------------------------

/// Pass 4 (DESIGN.md §14): each scan emits only the columns something above
/// it reads: select items (SELECT * keeps every column), GROUP BY and
/// aggregate arguments (HAVING binds to the aggregates), window
/// partition/order/argument columns, join keys and residual predicates —
/// plus the columns of its own pushed-down predicate, because the scan's
/// predicate, SIP probe columns and prune bounds are all bound in its
/// output space. ORDER BY binds to the output columns, so it adds nothing.
Status PruneColumns(PlanState* s) {
  const SelectStmt& stmt = s->stmt;
  std::vector<std::vector<char>> referenced(s->tables.size());
  for (size_t t = 0; t < s->tables.size(); ++t) {
    referenced[t].assign(s->tables[t].def.columns.size(), 0);
  }
  auto reference_col = [&](int combined_col) {
    size_t t = s->TableOf(combined_col);
    referenced[t][combined_col - s->tables[t].schema_offset] = 1;
  };
  auto reference_bound = [&](const Expr& e) {
    std::vector<int> cols;
    CollectColumns(e, &cols);
    for (int c : cols) reference_col(c);
  };
  auto reference = [&](const ExprPtr& e) -> Status {
    if (!e) return Status::OK();
    ExprPtr bound_expr = CloneUnbound(e);
    STRATICA_RETURN_NOT_OK(BindExpr(bound_expr, s->schema));
    reference_bound(*bound_expr);
    return Status::OK();
  };
  for (const auto& item : stmt.items) {
    switch (item.kind) {
      case SelectItem::Kind::kStar:
        for (auto& cols : referenced) cols.assign(cols.size(), 1);
        break;
      case SelectItem::Kind::kExpr:
        STRATICA_RETURN_NOT_OK(reference(item.expr));
        break;
      case SelectItem::Kind::kAgg:
        STRATICA_RETURN_NOT_OK(reference(item.agg.arg));
        break;
      case SelectItem::Kind::kWindow:
        STRATICA_RETURN_NOT_OK(reference(item.window.arg));
        for (const auto& pe : item.window.partition_by)
          STRATICA_RETURN_NOT_OK(reference(pe));
        for (const auto& oe : item.window.order_by)
          STRATICA_RETURN_NOT_OK(reference(oe.first));
        break;
    }
  }
  for (const auto& g : stmt.group_by) STRATICA_RETURN_NOT_OK(reference(g));
  for (const auto& call : stmt.having_aggs) STRATICA_RETURN_NOT_OK(reference(call.arg));
  for (const auto& edge : s->edges) {
    for (int c : edge.left_cols) reference_col(c);
    for (int c : edge.right_cols) reference_col(c);
  }
  for (const auto& r : s->residuals) reference_bound(*r);
  for (const auto& slot : s->tables) {
    for (const auto& pred : slot.local_predicates) reference_bound(*pred);
  }
  // A scan whose table nothing references (COUNT(*) without WHERE) still
  // emits one column, the projection's first sort column, because a block
  // with no columns has no rows.
  s->kept.assign(s->tables.size(), {});
  s->scan_pos.assign(s->tables.size(), {});
  for (size_t t = 0; t < s->tables.size(); ++t) {
    const TableSlot& slot = s->tables[t];
    if (std::find(referenced[t].begin(), referenced[t].end(), 1) == referenced[t].end()) {
      int first = 0;
      if (!slot.projection.sort_columns.empty()) {
        const std::string& name =
            slot.projection.columns[slot.projection.sort_columns[0]].name;
        for (size_t c = 0; c < slot.def.columns.size(); ++c) {
          if (slot.def.columns[c].name == name) first = static_cast<int>(c);
        }
      }
      referenced[t][first] = 1;
    }
    s->scan_pos[t].assign(slot.def.columns.size(), -1);
    for (size_t c = 0; c < slot.def.columns.size(); ++c) {
      if (!referenced[t][c]) continue;
      s->scan_pos[t][c] = static_cast<int>(s->kept[t].size());
      s->kept[t].push_back(static_cast<int>(c));
    }
  }
  return Status::OK();
}

// ---- pass 5: scan specs -----------------------------------------------------

/// Pass 5: one scan template per table — its kept columns in table order
/// (projection columns mapped to table order) with its local predicates
/// pushed down as a filter and min/max prune bounds — and the stream schema.
Status BuildScanSpecs(PlanState* s) {
  for (size_t oi : s->order) {
    const TableSlot& slot = s->tables[oi];
    for (int c : s->kept[oi]) {
      s->stream_schema.Add(slot.alias + "." + slot.def.columns[c].name,
                           slot.def.columns[c].type);
    }
  }
  s->scans.resize(s->tables.size());
  for (size_t t = 0; t < s->tables.size(); ++t) {
    const TableSlot& slot = s->tables[t];
    ScanSpec& spec = s->scans[t];
    BindSchema scan_schema;
    for (int c : s->kept[t]) {
      const ColumnDef& col = slot.def.columns[c];
      int proj_col = slot.projection.FindColumn(col.name);
      if (proj_col < 0) return Status::Internal("projection misses column ", col.name);
      spec.projection_columns.push_back(proj_col);
      spec.output_names.push_back(slot.alias + "." + col.name);
      spec.output_types.push_back(col.type);
      scan_schema.Add(slot.alias + "." + col.name, col.type);
    }
    std::vector<ExprPtr> scan_preds;
    for (const auto& pred : slot.local_predicates) {
      ExprPtr local = CloneUnbound(pred);
      STRATICA_RETURN_NOT_OK(BindExpr(local, scan_schema));
      scan_preds.push_back(local);
      if (local->kind == ExprKind::kCompare &&
          local->children[0]->kind == ExprKind::kColumnRef &&
          local->children[1]->kind == ExprKind::kLiteral) {
        spec.prune_bounds.push_back({local->children[0]->column_index, local->cmp,
                                     local->children[1]->literal});
      }
    }
    spec.predicate = CombineConjuncts(scan_preds);
  }
  return Status::OK();
}

// ---- pass 6: joins ----------------------------------------------------------

/// Makes one unit's operator tree on `storage`; `primary` is false for a
/// hedge or failover rebuild.
using UnitBuilder =
    std::function<Result<OperatorPtr>(ProjectionStorage* storage, bool primary, size_t u)>;

/// The exchange producer for `slot`'s unit u: the tree `build` makes on the
/// unit's storage, its host for error context, and a rebuild recipe that
/// re-issues it on the first healthy buddy copy when the leg straggles or
/// its host dies mid-query.
Result<ExchangeProducerSpec> UnitProducer(const TableSlot& slot, size_t u,
                                          const char* leg, UnitBuilder build) {
  ExchangeProducerSpec spec;
  STRATICA_ASSIGN_OR_RETURN(spec.op, build(slot.units[u], /*primary=*/true, u));
  spec.origin = "node" + std::to_string(slot.unit_hosts[u]);
  spec.rebuild = [build, alts = slot.unit_alts[u], leg, u]() -> Result<OperatorPtr> {
    for (auto* ps : alts) {
      if (!ps->HostUp() || ps->quarantined()) continue;
      return build(ps, /*primary=*/false, u);
    }
    return Status::ClusterUnavailable("no healthy buddy for ", leg, " ", u,
                                      " (K-safety exhausted)");
  };
  return spec;
}

/// One producer runs in place; more are gathered by a union exchange.
OperatorPtr Gather(std::vector<ExchangeProducerSpec> producers) {
  if (producers.size() == 1) return std::move(producers[0].op);
  return MakeUnionExchange(std::move(producers), "Recv", /*count_network=*/true);
}

/// The columns (bare names) of a HASH segmentation, in order; empty for a
/// replicated projection or any other segmentation expression.
std::vector<std::string> HashColumns(const ProjectionDef& p) {
  const ExprPtr& seg = p.segmentation.expr;
  if (p.segmentation.replicated || !seg || seg->kind != ExprKind::kFunc ||
      seg->func != FuncKind::kHash) {
    return {};
  }
  std::vector<std::string> cols;
  for (const auto& ch : seg->children) {
    if (ch->kind != ExprKind::kColumnRef) return {};
    cols.push_back(BareName(ch->column_name));
  }
  return cols;
}

/// Do tables a and b split their rows alike over the units when `a_cols`
/// equals `b_cols` pair by pair? Both must be segmented by HASH of exactly
/// their side of the pairs, in the same order. A chosen segmented
/// projection always has ring offset 0 and one unit per node
/// (ChooseAccessPaths), so equal hashes land on equal units.
bool SegmentedAlike(const PlanState& s, size_t a, const std::vector<int>& a_cols, size_t b,
                    const std::vector<int>& b_cols) {
  std::vector<std::string> aseg = HashColumns(s.tables[a].projection);
  std::vector<std::string> bseg = HashColumns(s.tables[b].projection);
  if (aseg.empty() || aseg.size() != a_cols.size() || bseg.size() != aseg.size())
    return false;
  for (size_t i = 0; i < aseg.size(); ++i) {
    size_t k = 0;
    while (k < a_cols.size() && BareName(s.schema.names[a_cols[k]]) != aseg[i]) ++k;
    if (k == a_cols.size() || BareName(s.schema.names[b_cols[k]]) != bseg[i]) return false;
  }
  return true;
}

/// Pass 6: one join step per table after the fact. A single pass over the
/// edges gives the step's keys (from every edge to a table already in the
/// stream), its edge to the fact for the SIP filter, and co-location. The
/// stream is partitioned by the fact's segmentation, and, in the rows it
/// can match, by that of every table co-located by segmentation before
/// (`partitioned`): a join is co-located when its build is replicated or
/// its edge to such a table is segmented alike. Any other build is
/// gathered once and replayed by every unit (broadcast). A RIGHT or FULL
/// join emits its unmatched build rows from every unit that holds them,
/// so over more than one fact unit it needs a build co-located by
/// segmentation.
Status PlanJoins(PlanState* s) {
  const size_t fact = s->fact();
  std::vector<size_t> joined = {fact};
  std::vector<char> partitioned(s->tables.size(), 0);
  partitioned[fact] = 1;
  // Stream position of a combined-schema column of a joined table.
  auto stream_pos = [&](int col) -> int {
    size_t owner = s->TableOf(col);
    int pos = 0;
    for (size_t oi : joined) {
      if (oi == owner) return pos + s->ScanPos(col);
      pos += static_cast<int>(s->kept[oi].size());
    }
    return -1;
  };
  for (size_t j = 1; j < s->order.size(); ++j) {
    const size_t t = s->order[j];
    const TableSlot& slot = s->tables[t];
    JoinStep step;
    step.jspec.type = slot.join_type;
    const std::vector<int>* fact_cols = nullptr;
    for (const auto& edge : s->edges) {
      bool t_left = edge.left_table == t;
      if (!t_left && edge.right_table != t) continue;
      size_t other = t_left ? edge.right_table : edge.left_table;
      if (std::find(joined.begin(), joined.end(), other) == joined.end()) continue;
      const auto& t_cols = t_left ? edge.left_cols : edge.right_cols;
      const auto& o_cols = t_left ? edge.right_cols : edge.left_cols;
      for (size_t k = 0; k < o_cols.size(); ++k) {
        step.jspec.probe_keys.push_back(static_cast<uint32_t>(stream_pos(o_cols[k])));
        step.jspec.build_keys.push_back(static_cast<uint32_t>(s->ScanPos(t_cols[k])));
      }
      if (other == fact) fact_cols = &o_cols;
      if (partitioned[other] && SegmentedAlike(*s, other, o_cols, t, t_cols)) {
        partitioned[t] = 1;
      }
    }
    if (step.jspec.probe_keys.empty())
      return Status::NotImplemented("cross joins without predicates");
    step.colocated = partitioned[t] || slot.projection.segmentation.replicated;
    const bool emits_unmatched_build =
        step.jspec.type == JoinType::kRight || step.jspec.type == JoinType::kFull;
    if (emits_unmatched_build && !partitioned[t] && s->tables[fact].units.size() > 1) {
      return Status::NotImplemented(JoinTypeName(step.jspec.type), " join of ", slot.alias,
                                    " whose build side is not segmented like the stream");
    }
    // SIP: joins that filter probe rows install a filter on the fact scan,
    // shared by every unit's fact scan and filled from unit 0's build — so
    // a join co-located by segmentation, whose unit 0 build holds only that
    // segment's keys, gets none.
    bool filters = step.jspec.type == JoinType::kInner || step.jspec.type == JoinType::kSemi;
    if (fact_cols && filters && (!step.colocated || slot.projection.segmentation.replicated)) {
      step.sip = std::make_shared<SipFilter>();
      for (int c : *fact_cols) step.sip->probe_columns.push_back(s->ScanPos(c));
      s->scans[fact].sips.push_back(step.sip);
    }
    if (step.colocated) {
      step.build_spec = s->scans[t];
      step.build_units = slot.units;
    } else {
      std::vector<ExchangeProducerSpec> legs;
      UnitBuilder scan = [tmpl = s->scans[t]](ProjectionStorage* ps, bool,
                                              size_t) -> Result<OperatorPtr> {
        ScanSpec spec = tmpl;
        spec.storage = ps;
        return OperatorPtr(std::make_unique<ScanOperator>(spec));
      };
      for (size_t i = 0; i < slot.units.size(); ++i) {
        STRATICA_ASSIGN_OR_RETURN(ExchangeProducerSpec leg,
                                  UnitProducer(slot, i, "broadcast leg", scan));
        legs.push_back(std::move(leg));
      }
      step.broadcast = std::make_shared<BroadcastState>(Gather(std::move(legs)));
    }
    s->steps->push_back(std::move(step));
    joined.push_back(t);
  }
  // Residual predicates (multi-table non-equi) are unit-independent: bind
  // them once and share the expression, as per-unit scans already do for
  // predicates and SIPs.
  std::vector<ExprPtr> rebound;
  for (const auto& r : s->residuals) {
    STRATICA_ASSIGN_OR_RETURN(ExprPtr e, s->RebindToStream(r));
    rebound.push_back(e);
  }
  s->residual_expr = CombineConjuncts(rebound);
  return Status::OK();
}

// ---- pass 7: physical properties --------------------------------------------

/// Pass 7: the fact scan's order, encoding and fan-out, in that order.
void ChoosePhysicalProperties(PlanState* s, size_t intra_node_parallelism) {
  const SelectStmt& stmt = s->stmt;
  const TableSlot& fslot = s->tables[s->fact()];
  ScanSpec& ft = s->scans[s->fact()];
  const size_t num_units = fslot.units.size();

  // Sort elimination (Section 6.2): a single-table, single-unit SELECT
  // whose ORDER BY is an ascending prefix of the chosen projection's sort
  // order reads pre-sorted storage: the scan is planned order-carrying
  // (sorted_output + merge across containers) and the SortOperator is
  // dropped. Restricted to one scan unit because a union or exchange over
  // several pipelines loses the order; the fan-out gate below then records
  // the morsel bypass this shape causes.
  if (!stmt.order_by.empty() && s->tables.size() == 1 && num_units == 1 &&
      !stmt.distinct && !s->has_aggs && !s->has_windows &&
      stmt.order_by.size() <= fslot.projection.sort_columns.size()) {
    bool ok = true;
    std::vector<uint32_t> key_outputs;
    for (size_t j = 0; ok && j < stmt.order_by.size(); ++j) {
      const auto& [oe, desc] = stmt.order_by[j];
      if (desc || oe->kind != ExprKind::kColumnRef) {
        ok = false;
        break;
      }
      // The key must also be a select output, so the query shapes that the
      // Sort path would reject stay rejected. An alias names its item's
      // expression, not a same-named table column.
      ExprPtr key;
      for (const auto& item : stmt.items) {
        bool is_expr = item.kind == SelectItem::Kind::kExpr;
        if (is_expr && item.alias == oe->column_name) {
          key = item.expr;
          break;
        }
        if (item.kind == SelectItem::Kind::kStar ||
            (is_expr && item.expr->ToString() == oe->ToString())) {
          key = oe;
        }
      }
      if (!key) {
        ok = false;
        break;
      }
      auto bound = s->RebindToStream(key);
      if (!bound.ok() || bound.value()->kind != ExprKind::kColumnRef) {
        ok = false;
        break;
      }
      int scan_col = bound.value()->column_index;
      ok &= ft.projection_columns[scan_col] ==
            static_cast<int>(fslot.projection.sort_columns[j]);
      key_outputs.push_back(static_cast<uint32_t>(scan_col));
    }
    if (ok) {
      ft.sorted_output = true;
      ft.sort_key_outputs = std::move(key_outputs);
      s->sort_eliminated = true;
    }
  }

  // Compressed execution (DESIGN.md §13): emit encoded-or-decoded views
  // from the fact scan when every consumer in the chain is encoded-aware:
  // single-table aggregation stacks (ExprEval passthrough → Filter →
  // GroupBy all consume runs/codes directly). Joins, window functions and
  // plain row-returning SELECTs keep decoded scans — their consumers want
  // flat vectors. ExecContext::decode_first overrides the choice at run
  // time, so the decode-first reference needs no replan.
  if (s->has_aggs && !s->has_windows && s->steps->empty() && !ft.sorted_output) {
    ft.encoded_output = true;
  }

  // Intra-node fan-out gate (DESIGN.md §12): a unit pipeline splits into
  // `fanout` morsel-driven fragments when the fact is big enough to
  // amortize the extra pipelines and nothing in the plan needs what
  // fragments cannot give: an order-carrying scan (sorted_output) would
  // interleave arbitrarily under the ParallelUnion, and RIGHT/FULL joins
  // must emit unmatched build rows exactly once, which a build shared
  // across fragments cannot.
  s->fanout = intra_node_parallelism == 0 ? 1 : intra_node_parallelism;
  if (s->fanout > 1) {
    constexpr uint64_t kMinParallelRowsPerUnit = 32768;
    bool ok = fslot.est_rows >= kMinParallelRowsPerUnit * std::max<size_t>(num_units, 1);
    // Order-carrying scans are planned serial *explicitly* and recorded
    // (PhysicalPlan::morsel_bypass → ExecStats::morsel_bypasses), not
    // silently dropped, so fan-out accounting stays honest.
    if (ok && ft.sorted_output) s->morsel_bypass = true;
    ok &= !ft.sorted_output;
    for (const auto& step : *s->steps) {
      ok &= step.jspec.type != JoinType::kRight && step.jspec.type != JoinType::kFull;
    }
    if (!ok) s->fanout = 1;
  }
}

// ---- pass 8: lowering -------------------------------------------------------

/// Applied to every fragment of a unit (serial plans: the one pipeline), so
/// per-fragment work — expression eval, partial aggregation — runs inside
/// the fragment, below the ParallelUnion, and fans out with the scan.
using FragmentFinisher = std::function<Result<OperatorPtr>(OperatorPtr)>;

/// Every fact unit's pipeline — fact scan, join steps, residual filter and
/// then `finish` (if any) per fragment — gathered at the initiator. Each
/// pipeline captures what it needs by value, so exchange hedging can
/// rebuild it mid-query against a buddy copy of the fact unit.
Result<OperatorPtr> GatherUnitPipelines(const PlanState& s, FragmentFinisher finish) {
  UnitBuilder build_unit_pipeline =
      [steps = s.steps, fact_template = s.scans[s.fact()], residual_expr = s.residual_expr,
       fanout = s.fanout, finish](ProjectionStorage* fact_storage, bool primary,
                                  size_t u) -> Result<OperatorPtr> {
    // Build side of one join step for this unit: a scan of the colocated
    // build unit, or this unit's consumer of the broadcast.
    auto make_build_side = [primary, u](const JoinStep& step) -> OperatorPtr {
      if (step.colocated) {
        ScanSpec s = step.build_spec;
        s.storage = step.build_units[u % step.build_units.size()];
        return std::make_unique<ScanOperator>(s);
      }
      return std::make_unique<BroadcastConsumerOperator>(step.broadcast,
                                                         /*primary=*/primary && u == 0);
    };
    // Fan-out state is created fresh per invocation: a hedge rebuild gets
    // its own dispenser and builds because the loser pipeline's entire
    // output (all its fragments) is dropped at the outer exchange slot.
    std::shared_ptr<MorselDispenser> dispenser;
    std::vector<std::shared_ptr<SharedJoinBuild>> shared_builds;
    if (fanout > 1) {
      dispenser = std::make_shared<MorselDispenser>(fanout);
      for (const auto& step : *steps) {
        JoinSpec jspec = step.jspec;
        // The SIP is published exactly once, inside the shared build, before
        // any fragment's probe opens (same writer rule as the serial path).
        if (primary && u == 0) jspec.sip = step.sip;
        shared_builds.push_back(std::make_shared<SharedJoinBuild>(
            make_build_side(step), std::move(jspec), fanout));
      }
    }
    auto build_fragment = [&](size_t f) -> Result<OperatorPtr> {
      ScanSpec fact_spec = fact_template;
      fact_spec.storage = fact_storage;
      fact_spec.morsels = dispenser;  // null = plain full-unit scan
      OperatorPtr stream = std::make_unique<ScanOperator>(fact_spec);
      for (size_t si = 0; si < steps->size(); ++si) {
        const JoinStep& step = (*steps)[si];
        if (dispenser) {
          // Probe against the build shared with sibling fragments; fragment
          // 0 exposes the build subtree for EXPLAIN / memory estimation.
          stream = std::make_unique<HashJoinOperator>(
              std::move(stream), shared_builds[si], step.jspec,
              /*show_build=*/f == 0);
          continue;
        }
        JoinSpec jspec = step.jspec;
        // Only the primary pipeline of unit 0 populates shared SIP filters;
        // hedge pipelines read them through their scans (a not-yet-ready SIP
        // passes rows through) but never write them, so a replacement racing
        // its orphaned primary cannot corrupt the filter.
        if (primary && u == 0) jspec.sip = step.sip;
        stream = std::make_unique<HashJoinOperator>(std::move(stream),
                                                    make_build_side(step), jspec);
      }
      if (residual_expr) {
        stream = std::make_unique<FilterOperator>(std::move(stream), residual_expr);
      }
      if (!finish) return OperatorPtr(std::move(stream));
      return finish(std::move(stream));
    };
    if (fanout <= 1) return build_fragment(0);
    std::vector<OperatorPtr> fragments;
    for (size_t f = 0; f < fanout; ++f) {
      STRATICA_ASSIGN_OR_RETURN(OperatorPtr frag, build_fragment(f));
      fragments.push_back(std::move(frag));
    }
    return OperatorPtr(MakeUnionExchange(std::move(fragments), "ParallelUnion",
                                         /*count_network=*/false));
  };
  const TableSlot& fslot = s.tables[s.fact()];
  std::vector<ExchangeProducerSpec> producers;
  for (size_t u = 0; u < fslot.units.size(); ++u) {
    STRATICA_ASSIGN_OR_RETURN(
        ExchangeProducerSpec spec,
        UnitProducer(fslot, u, "exchange partition", build_unit_pipeline));
    producers.push_back(std::move(spec));
  }
  return Gather(std::move(producers));
}

/// Two-stage aggregation: per-fragment eval + partial aggregation below the
/// gather, combine + HAVING + the select-list projection above it.
Result<OperatorPtr> LowerAggregation(const PlanState& s, PhysicalPlan* plan) {
  const SelectStmt& stmt = s.stmt;
  // Bind group keys + agg args against the stream schema.
  std::vector<ExprPtr> group_exprs;
  std::vector<ExprPtr> agg_args;
  std::vector<AggSpec> aggs;
  for (const auto& g : stmt.group_by) {
    STRATICA_ASSIGN_OR_RETURN(ExprPtr e, s.RebindToStream(g));
    group_exprs.push_back(e);
  }
  auto add_agg = [&](const AggCall& call) -> Status {
    AggSpec a;
    a.kind = call.kind;
    if (call.arg) {
      STRATICA_ASSIGN_OR_RETURN(ExprPtr e, s.RebindToStream(call.arg));
      a.input_type = e->type;
      agg_args.push_back(e);
      a.input_column = static_cast<int>(group_exprs.size() + agg_args.size() - 1);
    }
    aggs.push_back(a);
    return Status::OK();
  };
  for (const auto& item : stmt.items) {
    if (item.kind == SelectItem::Kind::kAgg) STRATICA_RETURN_NOT_OK(add_agg(item.agg));
  }
  for (const auto& call : stmt.having_aggs) STRATICA_RETURN_NOT_OK(add_agg(call));

  // Pipeline per unit: ExprEval computing (group keys..., agg args...),
  // then a partial HashGroupBy; the initiator combines the partials.
  bool partialable = true;
  for (const auto& a : aggs) partialable &= a.Partialable();

  std::vector<ExprPtr> eval_exprs = group_exprs;
  for (const auto& e : agg_args) eval_exprs.push_back(e);
  std::vector<std::string> eval_names;
  for (size_t i = 0; i < group_exprs.size(); ++i)
    eval_names.push_back("g" + std::to_string(i));
  for (size_t i = 0; i < agg_args.size(); ++i)
    eval_names.push_back("a" + std::to_string(i));
  if (eval_exprs.empty()) {
    // COUNT(*) with no grouping: keep one carrier column so row counts
    // survive the ExprEval.
    eval_exprs.push_back(Lit(Value::Int64(1)));
    eval_names.push_back("one");
  }

  GroupBySpec local;
  for (size_t i = 0; i < group_exprs.size(); ++i)
    local.group_columns.push_back(static_cast<uint32_t>(i));
  local.aggs = aggs;
  local.phase = partialable ? AggPhase::kPartial : AggPhase::kSingle;
  for (auto& name : eval_names) local.output_names.push_back(name);

  // Each local = unit pipeline + eval + partial aggregation; the whole
  // stack is rebuildable against a buddy copy, so hedged units redo their
  // partial aggregation from the replacement scan. The finisher runs per
  // fragment, so under fan-out each morsel fragment carries its own eval
  // + partial table and the aggregation parallelizes with the scan
  // (Figure 3's parallel GroupBys above a StorageUnion).
  FragmentFinisher finish = [eval_exprs, eval_names, local, partialable](
                                OperatorPtr pipeline) -> Result<OperatorPtr> {
    auto eval = std::make_unique<ProjectOperator>(
        std::move(pipeline), std::vector<ExprPtr>(eval_exprs), eval_names);
    if (partialable) {
      return OperatorPtr(std::make_unique<HashGroupByOperator>(std::move(eval), local));
    }
    return OperatorPtr(std::move(eval));  // raw rows; single-stage at initiator
  };
  STRATICA_ASSIGN_OR_RETURN(OperatorPtr gathered, GatherUnitPipelines(s, finish));
  GroupBySpec final_spec = local;
  final_spec.phase = partialable ? AggPhase::kCombine : AggPhase::kSingle;
  final_spec.output_names.clear();
  for (size_t i = 0; i < group_exprs.size(); ++i)
    final_spec.output_names.push_back("g" + std::to_string(i));
  for (size_t i = 0; i < aggs.size(); ++i)
    final_spec.output_names.push_back("agg" + std::to_string(i));
  OperatorPtr root = std::make_unique<HashGroupByOperator>(std::move(gathered), final_spec);

  // HAVING over (group cols..., agg outputs...).
  if (stmt.having) {
    BindSchema having_schema;
    for (size_t i = 0; i < group_exprs.size(); ++i)
      having_schema.Add("g" + std::to_string(i), group_exprs[i]->type);
    size_t select_aggs = aggs.size() - stmt.having_aggs.size();
    for (size_t i = 0; i < aggs.size(); ++i) {
      std::string name = "agg" + std::to_string(i);
      if (i >= select_aggs)
        name = "$having" + std::to_string(i - select_aggs);
      having_schema.Add(name, aggs[i].OutputType());
    }
    ExprPtr having = CloneExpr(stmt.having);
    STRATICA_RETURN_NOT_OK(BindExpr(having, having_schema));
    root = std::make_unique<FilterOperator>(std::move(root), having);
  }

  // Final projection mapping select items onto group/agg outputs.
  std::vector<ExprPtr> out_exprs;
  size_t agg_cursor = 0;
  for (const auto& item : stmt.items) {
    if (item.kind == SelectItem::Kind::kAgg) {
      size_t col = group_exprs.size() + agg_cursor++;
      out_exprs.push_back(ColIdx(static_cast<int>(col), aggs[agg_cursor - 1].OutputType()));
      plan->column_names.push_back(item.alias.empty()
                                       ? std::string(AggKindName(item.agg.kind))
                                       : item.alias);
    } else if (item.kind == SelectItem::Kind::kExpr) {
      // Must match a group-by expression.
      STRATICA_ASSIGN_OR_RETURN(ExprPtr bound_item, s.RebindToStream(item.expr));
      int found = -1;
      for (size_t g = 0; g < group_exprs.size(); ++g) {
        if (group_exprs[g]->ToString() == bound_item->ToString())
          found = static_cast<int>(g);
      }
      if (found < 0)
        return Status::AnalysisError("select expression not in GROUP BY: ",
                                     item.expr->ToString());
      out_exprs.push_back(ColIdx(found, group_exprs[found]->type));
      plan->column_names.push_back(item.alias.empty() ? item.expr->ToString()
                                                      : item.alias);
    } else {
      return Status::AnalysisError("SELECT * not valid with GROUP BY");
    }
  }
  return OperatorPtr(
      std::make_unique<ProjectOperator>(std::move(root), out_exprs, plan->column_names));
}

/// No aggregation: gather rows, evaluate window functions (sort by
/// partition and order keys, then Analytic), then project the select list.
Result<OperatorPtr> LowerProjection(const PlanState& s, PhysicalPlan* plan) {
  const SelectStmt& stmt = s.stmt;
  const BindSchema& stream_schema = s.stream_schema;
  const size_t stream_width = stream_schema.size();
  STRATICA_ASSIGN_OR_RETURN(OperatorPtr gathered, GatherUnitPipelines(s, nullptr));
  std::vector<TypeId> window_types;
  if (s.has_windows) {
    AnalyticSpec aspec;
    bool first_window = true;
    std::vector<SortKey> sort_keys;
    for (const auto& item : stmt.items) {
      if (item.kind != SelectItem::Kind::kWindow) continue;
      const WindowCall& w = item.window;
      if (first_window) {
        for (const auto& pe : w.partition_by) {
          STRATICA_ASSIGN_OR_RETURN(ExprPtr e, s.RebindToStream(pe));
          if (e->kind != ExprKind::kColumnRef)
            return Status::NotImplemented("non-column PARTITION BY");
          aspec.partition_columns.push_back(static_cast<uint32_t>(e->column_index));
          sort_keys.push_back({static_cast<uint32_t>(e->column_index), false});
        }
        for (const auto& [oe, desc] : w.order_by) {
          STRATICA_ASSIGN_OR_RETURN(ExprPtr e, s.RebindToStream(oe));
          if (e->kind != ExprKind::kColumnRef)
            return Status::NotImplemented("non-column window ORDER BY");
          aspec.order_keys.push_back({static_cast<uint32_t>(e->column_index), desc});
          sort_keys.push_back({static_cast<uint32_t>(e->column_index), desc});
        }
        first_window = false;
      }
      WindowSpec ws;
      ws.func = w.func;
      if (w.arg) {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr e, s.RebindToStream(w.arg));
        if (e->kind != ExprKind::kColumnRef)
          return Status::NotImplemented("non-column window argument");
        ws.input_column = e->column_index;
      }
      ws.output_name = item.alias.empty() ? WindowFuncName(w.func) : item.alias;
      window_types.push_back(ws.OutputType(stream_schema.types));
      aspec.windows.push_back(ws);
    }
    gathered = std::make_unique<SortOperator>(std::move(gathered), sort_keys);
    gathered = std::make_unique<AnalyticOperator>(std::move(gathered), aspec);
  }

  std::vector<ExprPtr> out_exprs;
  size_t window_cursor = 0;
  for (const auto& item : stmt.items) {
    switch (item.kind) {
      case SelectItem::Kind::kStar:
        for (size_t c = 0; c < stream_width; ++c) {
          out_exprs.push_back(ColIdx(static_cast<int>(c), stream_schema.types[c]));
          plan->column_names.push_back(stream_schema.names[c]);
        }
        break;
      case SelectItem::Kind::kExpr: {
        STRATICA_ASSIGN_OR_RETURN(ExprPtr e, s.RebindToStream(item.expr));
        out_exprs.push_back(e);
        plan->column_names.push_back(item.alias.empty() ? item.expr->ToString()
                                                        : item.alias);
        break;
      }
      case SelectItem::Kind::kWindow: {
        int col = static_cast<int>(stream_width + window_cursor);
        out_exprs.push_back(ColIdx(col, window_types[window_cursor]));
        ++window_cursor;
        plan->column_names.push_back(item.alias.empty() ? WindowFuncName(item.window.func)
                                                        : item.alias);
        break;
      }
      case SelectItem::Kind::kAgg:
        return Status::Internal("agg item in non-agg path");
    }
  }
  return OperatorPtr(
      std::make_unique<ProjectOperator>(std::move(gathered), out_exprs, plan->column_names));
}

/// DISTINCT, ORDER BY (unless the scan already carries it) and LIMIT over
/// the output columns.
Result<OperatorPtr> LowerOutput(const PlanState& s, OperatorPtr root,
                                const PhysicalPlan& plan) {
  const SelectStmt& stmt = s.stmt;
  // DISTINCT: group-by over every output column.
  if (stmt.distinct) {
    GroupBySpec dspec;
    auto types = root->OutputTypes();
    for (size_t c = 0; c < types.size(); ++c)
      dspec.group_columns.push_back(static_cast<uint32_t>(c));
    dspec.output_names = plan.column_names;
    root = std::make_unique<HashGroupByOperator>(std::move(root), dspec);
  }

  if (!stmt.order_by.empty() && !s.sort_eliminated) {
    BindSchema out_schema;
    auto types = root->OutputTypes();
    for (size_t c = 0; c < plan.column_names.size(); ++c)
      out_schema.Add(plan.column_names[c], types[c]);
    std::vector<SortKey> keys;
    for (const auto& [oe, desc] : stmt.order_by) {
      int idx = -1;
      // Match by alias/name first, then by rendered expression.
      if (oe->kind == ExprKind::kColumnRef) idx = out_schema.Find(oe->column_name);
      if (idx < 0) {
        std::string rendered = oe->ToString();
        for (size_t c = 0; c < plan.column_names.size(); ++c) {
          if (plan.column_names[c] == rendered) idx = static_cast<int>(c);
        }
      }
      if (idx < 0)
        return Status::AnalysisError("ORDER BY must reference an output column: ",
                                     oe->ToString());
      keys.push_back({static_cast<uint32_t>(idx), desc});
    }
    // A LIMIT above the Sort fuses into a top-k heap: the sort keeps only
    // limit+offset rows buffered and never externalizes (DESIGN.md §8).
    // The heap itself never spills, so huge limits (where top-k barely
    // beats a full sort anyway) stay on the externalizing path; LIMIT 0
    // still sorts as top-1 rather than sorting everything for no rows.
    constexpr uint64_t kMaxTopKHint = 128 * 1024;
    uint64_t limit_hint = 0;
    if (stmt.limit >= 0) {
      uint64_t k = static_cast<uint64_t>(stmt.limit) + static_cast<uint64_t>(stmt.offset);
      if (k <= kMaxTopKHint) limit_hint = k > 0 ? k : 1;
    }
    root = std::make_unique<SortOperator>(std::move(root), keys, limit_hint);
  }

  if (stmt.limit >= 0) {
    root = std::make_unique<LimitOperator>(std::move(root),
                                           static_cast<uint64_t>(stmt.limit),
                                           static_cast<uint64_t>(stmt.offset));
  }
  return OperatorPtr(std::move(root));
}

}  // namespace

Result<PhysicalPlan> Planner::PlanSelect(const SelectStmt& stmt,
                                         size_t intra_node_parallelism) {
  PlanState s(stmt, cluster_);
  STRATICA_RETURN_NOT_OK(BindAndPlacePredicates(&s));
  // Capture the topology under a shared lock so an elastic rebalance can't
  // swap storages mid-plan: every unit, host id and ring slot below must
  // come from one consistent node count. A plan captured just before a
  // swap keeps working — retired storages stay alive and readable.
  auto topology = cluster_->LockTopologyShared();
  STRATICA_RETURN_NOT_OK(ChooseAccessPaths(&s));
  OrderJoins(&s);
  STRATICA_RETURN_NOT_OK(PruneColumns(&s));
  STRATICA_RETURN_NOT_OK(BuildScanSpecs(&s));
  STRATICA_RETURN_NOT_OK(PlanJoins(&s));
  ChoosePhysicalProperties(&s, intra_node_parallelism);

  if (s.has_aggs && s.has_windows)
    return Status::NotImplemented("window functions with GROUP BY");
  PhysicalPlan plan;
  STRATICA_ASSIGN_OR_RETURN(OperatorPtr root, s.has_aggs ? LowerAggregation(s, &plan)
                                                         : LowerProjection(s, &plan));
  STRATICA_ASSIGN_OR_RETURN(root, LowerOutput(s, std::move(root), plan));
  plan.column_types = root->OutputTypes();
  plan.estimated_memory_bytes = EstimatePlanMemory(*root);
  plan.fanout = s.fanout;
  plan.morsel_bypass = s.morsel_bypass;
  plan.root = std::move(root);
  return plan;
}

Result<std::string> Planner::Explain(const SelectStmt& stmt,
                                     size_t intra_node_parallelism) {
  STRATICA_ASSIGN_OR_RETURN(PhysicalPlan plan,
                            PlanSelect(stmt, intra_node_parallelism));
  return ExplainTree(*plan.root);
}

}  // namespace stratica
