#include "xquery/evaluator.h"

#include <algorithm>
#include <cstdint>
#include <tuple>

#include "common/strings.h"

namespace quickview::xquery {

bool EffectiveBoolean(const Sequence& seq) {
  if (seq.empty()) return false;
  if (seq.size() == 1) {
    if (const bool* b = std::get_if<bool>(&seq[0])) return *b;
  }
  return true;
}

namespace {

/// AtomicValue without a copy: node text and strings are borrowed, other
/// values are spelled into `buffer`.
std::string_view AtomicView(const Item& item, std::string* buffer) {
  if (const NodeHandle* h = std::get_if<NodeHandle>(&item)) {
    return h->node().text;
  }
  if (const std::string* s = std::get_if<std::string>(&item)) return *s;
  if (const double* d = std::get_if<double>(&item)) {
    *buffer = FormatDouble(*d);
    return *buffer;
  }
  return std::get<bool>(item) ? "true" : "false";
}

}  // namespace

std::string AtomicValue(const Item& item) {
  std::string buffer;
  return std::string(AtomicView(item, &buffer));
}

Evaluator::BindingScope::BindingScope(Evaluator* evaluator,
                                      const std::string& name)
    : evaluator_(evaluator), value_(&evaluator->PushBinding(name).value) {}

Evaluator::Scratch::Scratch(Evaluator* evaluator) : evaluator_(evaluator) {
  if (evaluator->scratch_top_ == evaluator->scratch_.size()) {
    evaluator->scratch_.emplace_back();
  }
  seq_ = &evaluator->scratch_[evaluator->scratch_top_++];
  seq_->clear();
}

Evaluator::Binding& Evaluator::PushBinding(const std::string& name) {
  if (depth_ == bindings_.size()) bindings_.emplace_back();
  Binding& binding = bindings_[depth_++];
  binding.name = &name;
  binding.value.clear();
  return binding;
}

const Sequence* Evaluator::Lookup(const std::string& name) const {
  for (size_t i = depth_; i-- > frame_floor_;) {
    if (*bindings_[i].name == name) return &bindings_[i].value;
  }
  return nullptr;
}

Status Evaluator::UnboundVariable(const std::string& name) const {
  if (frame_ != nullptr) {
    return Status::InvalidArgument(
        "XPST0008: variable $" + name + " is not in scope in function " +
        frame_->name + " (a function body sees only its parameters)");
  }
  return Status::EvalError("unbound variable $" + name);
}

Evaluator::Evaluator(const xml::Database* database)
    : database_(database),
      result_doc_(std::make_shared<xml::Document>(kResultRootComponent)) {
  result_doc_->CreateRoot("qv:results");
}

void Evaluator::OverrideDocument(const std::string& name,
                                 const xml::Document* doc) {
  overrides_[name] = doc;
}

Result<Sequence> Evaluator::Evaluate(const Query& query) {
  query_ = &query;
  Sequence out;
  QV_RETURN_IF_ERROR(Eval(*query.body, &out));
  return out;
}

namespace {

/// Canonical atomization for hash-join keys, consistent with
/// CompareAtomic's equality: numeric values share one spelling, written
/// into `buffer`; other values are returned as AtomicView returns them.
std::string_view JoinKey(const Item& item, std::string* buffer) {
  std::string_view value = AtomicView(item, buffer);
  double number = 0;
  if (ParseDouble(value, &number)) {
    *buffer = FormatDouble(number);
    return *buffer;
  }
  return value;
}

/// True iff the expression mentions $name.
bool MentionsVar(const Expr& expr, const std::string& name) {
  switch (expr.kind) {
    case ExprKind::kVar:
      return static_cast<const VarExpr&>(expr).name == name;
    case ExprKind::kDoc:
    case ExprKind::kContext:
    case ExprKind::kLiteral:
      return false;
    case ExprKind::kPath: {
      const auto& path = static_cast<const PathExpr&>(expr);
      if (MentionsVar(*path.source, name)) return true;
      for (const ExprPtr& pred : path.predicates) {
        if (MentionsVar(*pred, name)) return true;
      }
      for (const PathStepAst& step : path.steps) {
        for (const ExprPtr& pred : step.predicates) {
          if (MentionsVar(*pred, name)) return true;
        }
      }
      return false;
    }
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(expr);
      return MentionsVar(*cmp.left, name) || MentionsVar(*cmp.right, name);
    }
    case ExprKind::kFlwor: {
      const auto& flwor = static_cast<const FlworExpr&>(expr);
      for (const FlworClause& clause : flwor.clauses) {
        if (MentionsVar(*clause.expr, name)) return true;
        if (clause.var == name) return false;  // shadowed below this point
      }
      if (flwor.where != nullptr && MentionsVar(*flwor.where, name)) {
        return true;
      }
      return MentionsVar(*flwor.ret, name);
    }
    case ExprKind::kElementCtor: {
      const auto& ctor = static_cast<const ElementCtorExpr&>(expr);
      for (const ExprPtr& child : ctor.children) {
        if (MentionsVar(*child, name)) return true;
      }
      return false;
    }
    case ExprKind::kSequence: {
      const auto& seq = static_cast<const SequenceExpr&>(expr);
      for (const ExprPtr& item : seq.items) {
        if (MentionsVar(*item, name)) return true;
      }
      return false;
    }
    case ExprKind::kIf: {
      const auto& cond = static_cast<const IfExpr&>(expr);
      return MentionsVar(*cond.cond, name) ||
             MentionsVar(*cond.then_branch, name) ||
             MentionsVar(*cond.else_branch, name);
    }
    case ExprKind::kFunctionCall: {
      const auto& call = static_cast<const FunctionCallExpr&>(expr);
      for (const ExprPtr& arg : call.args) {
        if (MentionsVar(*arg, name)) return true;
      }
      return false;
    }
  }
  return true;  // unknown: be conservative
}

/// True iff `expr` is a bare predicate-free path rooted at $var: the
/// hashable join side.
bool AsVarKeyPath(const Expr& expr, const std::string& var) {
  if (expr.kind != ExprKind::kPath) return false;
  const auto& path = static_cast<const PathExpr&>(expr);
  if (path.source->kind != ExprKind::kVar ||
      static_cast<const VarExpr&>(*path.source).name != var) {
    return false;
  }
  if (!path.predicates.empty()) return false;
  for (const PathStepAst& step : path.steps) {
    if (!step.predicates.empty()) return false;
  }
  return true;
}

/// True iff a predicate expression only reads its own context chain
/// (no variables/functions), so it doesn't break invariance of the
/// enclosing path.
bool IsPredicateSelfContained(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kDoc:
    case ExprKind::kLiteral:
    case ExprKind::kContext:  // the predicate's own context item
      return true;
    case ExprKind::kVar:
    case ExprKind::kFlwor:
    case ExprKind::kElementCtor:
    case ExprKind::kFunctionCall:
      return false;
    case ExprKind::kPath: {
      const auto& path = static_cast<const PathExpr&>(expr);
      if (!IsPredicateSelfContained(*path.source)) return false;
      for (const ExprPtr& pred : path.predicates) {
        if (!IsPredicateSelfContained(*pred)) return false;
      }
      for (const PathStepAst& step : path.steps) {
        for (const ExprPtr& pred : step.predicates) {
          if (!IsPredicateSelfContained(*pred)) return false;
        }
      }
      return true;
    }
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(expr);
      return IsPredicateSelfContained(*cmp.left) &&
             IsPredicateSelfContained(*cmp.right);
    }
    case ExprKind::kSequence: {
      const auto& seq = static_cast<const SequenceExpr&>(expr);
      for (const ExprPtr& item : seq.items) {
        if (!IsPredicateSelfContained(*item)) return false;
      }
      return true;
    }
    case ExprKind::kIf: {
      const auto& cond = static_cast<const IfExpr&>(expr);
      return IsPredicateSelfContained(*cond.cond) &&
             IsPredicateSelfContained(*cond.then_branch) &&
             IsPredicateSelfContained(*cond.else_branch);
    }
  }
  return false;
}

/// True iff the expression reads nothing from the environment (no
/// variables, no context item, no function calls) — its value is
/// loop-invariant.
bool IsEnvironmentFree(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kDoc:
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kVar:
    case ExprKind::kContext:
    case ExprKind::kFunctionCall:  // conservative: body may use params
      return false;
    case ExprKind::kPath: {
      const auto& path = static_cast<const PathExpr&>(expr);
      // Step predicates see the step's element as '.', which is not an
      // outer-environment read: a lone leading ContextExpr inside a
      // predicate is still invariant. Conservatively require predicates
      // to reference nothing but their own context chain.
      if (!IsEnvironmentFree(*path.source)) return false;
      for (const ExprPtr& pred : path.predicates) {
        if (!IsPredicateSelfContained(*pred)) return false;
      }
      for (const PathStepAst& step : path.steps) {
        for (const ExprPtr& pred : step.predicates) {
          if (!IsPredicateSelfContained(*pred)) return false;
        }
      }
      return true;
    }
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(expr);
      return IsEnvironmentFree(*cmp.left) && IsEnvironmentFree(*cmp.right);
    }
    case ExprKind::kFlwor:
    case ExprKind::kElementCtor:
      // Constructors allocate fresh nodes: never cache (identity matters).
      return false;
    case ExprKind::kSequence: {
      const auto& seq = static_cast<const SequenceExpr&>(expr);
      for (const ExprPtr& item : seq.items) {
        if (!IsEnvironmentFree(*item)) return false;
      }
      return true;
    }
    case ExprKind::kIf: {
      const auto& cond = static_cast<const IfExpr&>(expr);
      return IsEnvironmentFree(*cond.cond) &&
             IsEnvironmentFree(*cond.then_branch) &&
             IsEnvironmentFree(*cond.else_branch);
    }
  }
  return false;
}

/// The sides of a hash join over the FLWOR's last clause, as (probe,
/// key side), or nulls when its shape admits none: the clause is a `for`
/// over an invariant sequence, and one side of an equality where-clause
/// keys the clause's variable through a bare path while the other side
/// does not mention it.
std::pair<const Expr*, const Expr*> HashJoinSides(const FlworExpr& flwor) {
  if (flwor.clauses.empty() || flwor.where == nullptr ||
      flwor.where->kind != ExprKind::kComparison) {
    return {};
  }
  const FlworClause& clause = flwor.clauses.back();
  if (clause.is_let || !IsEnvironmentFree(*clause.expr)) return {};
  const auto& cmp = static_cast<const ComparisonExpr&>(*flwor.where);
  if (cmp.op != CompOp::kEq) return {};
  if (AsVarKeyPath(*cmp.left, clause.var) &&
      !MentionsVar(*cmp.right, clause.var)) {
    return {cmp.right.get(), cmp.left.get()};
  }
  if (AsVarKeyPath(*cmp.right, clause.var) &&
      !MentionsVar(*cmp.left, clause.var)) {
    return {cmp.left.get(), cmp.right.get()};
  }
  return {};
}

}  // namespace

Status Evaluator::Eval(const Expr& expr, Sequence* out) {
  switch (expr.kind) {
    case ExprKind::kDoc: {
      const auto& doc_expr = static_cast<const DocExpr&>(expr);
      const xml::Document* doc = nullptr;
      auto it = overrides_.find(doc_expr.name);
      if (it != overrides_.end()) {
        doc = it->second;
      } else if (database_ != nullptr) {
        doc = database_->GetDocument(doc_expr.name);
      }
      if (doc == nullptr) {
        return Status::EvalError("unknown document '" + doc_expr.name + "'");
      }
      // The document node: its only child is the root element.
      if (doc->has_root()) out->push_back(NodeHandle{doc, xml::kInvalidNode});
      return Status::OK();
    }
    case ExprKind::kVar: {
      const auto& var = static_cast<const VarExpr&>(expr);
      const Sequence* bound = Lookup(var.name);
      if (bound == nullptr) return UnboundVariable(var.name);
      out->insert(out->end(), bound->begin(), bound->end());
      return Status::OK();
    }
    case ExprKind::kContext: {
      if (context_ == nullptr) {
        return Status::EvalError("no context item for '.'");
      }
      out->push_back(*context_);
      return Status::OK();
    }
    case ExprKind::kPath: {
      const auto& path = static_cast<const PathExpr&>(expr);
      auto [it, inserted] = path_plans_.try_emplace(&path);
      PathPlan& plan = it->second;
      if (inserted) plan.invariant = IsEnvironmentFree(path);
      if (!plan.invariant) return EvalPath(path, out);
      if (!plan.cached) {
        plan.value.clear();
        QV_RETURN_IF_ERROR(EvalPath(path, &plan.value));
        plan.cached = true;
      }
      out->insert(out->end(), plan.value.begin(), plan.value.end());
      return Status::OK();
    }
    case ExprKind::kLiteral: {
      const auto& lit = static_cast<const LiteralExpr&>(expr);
      if (lit.is_number) {
        out->push_back(lit.number);
      } else {
        out->push_back(lit.text);
      }
      return Status::OK();
    }
    case ExprKind::kComparison:
      return EvalComparison(static_cast<const ComparisonExpr&>(expr), out);
    case ExprKind::kFlwor: {
      const auto& flwor = static_cast<const FlworExpr&>(expr);
      auto [it, inserted] = flwor_plans_.try_emplace(&flwor);
      if (inserted) {
        std::tie(it->second.probe, it->second.key_side) =
            HashJoinSides(flwor);
      }
      return EvalFlwor(flwor, it->second, 0, out);
    }
    case ExprKind::kElementCtor:
      return EvalCtor(static_cast<const ElementCtorExpr&>(expr),
                      result_doc_->root(), out);
    case ExprKind::kSequence: {
      const auto& seq_expr = static_cast<const SequenceExpr&>(expr);
      for (const ExprPtr& item : seq_expr.items) {
        QV_RETURN_IF_ERROR(Eval(*item, out));
      }
      return Status::OK();
    }
    case ExprKind::kIf: {
      const auto& if_expr = static_cast<const IfExpr&>(expr);
      bool cond_value = false;
      {
        Scratch cond(this);
        QV_RETURN_IF_ERROR(Eval(*if_expr.cond, cond.get()));
        cond_value = EffectiveBoolean(*cond);
      }
      return Eval(cond_value ? *if_expr.then_branch : *if_expr.else_branch,
                  out);
    }
    case ExprKind::kFunctionCall:
      return EvalFunctionCall(static_cast<const FunctionCallExpr&>(expr),
                              out);
  }
  return Status::Internal("unhandled expression kind");
}

namespace {

// Document order across possibly-different documents: group by document
// identity (root component is unique per Database), then Dewey order.
bool NodeLess(const NodeHandle& a, const NodeHandle& b) {
  if (a.doc != b.doc) {
    if (a.doc->root_component() != b.doc->root_component()) {
      return a.doc->root_component() < b.doc->root_component();
    }
    return a.doc < b.doc;
  }
  return a.node().id < b.node().id;
}

void CollectDescendants(const xml::Document& doc, xml::NodeIndex start,
                        const std::string& tag, Sequence* out) {
  for (xml::NodeIndex child : doc.node(start).children) {
    if (doc.node(child).tag == tag) out->push_back(NodeHandle{&doc, child});
    CollectDescendants(doc, child, tag, out);
  }
}

}  // namespace

void Evaluator::ApplyStep(std::span<const Item> input, const PathStepAst& step,
                          Sequence* out) {
  const size_t start = out->size();
  for (const Item& item : input) {
    const NodeHandle* handle = std::get_if<NodeHandle>(&item);
    if (handle == nullptr) continue;  // atomic values have no children
    if (handle->is_document_node()) {
      // Children of the document node: just the root element. Descendants:
      // the root element and everything below it.
      xml::NodeIndex root = handle->doc->root();
      if (handle->doc->node(root).tag == step.tag) {
        out->push_back(NodeHandle{handle->doc, root});
      }
      if (step.descendant) {
        CollectDescendants(*handle->doc, root, step.tag, out);
      }
      continue;
    }
    if (step.descendant) {
      CollectDescendants(*handle->doc, handle->index, step.tag, out);
    } else {
      for (xml::NodeIndex child : handle->node().children) {
        if (handle->doc->node(child).tag == step.tag) {
          out->push_back(NodeHandle{handle->doc, child});
        }
      }
    }
  }
  // A single input node yields matches in document order with no
  // duplicates (DFS pre-order); only multi-node inputs can interleave.
  if (input.size() > 1) {
    auto begin = out->begin() + static_cast<std::ptrdiff_t>(start);
    std::sort(begin, out->end(), [](const Item& a, const Item& b) {
      return NodeLess(std::get<NodeHandle>(a), std::get<NodeHandle>(b));
    });
    out->erase(std::unique(begin, out->end()), out->end());
  }
}

Status Evaluator::FilterByPredicates(Sequence* seq, size_t from,
                                     const std::vector<ExprPtr>& predicates) {
  if (predicates.empty()) return Status::OK();
  const Item* outer_context = context_;
  size_t kept = from;
  for (size_t i = from; i < seq->size(); ++i) {
    // Predicates evaluate into their own scratch sequences, so the
    // context item stays put while they run.
    context_ = &(*seq)[i];
    bool keep = true;
    for (const ExprPtr& pred : predicates) {
      Scratch value(this);
      Status status = Eval(*pred, value.get());
      if (!status.ok()) {
        context_ = outer_context;
        return status;
      }
      if (!EffectiveBoolean(*value)) {
        keep = false;
        break;
      }
    }
    if (keep) {
      if (kept != i) (*seq)[kept] = std::move((*seq)[i]);
      ++kept;
    }
  }
  context_ = outer_context;
  seq->resize(kept);
  return Status::OK();
}

Status Evaluator::EvalPath(const PathExpr& path, Sequence* out) {
  // The source: a variable is read in place from its binding; anything
  // else (or a filtered variable) is evaluated into scratch.
  Scratch source(this);
  std::span<const Item> current;
  if (path.source->kind == ExprKind::kVar && path.predicates.empty()) {
    const auto& var = static_cast<const VarExpr&>(*path.source);
    const Sequence* bound = Lookup(var.name);
    if (bound == nullptr) return UnboundVariable(var.name);
    current = *bound;
  } else {
    QV_RETURN_IF_ERROR(Eval(*path.source, source.get()));
    QV_RETURN_IF_ERROR(FilterByPredicates(source.get(), 0, path.predicates));
    current = *source;
  }
  if (path.steps.empty()) {
    out->insert(out->end(), current.begin(), current.end());
    return Status::OK();
  }
  // Intermediate steps alternate between two scratch sequences; the last
  // step appends straight into `out`.
  Scratch even(this);
  Scratch odd(this);
  for (size_t i = 0; i < path.steps.size(); ++i) {
    const PathStepAst& step = path.steps[i];
    Sequence* target = i + 1 == path.steps.size() ? out
                       : i % 2 == 0               ? even.get()
                                                  : odd.get();
    if (target != out) target->clear();
    const size_t start = target->size();
    ApplyStep(current, step, target);
    if (target->size() == start) break;
    QV_RETURN_IF_ERROR(FilterByPredicates(target, start, step.predicates));
    current = std::span<const Item>(target->data() + start,
                                    target->size() - start);
  }
  return Status::OK();
}

Status Evaluator::BuildJoinIndex(const FlworExpr& flwor, const FlworPlan& plan,
                                 JoinIndex* index) {
  QV_RETURN_IF_ERROR(Eval(*flwor.clauses.back().expr, &index->items));
  const auto& path = static_cast<const PathExpr&>(*plan.key_side);
  Scratch keys(this);
  Scratch next(this);
  std::string buffer;
  for (size_t i = 0; i < index->items.size(); ++i) {
    // Key values of item i: the path steps applied to the item.
    keys->assign(1, index->items[i]);
    for (const PathStepAst& step : path.steps) {
      next->clear();
      ApplyStep(*keys, step, next.get());
      keys->swap(*next);
      if (keys->empty()) break;
    }
    for (const Item& key : *keys) {
      std::string_view value = JoinKey(key, &buffer);
      // Borrow only a document node's own text: arena nodes move as the
      // arena grows, and re-spelled numbers live in `buffer`.
      const NodeHandle* node = std::get_if<NodeHandle>(&key);
      if (node == nullptr || node->doc == result_doc_.get() ||
          value.data() == buffer.data()) {
        value = index->owned_keys.emplace_back(value);
      }
      index->by_key.emplace_back(value, static_cast<uint32_t>(i));
    }
  }
  std::sort(index->by_key.begin(), index->by_key.end());
  return Status::OK();
}

Status Evaluator::EvalHashJoin(const FlworExpr& flwor, FlworPlan& plan,
                               Sequence* out) {
  if (!plan.join.has_value()) {
    // Built in place: its keys may point into its own `owned_keys`.
    Status built = BuildJoinIndex(flwor, plan, &plan.join.emplace());
    if (!built.ok()) {
      plan.join.reset();
      return built;
    }
  }
  const JoinIndex& index = *plan.join;
  // Matching inner items, in sequence order, each at most once (the
  // where clause is a boolean filter under existential semantics). All
  // matches are found before the return clause runs: it may grow the
  // arena, which moves the text of constructed probe values.
  const size_t base = join_matches_.size();
  {
    Scratch probes(this);
    QV_RETURN_IF_ERROR(Eval(*plan.probe, probes.get()));
    std::string buffer;
    for (const Item& probe : *probes) {
      std::string_view key = JoinKey(probe, &buffer);
      auto match = std::lower_bound(
          index.by_key.begin(), index.by_key.end(), key,
          [](const std::pair<std::string_view, uint32_t>& entry,
             std::string_view k) { return entry.first < k; });
      for (; match != index.by_key.end() && match->first == key; ++match) {
        join_matches_.push_back(match->second);
      }
    }
  }
  std::sort(join_matches_.begin() + static_cast<std::ptrdiff_t>(base),
            join_matches_.end());
  join_matches_.erase(
      std::unique(join_matches_.begin() + static_cast<std::ptrdiff_t>(base),
                  join_matches_.end()),
      join_matches_.end());
  const size_t end = join_matches_.size();
  Status status;
  {
    BindingScope binding(this, flwor.clauses.back().var);
    for (size_t m = base; m < end && status.ok(); ++m) {
      binding.value().assign(1, index.items[join_matches_[m]]);
      status = Eval(*flwor.ret, out);
    }
  }
  join_matches_.resize(base);
  return status;
}

Status Evaluator::EvalFlwor(const FlworExpr& flwor, FlworPlan& plan,
                            size_t clause_index, Sequence* out) {
  if (clause_index == flwor.clauses.size()) {
    if (flwor.where != nullptr) {
      Scratch cond(this);
      QV_RETURN_IF_ERROR(Eval(*flwor.where, cond.get()));
      if (!EffectiveBoolean(*cond)) return Status::OK();
    }
    return Eval(*flwor.ret, out);
  }
  if (plan.probe != nullptr && clause_index + 1 == flwor.clauses.size()) {
    return EvalHashJoin(flwor, plan, out);
  }
  const FlworClause& clause = flwor.clauses[clause_index];
  // The clause expression does not see its own variable: evaluate it
  // before the binding is pushed.
  Scratch bound(this);
  QV_RETURN_IF_ERROR(Eval(*clause.expr, bound.get()));
  BindingScope binding(this, clause.var);
  if (clause.is_let) {
    binding.value().swap(*bound);
    return EvalFlwor(flwor, plan, clause_index + 1, out);
  }
  for (Item& item : *bound) {
    binding.value().clear();
    binding.value().push_back(std::move(item));
    QV_RETURN_IF_ERROR(EvalFlwor(flwor, plan, clause_index + 1, out));
  }
  return Status::OK();
}

void Evaluator::CopyIntoArena(const xml::Document& src,
                              xml::NodeIndex src_index,
                              xml::NodeIndex dst_parent) {
  // `src` may be the arena itself (a constructed element copied into
  // another): AddChild can reallocate node storage, so never hold node
  // references across it.
  xml::NodeIndex copied =
      result_doc_->AddChild(dst_parent, src.node(src_index).tag);
  xml::Node& node = result_doc_->node(copied);
  node.text = src.node(src_index).text;
  node.stats = src.node(src_index).stats;
  for (size_t i = 0; i < src.node(src_index).children.size(); ++i) {
    CopyIntoArena(src, src.node(src_index).children[i], copied);
  }
}

Status Evaluator::EvalCtor(const ElementCtorExpr& ctor, xml::NodeIndex parent,
                           Sequence* out) {
  xml::NodeIndex self = result_doc_->AddChild(parent, ctor.tag);
  std::string buffer;
  for (const ExprPtr& child_expr : ctor.children) {
    if (child_expr->kind == ExprKind::kElementCtor) {
      QV_RETURN_IF_ERROR(EvalCtor(
          static_cast<const ElementCtorExpr&>(*child_expr), self, nullptr));
      continue;
    }
    Scratch value(this);
    QV_RETURN_IF_ERROR(Eval(*child_expr, value.get()));
    for (const Item& item : *value) {
      if (const NodeHandle* handle = std::get_if<NodeHandle>(&item)) {
        CopyIntoArena(*handle->doc, handle->effective_index(), self);
      } else {
        // Atomic values join the element's text, space-separated.
        xml::Node& node = result_doc_->node(self);
        if (!node.text.empty()) node.text.push_back(' ');
        node.text.append(AtomicView(item, &buffer));
      }
    }
  }
  if (out != nullptr) out->push_back(NodeHandle{result_doc_.get(), self});
  return Status::OK();
}

namespace {

// XPath-style general comparison over atomized values: numeric when both
// sides parse as numbers, string otherwise.
bool CompareAtomic(std::string_view left, std::string_view right,
                   CompOp op) {
  double ln = 0;
  double rn = 0;
  if (ParseDouble(left, &ln) && ParseDouble(right, &rn)) {
    switch (op) {
      case CompOp::kEq:
        return ln == rn;
      case CompOp::kLt:
        return ln < rn;
      case CompOp::kGt:
        return ln > rn;
    }
  }
  switch (op) {
    case CompOp::kEq:
      return left == right;
    case CompOp::kLt:
      return left < right;
    case CompOp::kGt:
      return left > right;
  }
  return false;
}

}  // namespace

Status Evaluator::EvalComparison(const ComparisonExpr& cmp, Sequence* out) {
  Scratch left(this);
  Scratch right(this);
  QV_RETURN_IF_ERROR(Eval(*cmp.left, left.get()));
  QV_RETURN_IF_ERROR(Eval(*cmp.right, right.get()));
  // Existential semantics: true if any pair compares true.
  std::string left_buffer;
  std::string right_buffer;
  for (const Item& l : *left) {
    std::string_view lv = AtomicView(l, &left_buffer);
    for (const Item& r : *right) {
      if (CompareAtomic(lv, AtomicView(r, &right_buffer), cmp.op)) {
        out->push_back(true);
        return Status::OK();
      }
    }
  }
  out->push_back(false);
  return Status::OK();
}

Status Evaluator::EvalFunctionCall(const FunctionCallExpr& call,
                                   Sequence* out) {
  if (query_ == nullptr) {
    return Status::EvalError("function call outside a query: " + call.name);
  }
  const FunctionDecl* decl = query_->FindFunction(call.name);
  if (decl == nullptr) {
    return Status::EvalError("unknown function " + call.name);
  }
  if (decl->params.size() != call.args.size()) {
    return Status::EvalError("function " + call.name + " expects " +
                             std::to_string(decl->params.size()) +
                             " arguments");
  }
  if (++call_depth_ > 64) {
    --call_depth_;
    return Status::EvalError("function call depth exceeded (recursion?)");
  }
  Status status = CallFunction(*decl, call, out);
  --call_depth_;
  return status;
}

Status Evaluator::CallFunction(const FunctionDecl& decl,
                               const FunctionCallExpr& call, Sequence* out) {
  // Every argument sees the caller's bindings only, so all are evaluated
  // (into one scratch sequence, split at `ends`) before any parameter is
  // bound. The body sees its parameters and nothing of the caller's: its
  // frame floor hides every binding below them.
  Scratch args(this);
  std::vector<size_t> ends;
  ends.reserve(call.args.size());
  for (const ExprPtr& arg : call.args) {
    QV_RETURN_IF_ERROR(Eval(*arg, args.get()));
    ends.push_back(args->size());
  }
  const size_t depth = depth_;
  size_t begin = 0;
  for (size_t i = 0; i < ends.size(); ++i) {
    PushBinding(decl.params[i])
        .value.assign(args->begin() + static_cast<std::ptrdiff_t>(begin),
                      args->begin() + static_cast<std::ptrdiff_t>(ends[i]));
    begin = ends[i];
  }
  const size_t caller_floor = frame_floor_;
  const FunctionDecl* caller = frame_;
  frame_floor_ = depth;
  frame_ = &decl;
  Status status = Eval(*decl.body, out);
  frame_floor_ = caller_floor;
  frame_ = caller;
  depth_ = depth;
  return status;
}

}  // namespace quickview::xquery
