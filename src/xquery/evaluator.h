// XQuery-subset evaluator (the "traditional evaluator" of paper Fig 3).
// Evaluates a view expression against a Database — or, via document
// overrides, against PDTs — producing a sequence of (possibly constructed)
// elements. The evaluator is deliberately unaware of PDTs: pruned nodes
// carry their NodeStats payload through element construction, which is the
// paper's "no changes to the XML query evaluator" property.
//
// Once a plan's PDTs are cached the evaluator is the whole query, so it
// avoids per-step heap traffic: every expression appends its items to a
// Sequence the caller supplies, intermediate results live in scratch
// sequences reused at each nesting depth, and variables live on an
// evaluator-owned binding stack whose slots pop when their scope exits.
#ifndef QUICKVIEW_XQUERY_EVALUATOR_H_
#define QUICKVIEW_XQUERY_EVALUATOR_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "xml/dom.h"
#include "xquery/ast.h"

namespace quickview::xquery {

/// A node within some document (base, PDT, or the evaluator's result
/// arena). `index == kInvalidNode` denotes the *document node* itself
/// (what fn:doc() returns), whose only child is the root element.
struct NodeHandle {
  const xml::Document* doc = nullptr;
  xml::NodeIndex index = xml::kInvalidNode;

  bool is_document_node() const { return index == xml::kInvalidNode; }
  /// Resolves the document node to the root element.
  xml::NodeIndex effective_index() const {
    return is_document_node() ? doc->root() : index;
  }
  const xml::Node& node() const { return doc->node(effective_index()); }
  bool operator==(const NodeHandle&) const = default;
};

/// An XQuery item: node, string, number or boolean.
using Item = std::variant<NodeHandle, std::string, double, bool>;
using Sequence = std::vector<Item>;

/// Effective boolean value: false for the empty sequence and a lone false
/// boolean; true otherwise.
bool EffectiveBoolean(const Sequence& seq);

/// Atomic value of an item: an element's directly-contained text (the
/// paper restricts predicates to leaf values), or the literal itself.
std::string AtomicValue(const Item& item);

class Evaluator {
 public:
  /// Result-arena Dewey root component; far above any base document's.
  static constexpr uint32_t kResultRootComponent = 1u << 30;

  explicit Evaluator(const xml::Database* database);

  /// Substitutes `doc` for fn:doc(name) — how the rewritten query "goes
  /// over PDTs instead of the base data" (§3.1).
  void OverrideDocument(const std::string& name, const xml::Document* doc);

  /// Evaluates the query body (with its function declarations in scope).
  Result<Sequence> Evaluate(const Query& query);

  /// Arena holding elements constructed during evaluation. Valid until the
  /// evaluator is destroyed; shared ownership is available for callers
  /// that outlive it.
  const xml::Document& result_doc() const { return *result_doc_; }
  std::shared_ptr<xml::Document> result_doc_shared() const {
    return result_doc_;
  }

 private:
  /// One variable on the binding stack. A popped slot keeps its value's
  /// capacity, so the next binding at the same depth allocates nothing.
  struct Binding {
    const std::string* name = nullptr;
    Sequence value;
  };

  /// Pushes a binding slot for `name`; the destructor pops it.
  class BindingScope {
   public:
    BindingScope(Evaluator* evaluator, const std::string& name);
    ~BindingScope() { --evaluator_->depth_; }
    BindingScope(const BindingScope&) = delete;
    BindingScope& operator=(const BindingScope&) = delete;
    Sequence& value() { return *value_; }

   private:
    Evaluator* evaluator_;
    Sequence* value_;
  };

  /// Borrows an empty sequence from the scratch pool for one scope. The
  /// pool is a stack, so each nesting depth reuses the same storage.
  class Scratch {
   public:
    explicit Scratch(Evaluator* evaluator);
    ~Scratch() { --evaluator_->scratch_top_; }
    Scratch(const Scratch&) = delete;
    Scratch& operator=(const Scratch&) = delete;
    Sequence* get() { return seq_; }
    Sequence& operator*() { return *seq_; }
    Sequence* operator->() { return seq_; }

   private:
    Evaluator* evaluator_;
    Sequence* seq_;
  };

  /// Hash-join index of one FLWOR's inner sequence, built once per
  /// evaluator: `(normalized key, item position)` pairs sorted by key.
  /// Keys borrow the text of document nodes, which is immutable while the
  /// evaluator runs; keys of arena nodes or atomic items (whose bytes can
  /// move) and re-spelled numbers are copied into `owned_keys`, whose
  /// elements never move.
  struct JoinIndex {
    Sequence items;
    std::vector<std::pair<std::string_view, uint32_t>> by_key;
    std::deque<std::string> owned_keys;
  };

  /// What a path expression's value depends on, worked out on its first
  /// evaluation: an environment-free path (no variables, context item or
  /// function calls) is loop-invariant and evaluates once per evaluator.
  struct PathPlan {
    bool invariant = false;
    bool cached = false;
    Sequence value;
  };

  /// A FLWOR's hash-join shape, worked out on its first evaluation: for
  /// `for $x in <invariant> where $x/p = <outer>` the inner sequence is
  /// indexed once by the join key instead of scanned per outer binding
  /// (the value-join evaluation the paper's engine provides).
  struct FlworPlan {
    const Expr* probe = nullptr;     // non-null iff the last clause joins
    const Expr* key_side = nullptr;  // `$x/p`, applied to each inner item
    std::optional<JoinIndex> join;   // built on first use
  };

  Status Eval(const Expr& expr, Sequence* out);
  Status EvalPath(const PathExpr& path, Sequence* out);
  Status EvalFlwor(const FlworExpr& flwor, FlworPlan& plan,
                   size_t clause_index, Sequence* out);
  Status EvalHashJoin(const FlworExpr& flwor, FlworPlan& plan,
                      Sequence* out);
  /// Builds the element under `parent` (the arena root for a top-level
  /// constructor); appends a handle to it to `out` when non-null. A
  /// constructor nested directly in another is built in place under its
  /// parent, never as a temporary that is then copied.
  Status EvalCtor(const ElementCtorExpr& ctor, xml::NodeIndex parent,
                  Sequence* out);
  Status EvalComparison(const ComparisonExpr& cmp, Sequence* out);
  Status EvalFunctionCall(const FunctionCallExpr& call, Sequence* out);
  Status CallFunction(const FunctionDecl& decl, const FunctionCallExpr& call,
                      Sequence* out);

  /// Appends to `out` one location step applied to every node of `input`,
  /// deduplicated and in document order.
  static void ApplyStep(std::span<const Item> input, const PathStepAst& step,
                        Sequence* out);

  /// Keeps the items of `seq` from position `from` on for which every
  /// predicate's effective boolean value is true (predicates see the item
  /// as the context '.').
  Status FilterByPredicates(Sequence* seq, size_t from,
                            const std::vector<ExprPtr>& predicates);

  /// Copies a subtree into the result arena, sharing each pruned node's
  /// NodeStats.
  void CopyIntoArena(const xml::Document& src, xml::NodeIndex src_index,
                     xml::NodeIndex dst_parent);

  Status BuildJoinIndex(const FlworExpr& flwor, const FlworPlan& plan,
                        JoinIndex* index);

  /// Innermost binding of `name` visible in the current scope, or
  /// nullptr when unbound. Inside a function body the search stops at the
  /// call's frame floor: the body sees its parameters and its own
  /// bindings, never its callers'.
  const Sequence* Lookup(const std::string& name) const;
  /// The error for a variable Lookup did not find: a free variable of a
  /// function body is a static error (XQuery's XPST0008), reported as
  /// InvalidArgument naming it; elsewhere it is an EvalError.
  Status UnboundVariable(const std::string& name) const;
  Binding& PushBinding(const std::string& name);

  const xml::Database* database_;
  std::map<std::string, const xml::Document*> overrides_;
  std::shared_ptr<xml::Document> result_doc_;
  const Query* query_ = nullptr;  // for function resolution
  int call_depth_ = 0;            // guards against recursive functions

  // Binding stack: slots [0, depth_) are live; deque slots never move.
  // Slots below frame_floor_ belong to the callers of `frame_`, the
  // function whose body is being evaluated (nullptr outside any call).
  std::deque<Binding> bindings_;
  size_t depth_ = 0;
  size_t frame_floor_ = 0;
  const FunctionDecl* frame_ = nullptr;
  // Scratch pool: sequences [0, scratch_top_) are borrowed.
  std::deque<Sequence> scratch_;
  size_t scratch_top_ = 0;
  // The context item '.' of the predicate being evaluated.
  const Item* context_ = nullptr;
  // Matched inner positions of the hash joins in progress, used as a
  // stack: a nested join appends above its caller's range and truncates
  // back on exit.
  std::vector<uint32_t> join_matches_;

  // Node-based maps: plans stay put while later plans are added.
  std::unordered_map<const PathExpr*, PathPlan> path_plans_;
  std::unordered_map<const FlworExpr*, FlworPlan> flwor_plans_;
};

}  // namespace quickview::xquery

#endif  // QUICKVIEW_XQUERY_EVALUATOR_H_
