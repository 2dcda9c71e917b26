// PrepareLists (paper §4.2.1, Fig 7): issues a fixed number of index
// probes — proportional to the query size, never the data — and returns
// the Dewey-ordered id lists (with selectively-materialized values and
// byte lengths) plus the inverted lists for the query keywords. This is
// the only input GeneratePdt consumes; base documents are never touched.
//
// Probe set: QPT nodes with no mandatory child edges (all leaves included)
// as in Fig 7 lines 5-13, plus 'v'-annotated nodes (values; Fig 7 line
// 15), plus 'c'-annotated interior nodes (quickview extension: their
// subtree byte lengths must come from the index for scoring).
#ifndef QUICKVIEW_PDT_PREPARE_LISTS_H_
#define QUICKVIEW_PDT_PREPARE_LISTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/index_builder.h"
#include "index/index_view.h"
#include "qpt/qpt.h"
#include "xml/dewey_id.h"

namespace quickview::pdt {

/// One id from a path list, tagged with the data path that produced it.
struct ListEntry {
  xml::DeweyId id;
  uint64_t byte_length = 0;
  std::optional<std::string> value;
  int path_ordinal = 0;  // index into PathList::depth_qnodes
};

/// The Dewey-ordered id list for one probed QPT node.
struct PathList {
  int qpt_node = -1;
  /// depth_qnodes[path_ordinal][depth - 1] = QPT nodes that an id prefix
  /// of that depth corresponds to, for ids retrieved from that data path
  /// (all pattern-into-path embeddings; handles repeating tags, App. E).
  std::vector<std::vector<std::vector<int>>> depth_qnodes;
  std::vector<ListEntry> entries;
};

/// The postings for one keyword, with prefix sums so a 'c' node's subtree
/// term frequency is a single range sum over the Dewey-ordered list.
struct InvList {
  std::string term;
  std::vector<index::Posting> postings;
  std::vector<uint64_t> tf_prefix;  // size postings.size() + 1

  void BuildPrefix();
  /// Sum of tf over postings whose id is `id` or a descendant of it.
  uint64_t SubtreeTf(const xml::DeweyId& id) const;
};

/// Subtree term frequencies for ids visited in Dewey order, as a PDT's
/// 'c' nodes are: the postings of each id's subtree start at or after
/// those of the previous id, so one forward cursor per list replaces
/// SubtreeTf's two binary searches. The cursor and each subtree's end
/// are found by galloping, so a long list with few matching ids is not
/// scanned posting by posting.
class SubtreeTfCursor {
 public:
  explicit SubtreeTfCursor(const std::vector<InvList>& inv_lists)
      : inv_lists_(inv_lists), next_(inv_lists.size(), 0) {}

  /// Appends to `term_tf` the subtree tf of `id` in every list, in list
  /// order (each truncated to 32 bits, as NodeStats stores it). Ids must
  /// come in strictly increasing Dewey order.
  void Append(const xml::DeweyId& id, std::vector<uint32_t>* term_tf);

 private:
  const std::vector<InvList>& inv_lists_;
  std::vector<size_t> next_;  // per list: first posting not below the last id
};

struct PreparedLists {
  std::vector<PathList> path_lists;
  std::vector<InvList> inv_lists;  // one per query keyword, in order
  uint64_t index_probes = 0;       // number of path-index pattern probes
};

/// Computes, for a QPT leaf-to-root pattern embedded into the full data
/// path `path` (ids of which sit at depth == segment count), the QPT nodes
/// matching each prefix depth. Exposed for testing.
std::vector<std::vector<int>> MapDepthsToQptNodes(const qpt::Qpt& qpt,
                                                  int leaf,
                                                  const std::string& path);

/// Runs the probes of Fig 7 against the document's index views — the
/// in-memory sorted arrays or disk-resident pages, whichever backs the
/// view.
Result<PreparedLists> PrepareLists(const qpt::Qpt& qpt,
                                   const index::DocumentIndexView& indexes,
                                   const std::vector<std::string>& keywords);

/// The inverted lists of `keywords` (lowercased) in one document, in
/// keyword order, prefix sums built: PrepareLists' keyword probes alone,
/// which is all a keyword-free PDT needs to gain its term frequencies.
Result<std::vector<InvList>> PrepareInvLists(
    const index::DocumentIndexView& indexes,
    const std::vector<std::string>& keywords);

/// Convenience overload over concrete in-memory indices.
inline Result<PreparedLists> PrepareLists(
    const qpt::Qpt& qpt, const index::DocumentIndexes& indexes,
    const std::vector<std::string>& keywords) {
  return PrepareLists(qpt, indexes.View(), keywords);
}

}  // namespace quickview::pdt

#endif  // QUICKVIEW_PDT_PREPARE_LISTS_H_
