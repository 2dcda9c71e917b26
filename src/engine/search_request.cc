#include "engine/search_request.h"

namespace quickview::engine {

Status ValidateSearchOptions(const SearchOptions& options) {
  if (options.top_k == 0) {
    return Status::InvalidArgument(
        "top_k must be at least 1 (a zero-result search is a caller bug)");
  }
  return Status::OK();
}

Status SearchRequest::Validate() const {
  if (view.empty()) {
    return Status::InvalidArgument("SearchRequest needs a view");
  }
  if (keywords.empty()) {
    return Status::InvalidArgument(
        "SearchRequest requires a non-empty keyword list");
  }
  for (const std::string& keyword : keywords) {
    if (keyword.find('\'') != std::string::npos) {
      return Status::InvalidArgument("keyword must not contain \"'\": " +
                                     keyword);
    }
  }
  return ValidateSearchOptions(options);
}

}  // namespace quickview::engine
