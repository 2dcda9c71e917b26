// Result<T>: a value or a non-OK Status (Arrow-style).
#ifndef QUICKVIEW_COMMON_RESULT_H_
#define QUICKVIEW_COMMON_RESULT_H_

#include <cassert>
#include <utility>
#include <variant>

#include "common/status.h"

namespace quickview {

/// Holds either a value of type T or an error Status. A Result is never
/// constructed from an OK status.
/// [[nodiscard]] for the same reason as Status: dropping a Result drops
/// both the value and the error.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Intentionally implicit so functions can `return value;` / `return status;`.
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : repr_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(repr_).ok());
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(repr_);
  }

  T& value() & {
    assert(ok());
    return std::get<T>(repr_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(repr_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> repr_;
};

namespace internal {
/// Uniform error extraction for the propagation macros below: a Status is
/// its own error, a Result yields its Status.
inline const Status& ToStatus(const Status& status) { return status; }
template <typename T>
const Status& ToStatus(const Result<T>& result) {
  return result.status();
}
}  // namespace internal

#define QV_CONCAT_INNER_(a, b) a##b
#define QV_CONCAT_(a, b) QV_CONCAT_INNER_(a, b)

/// Evaluates a Status- or Result-returning expression; on error returns
/// the Status (a Result's value, if any, is discarded). The Status is
/// copied within the full-expression: `expr` may return a reference
/// into a temporary (`f().status()`), which dies at its end.
#define QUICKVIEW_RETURN_IF_ERROR(expr)                                       \
  do {                                                                        \
    ::quickview::Status _qv_status = ::quickview::internal::ToStatus((expr)); \
    if (!_qv_status.ok()) return _qv_status;                                  \
  } while (false)

/// Evaluates a Result-returning expression; on error returns the Status,
/// otherwise assigns the value to `lhs`.
#define QUICKVIEW_ASSIGN_OR_RETURN(lhs, expr)            \
  QV_ASSIGN_OR_RETURN_IMPL_(                             \
      QV_CONCAT_(_qv_result_, __LINE__), lhs, expr)
#define QV_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).value()

/// Short-form alias, kept for existing call sites.
#define QV_ASSIGN_OR_RETURN(lhs, expr) QUICKVIEW_ASSIGN_OR_RETURN(lhs, expr)

}  // namespace quickview

#endif  // QUICKVIEW_COMMON_RESULT_H_
