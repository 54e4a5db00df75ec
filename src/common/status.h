#ifndef TREEBENCH_COMMON_STATUS_H_
#define TREEBENCH_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace treebench {

/// Error categories used across the engine. Mirrors the usual
/// RocksDB/Arrow-style status taxonomy: library code returns a Status (or
/// Result<T>) instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kCorruption,
  kResourceExhausted,
  kUnimplemented,
  kInternal,
  kUnavailable,  // transient failure (RPC timeout, disk hiccup); retryable
  kAborted,      // transaction killed (deadlock victim, explicit rollback)
};

/// Returns a stable human-readable name ("Ok", "NotFound", ...).
std::string_view StatusCodeName(StatusCode code);

/// A cheap, copyable success-or-error value. The OK status carries no
/// allocation; error statuses carry a message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }

  /// "Ok" or "NotFound: no such file".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Result<T> is either a value or an error Status. Modeled after
/// arrow::Result / absl::StatusOr.
template <typename T>
class Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): mirroring StatusOr.
  Result(T value) : repr_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Status status) : repr_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(repr_);
  }

  T& value() & { return std::get<T>(repr_); }
  const T& value() const& { return std::get<T>(repr_); }
  T&& value() && { return std::get<T>(std::move(repr_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> repr_;
};

// Propagates a non-OK status to the caller.
#define TB_RETURN_IF_ERROR(expr)                 \
  do {                                           \
    ::treebench::Status _st = (expr);            \
    if (!_st.ok()) return _st;                   \
  } while (0)

// Evaluates a Result<T> expression; on error returns its status, otherwise
// moves the value into `lhs`.
#define TB_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                             \
  if (!tmp.ok()) return tmp.status();            \
  lhs = std::move(tmp).value()

#define TB_ASSIGN_OR_RETURN(lhs, expr) \
  TB_ASSIGN_OR_RETURN_IMPL(TB_CONCAT_(_res_, __LINE__), lhs, expr)

#define TB_CONCAT_INNER_(a, b) a##b
#define TB_CONCAT_(a, b) TB_CONCAT_INNER_(a, b)

}  // namespace treebench

#endif  // TREEBENCH_COMMON_STATUS_H_
