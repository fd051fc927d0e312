#ifndef BULLFROG_COMMON_STATUS_H_
#define BULLFROG_COMMON_STATUS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace bullfrog {

/// Error categories used across the library. Modeled after the
/// RocksDB/Arrow Status idiom: the library never throws across its public
/// API; every fallible call returns a Status or a Result<T>.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kConstraintViolation,
  kTxnAborted,   ///< Transaction aborted (deadlock avoidance or explicit).
  kTxnConflict,  ///< Lock acquisition failed under wait-die policy.
  kSchemaMismatch,
  kUnsupported,
  kInternal,
  kBusy,
  kTimedOut,
  kUnavailable,  ///< Connection closed / endpoint not reachable.
  /// A migration submit was accepted but parked behind an in-flight
  /// migration over an overlapping table set; it auto-starts when its
  /// predecessor completes. Not an error in the kBusy sense — the work
  /// WILL happen — but not kOk either: the logical switch has not
  /// occurred when the caller sees this.
  kQueued,
  /// The redo-log records asked for were dropped: nothing retained them
  /// (see RedoLog). A replica whose cursor is trimmed must re-bootstrap.
  kTrimmed,
};

/// Returns a stable human-readable name for a StatusCode.
std::string_view StatusCodeName(StatusCode code);

/// A cheap, copyable success-or-error value.
///
/// The OK state carries no allocation; error states carry a code and a
/// message. Use the factory functions (Status::InvalidArgument(...) etc.)
/// to construct errors.
class Status {
 public:
  /// Constructs an OK status.
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
  static Status ConstraintViolation(std::string msg) {
    return Status(StatusCode::kConstraintViolation, std::move(msg));
  }
  static Status TxnAborted(std::string msg) {
    return Status(StatusCode::kTxnAborted, std::move(msg));
  }
  static Status TxnConflict(std::string msg) {
    return Status(StatusCode::kTxnConflict, std::move(msg));
  }
  static Status SchemaMismatch(std::string msg) {
    return Status(StatusCode::kSchemaMismatch, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Busy(std::string msg) {
    return Status(StatusCode::kBusy, std::move(msg));
  }
  static Status TimedOut(std::string msg) {
    return Status(StatusCode::kTimedOut, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Queued(std::string msg) {
    return Status(StatusCode::kQueued, std::move(msg));
  }
  static Status Trimmed(std::string msg) {
    return Status(StatusCode::kTrimmed, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsConstraintViolation() const {
    return code_ == StatusCode::kConstraintViolation;
  }
  bool IsBusy() const { return code_ == StatusCode::kBusy; }
  bool IsTxnAborted() const { return code_ == StatusCode::kTxnAborted; }
  bool IsTxnConflict() const { return code_ == StatusCode::kTxnConflict; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsQueued() const { return code_ == StatusCode::kQueued; }
  bool IsTrimmed() const { return code_ == StatusCode::kTrimmed; }
  /// True for the transient failures a client is expected to retry
  /// (deadlock-avoidance aborts and lock conflicts).
  bool IsRetryable() const { return IsTxnAborted() || IsTxnConflict(); }

  /// Renders "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Evaluates `expr`; if the resulting Status is not OK, returns it from the
/// enclosing function.
#define BF_RETURN_NOT_OK(expr)                      \
  do {                                              \
    ::bullfrog::Status _st = (expr);                \
    if (!_st.ok()) return _st;                      \
  } while (0)

}  // namespace bullfrog

#endif  // BULLFROG_COMMON_STATUS_H_
