#include "common/status.h"

namespace bullfrog {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kConstraintViolation:
      return "ConstraintViolation";
    case StatusCode::kTxnAborted:
      return "TxnAborted";
    case StatusCode::kTxnConflict:
      return "TxnConflict";
    case StatusCode::kSchemaMismatch:
      return "SchemaMismatch";
    case StatusCode::kUnsupported:
      return "Unsupported";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kBusy:
      return "Busy";
    case StatusCode::kTimedOut:
      return "TimedOut";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kQueued:
      return "Queued";
    case StatusCode::kTrimmed:
      return "Trimmed";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace bullfrog
