#include "server/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "storage/value_codec.h"

namespace bullfrog::server {

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status Client::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::InvalidArgument("already connected");

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  const int gai = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (gai != 0) {
    return Status::Unavailable("resolve '" + host +
                               "': " + ::gai_strerror(gai));
  }
  Status last = Status::Unavailable("no addresses for '" + host + "'");
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::Internal(std::string("socket: ") + std::strerror(errno));
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fd_ = fd;
      ::freeaddrinfo(res);
      return Status::OK();
    }
    last = Status::Unavailable("connect " + host + ":" + port_str + ": " +
                               std::strerror(errno));
    ::close(fd);
  }
  ::freeaddrinfo(res);
  return last;
}

Status Client::Connect(const std::string& host_port) {
  std::string host;
  uint16_t port = 0;
  BF_RETURN_NOT_OK(ParseHostPort(host_port, &host, &port));
  return Connect(host, port);
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::string> Client::RoundTrip(Opcode op, const std::string& payload) {
  return RoundTripRaw(static_cast<uint8_t>(op), payload);
}

Result<std::string> Client::RoundTripRaw(uint8_t op,
                                         const std::string& payload) {
  if (fd_ < 0) return Status::Unavailable("not connected");
  Status w = WriteFrame(fd_, op, payload);
  if (!w.ok()) {
    Close();
    return Status::Unavailable("connection lost: " + w.message());
  }
  uint8_t status_byte = 0;
  std::string response;
  const FrameRead fr =
      ReadFrame(fd_, kMaxSaneFrameBytes - 1, &status_byte, &response);
  if (fr == FrameRead::kEof) {
    Close();
    return Status::Unavailable("connection closed by server");
  }
  if (fr != FrameRead::kOk) {
    Close();
    return Status::Internal("malformed response frame");
  }
  if (status_byte != 0) {
    if (status_byte > static_cast<uint8_t>(StatusCode::kTrimmed)) {
      return Status::Internal("unknown status byte " +
                              std::to_string(status_byte) + ": " + response);
    }
    return Status(static_cast<StatusCode>(status_byte), std::move(response));
  }
  return response;
}

Status Client::Ping() {
  return RoundTrip(Opcode::kPing, "").status();
}

Result<ResultSet> Client::Query(const std::string& sql, uint64_t trace_id) {
  Result<std::string> round_trip = [&] {
    if (trace_id == 0) return RoundTrip(Opcode::kQuery, sql);
    // Traced frame: flagged opcode, little-endian u64 id before the SQL.
    std::string framed;
    framed.reserve(kTraceIdBytes + sql.size());
    for (size_t i = 0; i < kTraceIdBytes; ++i) {
      framed.push_back(static_cast<char>((trace_id >> (8 * i)) & 0xff));
    }
    framed.append(sql);
    return RoundTripRaw(
        static_cast<uint8_t>(Opcode::kQuery) | kTracedFlag, framed);
  }();
  if (!round_trip.ok()) return round_trip.status();
  std::string payload = std::move(round_trip).value();
  ResultSet rs;
  if (!DecodeResultSet(payload, &rs)) {
    return Status::Internal("malformed result set in response");
  }
  return rs;
}

Status Client::Migrate(const std::string& script) {
  return RoundTrip(Opcode::kMigrate, script).status();
}

Result<std::string> Client::Admin(const std::string& command) {
  return RoundTrip(Opcode::kAdmin, command);
}

Result<std::string> Client::FetchCheckpoint() {
  std::string payload;
  payload.push_back(1);  // subop 1: checkpoint.
  return RoundTrip(Opcode::kReplicate, payload);
}

Result<std::string> Client::TailLog(uint64_t from, uint32_t max_records,
                                    uint32_t wait_ms) {
  std::string payload;
  payload.push_back(2);  // subop 2: tail.
  codec::PutU64(&payload, from);
  codec::PutU32(&payload, max_records);
  codec::PutU32(&payload, wait_ms);
  return RoundTrip(Opcode::kReplicate, payload);
}

Result<double> Client::MigrationProgress() {
  BF_ASSIGN_OR_RETURN(std::string text, Admin("progress"));
  // "progress=<frac> complete=<0|1>"
  const size_t eq = text.find("progress=");
  if (eq != 0) return Status::Internal("bad progress line: " + text);
  return std::strtod(text.c_str() + sizeof("progress=") - 1, nullptr);
}

}  // namespace bullfrog::server
