#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "replication/checkpoint.h"
#include "shard/router.h"
#include "shard/sharded_database.h"
#include "sql/engine.h"
#include "storage/value_codec.h"
#include "txn/log_file.h"

namespace bullfrog::server {

namespace {

/// Poll tick used while waiting for requests, so shutdown and idle
/// timeouts are noticed promptly without a wakeup pipe per session.
constexpr int kPollTickMs = 50;

/// Opcode display names, indexed like latency_ (0 is unused).
constexpr const char* kOpNames[Server::kNumOpcodes] = {
    nullptr, "query", "migrate", "admin", "ping", "replicate"};

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace

std::string OffsetLine(const RedoLog& log) {
  // Base first: it never passes the end read after it.
  const uint64_t base = log.base_lsn();
  return "offset=" + std::to_string(log.end_lsn()) +
         " retained_from=" + std::to_string(base);
}

Server::Server(Database* db, ServerConfig config)
    : db_(db), config_(std::move(config)) {
  BindMetrics(db_->metrics());
}

Server::Server(shard::ShardedDatabase* db, ServerConfig config)
    : sharded_(db), config_(std::move(config)) {
  BindMetrics(sharded_->metrics());
}

void Server::BindMetrics(obs::MetricsRegistry& m) {
  accepted_ = m.GetCounter("bullfrog_server_accepted_total");
  rejected_queue_full_ =
      m.GetCounter("bullfrog_server_rejected_queue_full_total");
  requests_ = m.GetCounter("bullfrog_server_requests_total");
  errors_ = m.GetCounter("bullfrog_server_request_errors_total");
  idle_disconnects_ = m.GetCounter("bullfrog_server_idle_disconnects_total");
  oversized_requests_ =
      m.GetCounter("bullfrog_server_oversized_requests_total");
  active_sessions_ = m.GetGauge("bullfrog_server_active_sessions");
  for (int op = 1; op < kNumOpcodes; ++op) {
    latency_[op] = m.GetHistogram(
        "bullfrog_server_request_seconds",
        std::string("opcode=\"") + kOpNames[op] + "\"",
        obs::MetricsRegistry::LatencyBounds());
  }
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already running");
  }
  stopping_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address '" + config_.host +
                                   "' (IPv4 dotted quad expected)");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status s = Status::Internal(std::string("bind: ") +
                                      std::strerror(errno));
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status s = Status::Internal(std::string("listen: ") +
                                      std::strerror(errno));
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return s;
  }

  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  const int workers = config_.workers > 0 ? config_.workers : 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Wake the acceptor out of accept(2).
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Connections still queued (never picked up by a worker) get a clean
  // busy-shutdown response.
  std::deque<int> leftover;
  {
    std::lock_guard lock(queue_mu_);
    leftover.swap(pending_);
  }
  for (int fd : leftover) {
    (void)WriteFrame(fd, static_cast<uint8_t>(StatusCode::kBusy),
                     "server shutting down");
    CloseFd(fd);
  }
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener closed (shutdown) or fatal error.
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    accepted_->Inc();
    bool enqueued = false;
    {
      std::lock_guard lock(queue_mu_);
      if (pending_.size() < config_.session_queue_capacity &&
          !stopping_.load(std::memory_order_acquire)) {
        pending_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      queue_cv_.notify_one();
    } else {
      rejected_queue_full_->Inc();
      (void)WriteFrame(fd, static_cast<uint8_t>(StatusCode::kBusy),
                       "server busy: session queue full");
      CloseFd(fd);
    }
  }
}

void Server::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) return;  // Stopping and nothing left to serve.
      fd = pending_.front();
      pending_.pop_front();
    }
    active_sessions_->Add(1);
    ServeConnection(fd);
    active_sessions_->Sub(1);
  }
}

int Server::WaitReadable(int fd, int64_t deadline_ms) const {
  Stopwatch waited;
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) {
      // Shutdown drain: serve anything already buffered, then stop.
      pollfd p{fd, POLLIN, 0};
      const int r = ::poll(&p, 1, 0);
      if (r > 0 && (p.revents & (POLLIN | POLLHUP)) != 0) return 1;
      return -2;
    }
    pollfd p{fd, POLLIN, 0};
    const int r = ::poll(&p, 1, kPollTickMs);
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r > 0) {
      if ((p.revents & (POLLIN | POLLHUP)) != 0) return 1;
      return -1;  // POLLERR/POLLNVAL.
    }
    if (deadline_ms > 0 && waited.ElapsedMillis() >= deadline_ms) return 0;
  }
}

void Server::ServeConnection(int fd) {
  // Bound mid-frame stalls so a slow peer cannot pin a worker forever.
  if (config_.recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(config_.recv_timeout_ms / 1000);
    tv.tv_usec =
        static_cast<suseconds_t>((config_.recv_timeout_ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  // Per-connection session state: a shard::Session (one engine per
  // shard) on the sharded front end, a plain SqlEngine otherwise.
  std::unique_ptr<sql::SqlEngine> engine;
  std::unique_ptr<shard::Session> session;
  // This connection's redo-log lease, should it send REPLICATE.
  uint64_t lease_holder = 0;
  if (sharded_ != nullptr) {
    session = std::make_unique<shard::Session>(sharded_);
  } else {
    lease_holder = db_->txns().redo_log().NewLeaseHolder();
    engine = std::make_unique<sql::SqlEngine>(db_);
    engine->set_read_only(config_.read_only);
    if (config_.read_through != nullptr) {
      engine->set_read_through(config_.read_through);
    }
  }
  for (;;) {
    const int ready = WaitReadable(fd, config_.idle_timeout_ms);
    if (ready == 0) {
      idle_disconnects_->Inc();
      (void)WriteFrame(fd, static_cast<uint8_t>(StatusCode::kTimedOut),
                       "idle timeout, disconnecting");
      break;
    }
    if (ready < 0) break;  // -1 socket error, -2 graceful shutdown.

    uint8_t opcode = 0;
    std::string payload;
    const FrameRead fr =
        ReadFrame(fd, config_.max_request_bytes, &opcode, &payload);
    if (fr == FrameRead::kEof || fr == FrameRead::kError) break;
    requests_->Inc();
    if (fr == FrameRead::kTooLarge) {
      oversized_requests_->Inc();
      errors_->Inc();
      const Status s = WriteFrame(
          fd, static_cast<uint8_t>(StatusCode::kInvalidArgument),
          "request exceeds max_request_bytes (" +
              std::to_string(config_.max_request_bytes) + ")");
      if (!s.ok()) break;
      continue;  // Stream is still in sync; keep the session.
    }

    // Optional trace-id frame field: a flagged kQuery carries a u64 id
    // before the SQL text. Frames without the flag — everything an old
    // client sends — take the exact pre-tracing path.
    uint64_t trace_id = 0;
    if (IsTracedFrame(opcode) &&
        BaseOpcode(opcode) == static_cast<uint8_t>(Opcode::kQuery) &&
        payload.size() >= kTraceIdBytes) {
      for (size_t i = 0; i < kTraceIdBytes; ++i) {
        trace_id |= static_cast<uint64_t>(
                        static_cast<unsigned char>(payload[i]))
                    << (8 * i);
      }
      payload.erase(0, kTraceIdBytes);
      opcode = BaseOpcode(opcode);
    }

    Stopwatch request_clock;
    uint8_t status_byte = 0;
    std::string response;
    HandleRequest(opcode, payload, engine.get(), session.get(), trace_id,
                  lease_holder, &status_byte, &response);
    if (opcode >= 1 && opcode < kNumOpcodes) {
      latency_[opcode]->ObserveNanos(request_clock.ElapsedNanos());
    }
    // kQueued is an accepted-but-parked migration, not a failure.
    if (status_byte != 0 &&
        status_byte != static_cast<uint8_t>(StatusCode::kQueued)) {
      errors_->Inc();
    }
    if (!WriteFrame(fd, status_byte, response).ok()) break;
  }
  // Release any transaction the client left open before the fd dies.
  if (engine != nullptr) engine->ResetSession();
  if (session != nullptr) session->ResetSession();
  CloseFd(fd);
}

void Server::HandleRequest(uint8_t opcode, const std::string& payload,
                           sql::SqlEngine* engine, shard::Session* session,
                           uint64_t trace_id, uint64_t lease_holder,
                           uint8_t* status_byte, std::string* response) {
  *status_byte = 0;
  response->clear();
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kPing:
      *response = "pong";
      return;
    case Opcode::kQuery: {
      // Root creation at the server frame: a client-supplied id wins;
      // otherwise BF_TRACE_SAMPLE picks 1-in-N statements with a
      // server-generated id. The trace binds for the whole statement so
      // every layer underneath attributes into it.
      if (trace_id == 0 && trace_sampler().Sample()) {
        trace_id = obs::TraceSampler::NextTraceId();
      }
      std::shared_ptr<obs::TraceContext> trace;
      if (trace_id != 0) {
        trace = std::make_shared<obs::TraceContext>(trace_id, payload);
      }
      auto run = [&] {
        return session != nullptr ? session->Execute(payload)
                                  : engine->Execute(payload);
      };
      auto result = [&] {
        if (trace == nullptr) return run();
        obs::TraceBinding bind(trace.get());
        return run();
      }();
      if (trace != nullptr) {
        trace->Finish();
        profiles().Record(std::move(trace));
      }
      if (!result.ok()) {
        *status_byte = static_cast<uint8_t>(result.status().code());
        *response = result.status().message();
        return;
      }
      ResultSet rs;
      rs.columns = std::move(result->columns);
      rs.rows = std::move(result->rows);
      rs.affected = result->affected;
      *response = EncodeResultSet(rs);
      return;
    }
    case Opcode::kMigrate: {
      if (config_.read_only) {
        *status_byte = static_cast<uint8_t>(StatusCode::kUnsupported);
        *response =
            "read-only replica: submit migrations to the primary instead";
        return;
      }
      const Status s =
          session != nullptr
              ? session->SubmitMigrationScript(payload,
                                               config_.migrate_options)
              : engine->SubmitMigrationScript(payload,
                                              config_.migrate_options);
      if (!s.ok()) {
        *status_byte = static_cast<uint8_t>(s.code());
        *response = s.message();
      }
      return;
    }
    case Opcode::kAdmin:
      *response = AdminText(payload);
      return;
    case Opcode::kReplicate:
      HandleReplicate(payload, lease_holder, status_byte, response);
      return;
    default:
      *status_byte = static_cast<uint8_t>(StatusCode::kUnsupported);
      *response = "unknown opcode " + std::to_string(opcode);
      return;
  }
}

std::string Server::AdminText(const std::string& command) const {
  if (command == "progress") {
    double progress;
    bool complete;
    if (sharded_ != nullptr) {
      // Coordinated view: complete only when every shard has drained.
      progress = sharded_->coordinator().Progress();
      complete = sharded_->coordinator().IsComplete();
    } else {
      const MigrationController& c = db_->controller();
      progress = c.Progress();
      complete = c.IsComplete();
    }
    char line[96];
    std::snprintf(line, sizeof(line), "progress=%.6f complete=%d", progress,
                  complete ? 1 : 0);
    return line;
  }
  if (command == "offset") {
    // The current redo-log size — the apply barrier a replica waits on
    // after forwarding a mid-migration read to this primary. Sharded:
    // the sum plus one offset per shard segment.
    // retained_from is the lowest LSN still held in memory (the sum of
    // the shards' when sharded): equal to offset unless a replica lease
    // or a pin keeps records.
    if (sharded_ != nullptr) {
      uint64_t retained = 0;
      for (size_t i = 0; i < sharded_->num_shards(); ++i) {
        retained += sharded_->shard(i)->txns().redo_log().base_lsn();
      }
      const auto offsets = sharded_->LogOffsets();
      uint64_t total = 0;
      for (uint64_t o : offsets) total += o;
      std::string out = "offset=" + std::to_string(total) +
                        " retained_from=" + std::to_string(retained);
      for (size_t i = 0; i < offsets.size(); ++i) {
        out += " shard" + std::to_string(i) + "=" + std::to_string(offsets[i]);
      }
      return out;
    }
    return OffsetLine(db_->txns().redo_log());
  }
  if (command == "metrics") {
    // Prometheus text exposition of the whole registry: server, txn,
    // lock, migration, replication families in one scrape. Sharded: the
    // front registry followed by one section per shard.
    return sharded_ != nullptr ? sharded_->RenderMetrics()
                               : db_->metrics().RenderPrometheus();
  }
  if (command == "trace") {
    return sharded_ != nullptr ? sharded_->RenderTraces()
                               : db_->tracer().Render();
  }
  if (command == "profile" || command.rfind("profile ", 0) == 0) {
    // "profile" = the most recent finished trace; "profile <id>" (hex
    // 0x... or decimal, as printed by the render) = that trace.
    uint64_t id = 0;
    if (command.size() > 8) {
      id = std::strtoull(command.c_str() + 8, nullptr, 0);
    }
    return sharded_ != nullptr ? sharded_->RenderProfile(id)
                               : db_->profiles().RenderProfile(id);
  }
  if (command == "slowlog") {
    return sharded_ != nullptr ? sharded_->RenderSlowlog()
                               : db_->profiles().RenderSlowlog();
  }
  if (command == "timeseries") {
    if (sharded_ != nullptr) return sharded_->RenderTimeseries();
    return db_->timeseries() != nullptr ? db_->timeseries()->Render()
                                        : "timeseries not running\n";
  }
  if (command == "shards") {
    return sharded_ != nullptr
               ? sharded_->StatusReport()
               : "not sharded (started without --shards)";
  }
  if (config_.admin_ext != nullptr) {
    std::string out;
    if (config_.admin_ext(command, &out)) return out;
  }
  if (command.empty() || command == "report") return AdminReport();
  return "unknown admin command '" + command +
         "' (expected 'report', 'progress', 'offset', 'metrics', 'trace', "
         "'profile [id]', 'slowlog', 'timeseries', or 'shards')";
}

void Server::HandleReplicate(const std::string& payload, uint64_t lease_holder,
                             uint8_t* status_byte, std::string* response) {
  auto fail = [&](StatusCode code, const std::string& msg) {
    *status_byte = static_cast<uint8_t>(code);
    *response = msg;
  };
  if (sharded_ != nullptr) {
    return fail(StatusCode::kUnsupported,
                "REPLICATE is unavailable on a sharded server: each shard "
                "has its own log; replicate shards individually or copy "
                "the per-shard WAL segments");
  }
  if (config_.read_only) {
    return fail(StatusCode::kUnsupported,
                "read-only replica: cascading replication is unsupported; "
                "replicate from the primary");
  }
  codec::ByteReader reader(payload);
  uint8_t subop = 0;
  if (!reader.GetU8(&subop)) {
    return fail(StatusCode::kInvalidArgument, "REPLICATE: missing subop");
  }
  // Each request refreshes this connection's lease at the LSN the
  // replica will read next, so the log keeps [lsn, end) until the lease
  // lapses (a replica that reconnects within the period resumes).
  RedoLog& log = db_->txns().redo_log();
  if (subop == 1) {  // Checkpoint bootstrap.
    // Lease before the capture: its offset is at or past this end LSN,
    // and the records from it on must survive until the first tail.
    log.Lease(lease_holder, log.end_lsn(), kReplicationLeaseMs);
    std::string blob;
    const Status s = replication::CaptureCheckpoint(db_, &blob);
    if (!s.ok()) return fail(s.code(), s.message());
    const Result<uint64_t> offset = replication::CheckpointOffset(blob);
    if (!offset.ok()) {
      return fail(offset.status().code(), offset.status().message());
    }
    log.Lease(lease_holder, *offset, kReplicationLeaseMs);
    *response = std::move(blob);
    return;
  }
  if (subop == 2) {  // Incremental tail.
    uint64_t from = 0;
    uint32_t max_records = 0, wait_ms = 0;
    if (!reader.GetU64(&from) || !reader.GetU32(&max_records) ||
        !reader.GetU32(&wait_ms)) {
      return fail(StatusCode::kInvalidArgument, "REPLICATE: bad tail request");
    }
    max_records = std::min<uint32_t>(std::max<uint32_t>(max_records, 1), 65536);
    // Block on the redo log's growth condition (a committed group-commit
    // batch wakes tails immediately — no sleep-poll latency), in short
    // ticks so server shutdown stays prompt.
    log.Lease(lease_holder, from, kReplicationLeaseMs);
    std::vector<LogRecord> records;
    Result<uint64_t> end = log.ReadFrom(from, max_records, &records);
    Stopwatch waited;
    while (end.ok() && records.empty() && waited.ElapsedMillis() < wait_ms &&
           !stopping_.load(std::memory_order_acquire)) {
      const int64_t remaining =
          static_cast<int64_t>(wait_ms) - waited.ElapsedMillis();
      log.WaitForSize(from, std::clamp<int64_t>(remaining, 0, kPollTickMs));
      end = log.ReadFrom(from, max_records, &records);
    }
    // kTrimmed: `from` is below what the log retains; the replica must
    // re-bootstrap from a checkpoint.
    if (!end.ok()) return fail(end.status().code(), end.status().message());
    // Batch frame keyed by LSN: the replica checks start_lsn against its
    // own applied offset to detect gaps or divergence before applying.
    codec::PutU64(response, *end);
    codec::PutU64(response, from);  // start_lsn of this frame.
    codec::PutU32(response, static_cast<uint32_t>(records.size()));
    for (const LogRecord& r : records) EncodeLogRecord(response, r);
    return;
  }
  fail(StatusCode::kInvalidArgument,
       "REPLICATE: unknown subop " + std::to_string(subop));
}

obs::TraceSampler& Server::trace_sampler() const {
  return sharded_ != nullptr ? sharded_->trace_sampler()
                             : db_->trace_sampler();
}

obs::ProfileStore& Server::profiles() const {
  return sharded_ != nullptr ? sharded_->profiles() : db_->profiles();
}

Server::Counters Server::counters() const {
  Counters c;
  c.accepted = accepted_->value();
  c.rejected_queue_full = rejected_queue_full_->value();
  c.requests = requests_->value();
  c.errors = errors_->value();
  c.idle_disconnects = idle_disconnects_->value();
  c.oversized_requests = oversized_requests_->value();
  c.active_sessions = static_cast<int>(active_sessions_->value());
  return c;
}

std::string Server::AdminReport() const {
  const Counters c = counters();
  std::string out = "bullfrog server report\n";
  char line[192];
  std::snprintf(line, sizeof(line),
                "sessions: active=%d accepted=%llu rejected=%llu\n",
                c.active_sessions,
                static_cast<unsigned long long>(c.accepted),
                static_cast<unsigned long long>(c.rejected_queue_full));
  out += line;
  std::snprintf(line, sizeof(line),
                "requests: total=%llu errors=%llu oversized=%llu "
                "idle_disconnects=%llu\n",
                static_cast<unsigned long long>(c.requests),
                static_cast<unsigned long long>(c.errors),
                static_cast<unsigned long long>(c.oversized_requests),
                static_cast<unsigned long long>(c.idle_disconnects));
  out += line;
  for (int op = 1; op < kNumOpcodes; ++op) {
    const obs::Histogram& h = *latency_[op];
    std::snprintf(line, sizeof(line),
                  "latency %-9s n=%llu p50=%.3fms p95=%.3fms p99=%.3fms\n",
                  kOpNames[op], static_cast<unsigned long long>(h.count()),
                  h.Quantile(0.50) * 1e3, h.Quantile(0.95) * 1e3,
                  h.Quantile(0.99) * 1e3);
    out += line;
  }
  if (sharded_ != nullptr) {
    out += sharded_->coordinator().StatusReport();
  } else {
    out += db_->controller().StatusReport();
  }
  return out;
}

}  // namespace bullfrog::server
