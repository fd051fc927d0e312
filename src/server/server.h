#ifndef BULLFROG_SERVER_SERVER_H_
#define BULLFROG_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bullfrog/database.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "server/protocol.h"

namespace bullfrog::sql {
class SqlEngine;
}

namespace bullfrog::shard {
class Session;
class ShardedDatabase;
}  // namespace bullfrog::shard

namespace bullfrog::server {

/// How long the redo log keeps records for a replica after its last
/// REPLICATE request (and for a recovered base after a restart, see
/// WalDir::Recover). A replica that stays away longer finds its cursor
/// trimmed and must re-bootstrap from a checkpoint.
inline constexpr int64_t kReplicationLeaseMs = 60000;

/// "offset=<end LSN> retained_from=<base LSN>": the ADMIN offset line.
std::string OffsetLine(const RedoLog& log);

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// 0 = bind an ephemeral port (read it back via Server::port()).
  uint16_t port = 0;
  /// Fixed worker pool size; each worker owns one connection at a time.
  int workers = 4;
  /// Accepted connections waiting for a free worker. When the queue is
  /// full, new connections get a kBusy response and are closed.
  size_t session_queue_capacity = 64;
  /// Per-request payload cap. Larger (sane) requests are drained and
  /// answered with kInvalidArgument without dropping the connection.
  uint32_t max_request_bytes = 4u << 20;
  /// Disconnect a session idle (no request) this long; 0 = never.
  int64_t idle_timeout_ms = 0;
  /// Bound on a mid-frame stall (slow/-loris peer); 0 = unbounded.
  int64_t recv_timeout_ms = 30000;
  /// Submit options used for scripts arriving via the MIGRATE opcode.
  MigrationController::SubmitOptions migrate_options;
  /// Replica mode: QUERY sessions run read-only (only SELECT; writes get
  /// a "read-only replica" error), and MIGRATE / REPLICATE requests are
  /// rejected — a replica neither originates migrations nor feeds
  /// further replicas (cascading is unsupported).
  bool read_only = false;
  /// Extension hook for ADMIN commands the core server does not know
  /// (e.g. "replication", "checkpoint", "dump" — wired up by main.cc or
  /// the embedding process). Return true when the command was handled,
  /// with the response text in *out. May be called concurrently.
  std::function<bool(const std::string& command, std::string* out)> admin_ext;
  /// Installed on every connection's SqlEngine (see
  /// SqlEngine::set_read_through): lets a replica forward mid-migration
  /// reads to its primary.
  std::function<Status(const std::string& sql, const std::string& table)>
      read_through;
};

/// Multi-threaded TCP front end for a bullfrog::Database.
///
/// Threading model: one acceptor thread pushes connected sockets into a
/// bounded queue; `workers` worker threads each pop a socket and serve
/// that connection for its whole lifetime (per-connection session state —
/// the open transaction — lives in a connection-local SqlEngine). All
/// workers funnel into the same Database, whose MigrationController
/// snapshot rules (see DESIGN.md) make concurrent QUERY traffic safe
/// against a MIGRATE submitted over another connection.
///
/// Graceful shutdown: Stop() stops accepting, lets every worker finish
/// the statement it is executing (responses are flushed), drains any
/// request already buffered on its socket, then closes. Clients see a
/// clean EOF between frames, never a torn response.
class Server {
 public:
  Server(Database* db, ServerConfig config);
  /// Sharded front end (bullfrog_serverd --shards=N): QUERY routes
  /// through a per-connection shard::Session, MIGRATE through the
  /// cross-shard coordinator, ADMIN adds the "shards" command and merges
  /// per-shard metrics/traces. REPLICATE is rejected (replication of a
  /// sharded deployment is per-shard WAL segments on disk, not a network
  /// stream). Server metrics bind to the sharded front registry.
  Server(shard::ShardedDatabase* db, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and launches the acceptor + worker threads.
  Status Start();

  /// Graceful shutdown; idempotent. Blocks until all threads joined.
  void Stop();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  struct Counters {
    uint64_t accepted = 0;
    uint64_t rejected_queue_full = 0;
    uint64_t requests = 0;
    uint64_t errors = 0;        ///< Requests answered with non-OK status.
    uint64_t idle_disconnects = 0;
    uint64_t oversized_requests = 0;
    int active_sessions = 0;
  };
  Counters counters() const;

  /// The ADMIN "report" text: server counters, per-opcode latency, and
  /// the MigrationController status report.
  std::string AdminReport() const;

  /// Wire opcodes are 1..kNumOpcodes-1 (see server/protocol.h).
  static constexpr int kNumOpcodes = 6;

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  /// Executes one request; fills status byte + response payload. Exactly
  /// one of `engine` (single-node) / `session` (sharded) is non-null.
  /// `trace_id` != 0 roots a request trace under that id (from a traced
  /// frame or server-side sampling).
  void HandleRequest(uint8_t opcode, const std::string& payload,
                     sql::SqlEngine* engine, shard::Session* session,
                     uint64_t trace_id, uint64_t lease_holder,
                     uint8_t* status_byte, std::string* response);
  std::string AdminText(const std::string& command) const;
  /// Trace plumbing for whichever back end this server fronts.
  obs::TraceSampler& trace_sampler() const;
  obs::ProfileStore& profiles() const;
  /// Fetches the bullfrog_server_* handles from `m` (the Database's
  /// registry, or the sharded front registry).
  void BindMetrics(obs::MetricsRegistry& m);

  /// Waits until `fd` is readable, `deadline_ms` elapses (returns 0), or
  /// shutdown begins (returns -2). Returns 1 when readable, -1 on error.
  int WaitReadable(int fd, int64_t deadline_ms) const;

  /// Exactly one of these is set: db_ for the single-node server,
  /// sharded_ for the partitioned front end.
  Database* db_ = nullptr;
  shard::ShardedDatabase* sharded_ = nullptr;
  ServerConfig config_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread acceptor_;
  std::vector<std::thread> workers_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  // Accepted fds awaiting a worker.

  /// Serves a REPLICATE request (checkpoint or tail subop), refreshing
  /// the connection's redo-log lease `lease_holder`.
  void HandleReplicate(const std::string& payload, uint64_t lease_holder,
                       uint8_t* status_byte, std::string* response);

  // Metrics live on the Database's MetricsRegistry (bullfrog_server_*
  // families), so `ADMIN metrics` exposes the server alongside the txn
  // and migration layers; handles are bound once in the constructor.
  // Histograms are indexed by opcode (1..5).
  obs::Histogram* latency_[kNumOpcodes] = {};
  obs::Counter* accepted_ = nullptr;
  obs::Counter* rejected_queue_full_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* idle_disconnects_ = nullptr;
  obs::Counter* oversized_requests_ = nullptr;
  obs::Gauge* active_sessions_ = nullptr;
};

}  // namespace bullfrog::server

#endif  // BULLFROG_SERVER_SERVER_H_
