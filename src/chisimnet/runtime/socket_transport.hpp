#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/runtime/heartbeat.hpp"
#include "chisimnet/runtime/wire.hpp"

/// Socket transport: worker ranks in separate OS processes.
///
/// The paper's synthesis runs on real MPI processes; this transport is the
/// corresponding real process boundary for chisimnet. Only rank 0 lives in
/// this process: SocketTransport implements the root side of the Transport
/// API, and workers use WorkerLink directly. Every connection speaks the
/// CSF1 framing of runtime/wire.hpp, whichever socket carries it.
///
/// ## Two bootstraps, one slot machine
///
/// A bootstrap only decides how a worker's connected fd reaches its slot:
///
///   - kSpawn: socketpair + fork/exec per rank; the child inherits its end
///     (CHISIM_WORKER_FD). Unix-domain stream, shared filesystem.
///   - kAccept: the root listens on TCP; workers dial in
///     (CHISIM_WORKER_TCP). By default the root fork/execs loopback
///     dialers itself; with spawnWorkers off it waits for workers started
///     elsewhere (`chisim worker --connect host:port --rank N`).
///
/// Either way the WORKER opens the handshake: kind=hello, tag=rank,
/// payload=[claimed epoch u64] — 0 on a first connection, the last granted
/// epoch on a re-dial. The root validates it (rank in range, slot expecting
/// a connection, and for a dialed slot the claimed epoch — a stale zombie
/// or a double-connect is refused by closing the socket) and answers
/// kind=hello-ack, tag=granted epoch, payload=application hello bytes
/// (serialized stage parameters), so the worker holds its parameters
/// before any command can arrive.
///
/// Each worker slot moves through:
///
///   spawning --+                    +-> respawning -> live   (kSpawn)
///              +-> live -> disconnected
///   connecting +                    +-> connecting -> live   (kAccept)
///                                   +-> dead
///
/// Death is detected by socket EOF / torn frame in the slot's pump thread,
/// by ping silence (heartbeatMissLimit * heartbeatMs without any frame),
/// and, for slots backed by a local child, by waitpid in the monitor tick.
/// Recovery follows from the bootstrap:
///
///   - a spawned slot is respawned (fresh process, bumped epoch) while
///     maxRespawns allows; a silent child is SIGKILLed;
///   - a dialed slot waits reconnectGraceMs for the worker to re-dial; a
///     silent connection is only poisoned (never a kill — the peer may be
///     remote), and a reaped loopback child is lost at once.
///
/// A slot that is quiesced, forsaken or out of recovery goes dead, and
/// recvFor() on it returns nullopt immediately so the driver converges to
/// markLost + reassignment without waiting out its deadline. Sends to a
/// slot without a live connection are dropped: the driver's per-command
/// timeout/retry re-sends, which the epoch-stamped replies tolerate.
///
/// ## Fault sites (runtime/fault.hpp)
///
///   proc.send         root send path, per frame: kTruncate tears it,
///                     kKillRank SIGKILLs the destination's local child
///   tcp.delay         root send path, per frame: kDelay stalls it
///   tcp.drop          root send path, per frame: kKillRank drops the
///                     connection, kTruncate tears the frame
///   tcp.accept        accept loop, per parsed hello: kThrow refuses it
///   tcp.connect       worker, per dial attempt: kThrow fails it
///   proc.worker.send  worker send path, per frame: kTruncate tears it
///
/// Addressing is `host:port` strings end to end; the transport trusts its
/// network (see DESIGN.md §3.5 for the TLS seam).

namespace chisimnet::runtime {

/// Environment variables that carry the worker bootstrap across exec.
inline constexpr const char* kWorkerFdEnv = "CHISIM_WORKER_FD";
inline constexpr const char* kWorkerTcpEnv = "CHISIM_WORKER_TCP";
inline constexpr const char* kWorkerRankEnv = "CHISIM_WORKER_RANK";
inline constexpr const char* kWorkerRankCountEnv = "CHISIM_WORKER_RANKS";
inline constexpr const char* kWorkerConnectTimeoutEnv =
    "CHISIM_WORKER_CONNECT_TIMEOUT_MS";
inline constexpr const char* kWorkerConnectRetriesEnv =
    "CHISIM_WORKER_CONNECT_RETRIES";
inline constexpr const char* kWorkerFaultPlanEnv = "CHISIM_FAULT_PLAN";

/// A worker bootstrap variable that is missing, not a whole decimal
/// integer, or out of range. what() names the variable.
class WorkerBootstrapError : public std::invalid_argument {
 public:
  WorkerBootstrapError(std::string variable, const std::string& problem);
  const std::string& variable() const noexcept { return variable_; }

 private:
  std::string variable_;
};

/// Splits "host:port" (the last ':' separates the port, so bracketless
/// IPv6 is not supported). The port must be all digits in 1..65535.
/// Throws on malformed input.
std::pair<std::string, std::uint16_t> parseHostPort(const std::string& spec);

/// Dials host:port once with a poll()-based timeout (non-blocking connect,
/// restored to blocking on success). Returns the connected fd, already
/// configured via wire::configureStreamSocket(fd, /*tcp=*/true). Throws on
/// failure or timeout. Fires fault site "tcp.connect" (rank = `rank`) per
/// attempt when a plan is armed.
int dialOnce(const std::string& host, std::uint16_t port,
             std::chrono::milliseconds timeout, int rank);

/// dialOnce with `1 + retries` total attempts and exponential backoff
/// (base `backoffMs`, doubling, capped) between them. Throws when every
/// attempt fails.
int dialWithRetry(const std::string& host, std::uint16_t port,
                  std::chrono::milliseconds perAttemptTimeout, int retries,
                  std::uint64_t backoffMs, int rank);

struct SocketTransportOptions {
  /// Total ranks including the local root (rank 0).
  int rankCount = 0;

  /// Monitor cadence: ping period, reap period, respawn latency.
  std::uint64_t heartbeatMs = 250;

  /// A worker silent for heartbeatMissLimit * heartbeatMs is presumed hung
  /// (spawned slot: SIGKILLed) or half-open (dialed slot: poisoned).
  int heartbeatMissLimit = 8;

  /// kSpawn: times a single rank may be re-execed after its process dies.
  /// 0 disables respawn (first death is permanent loss).
  int maxRespawns = 1;

  /// kAccept: per-attempt connect/handshake timeout.
  std::uint64_t connectTimeoutMs = 5000;

  /// kAccept: additional dial attempts after the first (worker side,
  /// propagated to spawned dialers).
  int connectRetries = 5;

  /// kAccept: how long a disconnected worker may take to re-dial before
  /// the rank is declared dead. 0 = first disconnect is permanent loss.
  std::uint64_t reconnectGraceMs = 3000;

  /// kAccept: listen address. Port 0 binds an ephemeral port.
  std::string listenHost = "127.0.0.1";
  std::uint16_t listenPort = 0;

  /// kAccept: fork/exec one local dialer per rank, pointed at
  /// connectAddresses[rank-1] (or this root's own listen address when the
  /// list is empty/short). false = workers dial in on their own.
  bool spawnWorkers = true;

  /// kAccept: per-worker connect targets, one per rank 1..rankCount-1 (the
  /// "job file"). Empty entries and missing tails default to the root's
  /// own listen address.
  std::vector<std::string> connectAddresses;

  /// Worker binary; empty means /proc/self/exe (re-enter this binary).
  std::string executable;

  /// Application handshake payload carried in every hello-ack, including
  /// respawns and re-dials (e.g. serialized stage parameters).
  std::vector<std::byte> helloPayload;
};

/// Root side of the socket transport (rank 0 is the calling process).
class SocketTransport final : public Transport {
 public:
  enum class Bootstrap { kSpawn, kAccept };

  /// kSpawn returns with every worker live. kAccept binds, listens and (with
  /// spawnWorkers) launches the dialers, but does not wait for them — call
  /// waitForWorkers() before first use so external workers can be started
  /// against the bound port.
  SocketTransport(Bootstrap bootstrap, SocketTransportOptions options);
  ~SocketTransport() override;

  /// kAccept: the bound listen port (port 0 resolved); 0 under kSpawn.
  std::uint16_t port() const noexcept { return port_; }

  /// Blocks until every worker slot has completed its first handshake;
  /// false on timeout.
  bool waitForWorkers(std::chrono::milliseconds timeout);

  int size() const noexcept override { return options_.rankCount; }
  void send(int self, int dest, int tag,
            std::span<const std::byte> payload) override;
  Message recv(int self, int source, int tag) override;
  std::optional<Message> recvFor(int self, std::chrono::milliseconds timeout,
                                 int source, int tag) override;
  bool tryRecv(int self, Message& out, int source, int tag) override;
  std::size_t pendingMessages(int self) const override;
  void barrier(int self) override;
  void abort() noexcept override;
  void quiesce() noexcept override;
  void forsakeRank(int rank) override;

  /// True once `rank` is dead (out of recovery, or forsaken) — the driver
  /// should mark it lost.
  bool isPermanentlyDead(int rank) const;

  /// Worker lifecycle events since the last drain (for the driver's fault
  /// log / SynthesisReport counters).
  struct WorkerEvent {
    enum class Kind { kRespawn, kReconnect, kPermanentDeath };
    Kind kind = Kind::kRespawn;
    int rank = -1;
    std::string detail;
  };
  std::vector<WorkerEvent> drainEvents();

 private:
  enum class State {
    kSpawning,      // kSpawn: first process being forked and handshaken
    kConnecting,    // kAccept: awaiting a dial (first, or in grace window)
    kLive,          // handshake done, pump running
    kDisconnected,  // pump or monitor saw the death; monitor decides next
    kRespawning,    // kSpawn: replacement process being forked
    kDead,          // permanently lost: no recovery, or forsaken
  };

  struct Slot {
    std::mutex writeMutex;    // serializes frame writes; guards fd for I/O
    int fd = -1;              // -1 when no live connection
    pid_t pid = -1;           // local child; -1 for external workers
    State state = State::kSpawning;
    std::uint64_t epoch = 0;  // last granted epoch; bumped per handshake
    int spawns = 0;           // kSpawn: completed spawns for this rank
    bool childGone = false;   // local child reaped since its last handshake
    bool forsaken = false;
    std::chrono::steady_clock::time_point disconnectAt{};
    std::string lastDeathDetail;
  };

  Slot& slot(int rank) const;
  /// Current pid of the local child backing `rank` while it is live, or
  /// -1 (always -1 for external workers).
  pid_t workerPid(int rank) const;
  bool spawned() const noexcept { return bootstrap_ == Bootstrap::kSpawn; }

  /// fork/exec one worker for `rank` with the common bootstrap variables
  /// plus `extraEnv` ("NAME=value" entries); records the pid in the slot.
  pid_t forkWorker(int rank, const std::vector<std::string>& extraEnv);

  /// kSpawn bootstrap: socketpair + forkWorker + hello, then admit().
  /// Throws (after killing the child) when the handshake fails.
  void spawnWorker(int rank);

  /// kAccept bootstrap: the connect address a local dialer for `rank` uses.
  std::string connectAddressFor(int rank) const;

  /// kAccept bootstrap thread body: accepts dials and re-dials for the
  /// life of the transport, reading each hello under a deadline. A bad,
  /// oversize or refused hello just closes that socket.
  void acceptLoop();

  /// Validates one parsed hello against its slot and, if granted, writes
  /// the ack and installs the connection (slot goes live, pump started).
  /// Returns false when refused; the caller still owns `fd` then.
  bool admit(int fd, int rank, std::uint64_t claimedEpoch);

  /// Reader thread for one worker connection; posts data frames into the
  /// root queue and flags death on EOF / torn frames.
  void pumpLoop(int rank, std::uint64_t epoch, int fd);

  /// Poisons the connection so the pump wakes with EOF; does not close.
  void shutdownSlotFd(Slot& s) noexcept;

  void monitorTick();
  void flagDeath(int rank, std::uint64_t epoch, const std::string& detail);
  void noteEvent(WorkerEvent::Kind kind, int rank, std::string detail);
  MessageQueue::WaitResult waitRoot(
      Message& out, int source, int tag,
      const std::optional<std::chrono::steady_clock::time_point>& deadline);

  /// Stops the accept loop, waits up to `grace` for local children to exit
  /// on their own, SIGKILLs the rest, then joins every pump and closes
  /// every fd. Shared by the destructor and a failed constructor.
  void teardown(std::chrono::milliseconds grace) noexcept;

  const Bootstrap bootstrap_;
  SocketTransportOptions options_;
  int listenFd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Slot>> slots_;
  MessageQueue rootQueue_;
  HeartbeatBook beats_;

  mutable std::mutex stateMutex_;  // slot lifecycle fields + events
  std::vector<WorkerEvent> events_;
  std::vector<std::thread> pumps_;  // one pump per slot, joined in teardown

  std::mutex spawnMutex_;  // serializes socketpair+fork (fd inheritance)
  std::atomic<bool> aborted_{false};
  std::atomic<bool> quiesced_{false};
  std::atomic<bool> shuttingDown_{false};
  std::thread acceptThread_;
  std::unique_ptr<PeriodicTask> monitor_;
};

/// Worker-process end of the socket transport. Bootstraps from the
/// environment: an inherited socket (CHISIM_WORKER_FD) or a root address
/// to dial (CHISIM_WORKER_TCP). A dialed link re-dials transparently on
/// connection loss, replaying the hello with its last granted epoch.
class WorkerLink {
 public:
  /// True when this process was launched as a transport worker (either
  /// bootstrap variable present). Binaries embedding a worker entry call
  /// this first thing in main().
  static bool isWorkerProcess();

  /// Parses and range-checks the bootstrap environment; no I/O. Throws
  /// WorkerBootstrapError naming the first bad variable.
  WorkerLink();
  ~WorkerLink();

  WorkerLink(const WorkerLink&) = delete;
  WorkerLink& operator=(const WorkerLink&) = delete;

  int rank() const noexcept { return rank_; }

  struct Hello {
    std::uint64_t epoch = 0;
    std::vector<std::byte> payload;
  };

  /// Connects (dialed: per-attempt timeout + exponential backoff), sends
  /// the hello, reads the ack, and starts the background pump — which
  /// answers pings and queues data frames. Call exactly once, before
  /// recv/send.
  Hello handshake();

  /// Next data message from the root. A dialed link blocks across
  /// reconnects. Throws once the link is down for good (inherited socket
  /// closed, or re-dial budget exhausted) — the worker's cue to exit.
  Message recv();

  /// Sends a data frame to the root. Injection site "proc.worker.send"
  /// fires per frame (kTruncate tears it; the root rejects the frame and
  /// drops this connection). A failed write is swallowed: the root's
  /// per-command retry re-requests after recovery, and command execution
  /// is idempotent.
  void send(int tag, std::span<const std::byte> payload);

 private:
  /// Sends the hello on `fd` and reads the ack under connectTimeoutMs.
  /// Throws when the root refuses (closes the socket).
  Hello exchangeHello(int fd, std::uint64_t claimedEpoch);

  /// dial + exchangeHello as one retried unit (a refused handshake counts
  /// as a failed attempt); installs the new fd. Throws when the budget is
  /// exhausted.
  Hello redial(std::uint64_t claimedEpoch);

  void pumpLoop();

  std::string host_;  // empty: inherited socket, no re-dial
  std::uint16_t port_ = 0;
  int rank_ = -1;
  int rankCount_ = 0;
  std::uint64_t connectTimeoutMs_ = 5000;
  int connectRetries_ = 5;
  std::uint64_t epoch_ = 0;
  int fd_ = -1;
  std::mutex writeMutex_;  // serializes frame writes; guards fd_ swap
  MessageQueue queue_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> shuttingDown_{false};
  std::thread pump_;
};

}  // namespace chisimnet::runtime
