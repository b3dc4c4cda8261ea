#include "chisimnet/runtime/socket_transport.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "chisimnet/runtime/fault.hpp"

extern char** environ;

namespace chisimnet::runtime {

namespace {

/// Re-dial backoff base; doubles per failed attempt, capped well below any
/// sane grace window so a worker gets several shots inside it.
constexpr std::uint64_t kDialBackoffMs = 50;
constexpr std::uint64_t kDialBackoffCapMs = 2000;

/// Every variable a spawned worker's environment is rebuilt from.
constexpr const char* kBootstrapEnv[] = {
    kWorkerFdEnv,        kWorkerTcpEnv,
    kWorkerRankEnv,      kWorkerRankCountEnv,
    kWorkerConnectTimeoutEnv, kWorkerConnectRetriesEnv,
    kWorkerFaultPlanEnv};

/// Whole-string decimal value of bootstrap variable `name` in [min, max];
/// `fallback` when unset, or an error when there is none.
std::int64_t bootstrapInt(const char* name, std::int64_t min, std::int64_t max,
                          std::optional<std::int64_t> fallback = {}) {
  const char* text = std::getenv(name);
  if (text == nullptr) {
    if (fallback.has_value()) {
      return *fallback;
    }
    throw WorkerBootstrapError(name, "is not set");
  }
  const std::string_view view(text);
  std::int64_t value = 0;
  const auto [end, error] =
      std::from_chars(view.data(), view.data() + view.size(), value);
  if (view.empty() || error != std::errc{} ||
      end != view.data() + view.size()) {
    throw WorkerBootstrapError(
        name, "'" + std::string(view) + "' is not a decimal integer");
  }
  if (value < min || value > max) {
    throw WorkerBootstrapError(name, std::to_string(value) +
                                         " is outside [" +
                                         std::to_string(min) + ", " +
                                         std::to_string(max) + "]");
  }
  return value;
}

/// getaddrinfo for a numeric-or-named IPv4 host. Throws on failure.
sockaddr_in resolveIpv4(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &results);
  CHISIM_CHECK(rc == 0 && results != nullptr,
               "cannot resolve host '" + host + "': " + ::gai_strerror(rc));
  sockaddr_in address{};
  std::memcpy(&address, results->ai_addr, sizeof(address));
  ::freeaddrinfo(results);
  address.sin_port = htons(port);
  return address;
}

/// Runs `attempt` up to `1 + retries` times with exponential backoff
/// (base `backoffMs`, doubling, capped) between tries and returns its first
/// result. Throws naming `what` when every try fails.
template <typename Attempt>
auto withBackoff(int retries, std::uint64_t backoffMs, const std::string& what,
                 Attempt&& attempt) -> decltype(attempt()) {
  std::string lastError = "no attempts made";
  std::uint64_t backoff = backoffMs;
  for (int tries = 0; tries <= retries; ++tries) {
    if (tries > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min<std::uint64_t>(backoff * 2, kDialBackoffCapMs);
    }
    try {
      return attempt();
    } catch (const std::exception& error) {
      lastError = error.what();
    }
  }
  throw std::runtime_error(what + " exhausted " + std::to_string(retries + 1) +
                           " attempts; last error: " + lastError);
}

/// Reads a worker hello (tag = rank, payload = claimed epoch) before
/// `deadline`. Throws on a torn, foreign or malformed frame.
std::pair<int, std::uint64_t> readHello(
    int fd, std::chrono::steady_clock::time_point deadline) {
  wire::FrameReader reader(wire::deadlineReadFn(fd, deadline));
  auto frame = reader.next();
  CHISIM_CHECK(frame.has_value() && frame->kind == wire::FrameKind::kHello &&
                   frame->payload.size() == sizeof(std::uint64_t),
               "malformed worker hello");
  std::uint64_t claimed = 0;
  std::memcpy(&claimed, frame->payload.data(), sizeof(claimed));
  return {frame->tag, claimed};
}

}  // namespace

WorkerBootstrapError::WorkerBootstrapError(std::string variable,
                                           const std::string& problem)
    : std::invalid_argument("worker bootstrap variable " + variable + " " +
                            problem),
      variable_(std::move(variable)) {}

std::pair<std::string, std::uint16_t> parseHostPort(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  CHISIM_CHECK(colon != std::string::npos && colon > 0 &&
                   colon + 1 < spec.size(),
               "malformed address '" + spec + "' (expected host:port)");
  const std::string_view digits = std::string_view(spec).substr(colon + 1);
  unsigned port = 0;
  const auto [end, error] =
      std::from_chars(digits.data(), digits.data() + digits.size(), port);
  CHISIM_CHECK(error == std::errc{} &&
                   end == digits.data() + digits.size() && port > 0 &&
                   port <= 65535,
               "bad port in address '" + spec + "'");
  return {spec.substr(0, colon), static_cast<std::uint16_t>(port)};
}

int dialOnce(const std::string& host, std::uint16_t port,
             std::chrono::milliseconds timeout, int rank) {
  if (fault::armed()) {
    FaultSite ctx;
    ctx.rank = rank;
    fault::hit("tcp.connect", ctx);  // kThrow fails this attempt
  }
  const sockaddr_in address = resolveIpv4(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CHISIM_CHECK(fd >= 0,
               std::string("socket() failed: ") + std::strerror(errno));
  wire::configureStreamSocket(fd, /*tcp=*/true);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                           sizeof(address));
  if (rc != 0 && errno != EINPROGRESS) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect to " + host + ":" +
                             std::to_string(port) + " failed: " + detail);
  }
  if (rc != 0) {
    // Await writability with the per-attempt deadline, then surface the
    // asynchronous connect result via SO_ERROR.
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (true) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        ::close(fd);
        throw std::runtime_error("connect to " + host + ":" +
                                 std::to_string(port) + " timed out");
      }
      struct pollfd pfd = {fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (ready < 0 && errno == EINTR) {
        continue;
      }
      if (ready > 0) {
        break;
      }
    }
    int soError = 0;
    socklen_t errorLen = sizeof(soError);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &errorLen);
    if (soError != 0) {
      ::close(fd);
      throw std::runtime_error("connect to " + host + ":" +
                               std::to_string(port) +
                               " failed: " + std::strerror(soError));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for frame I/O
  return fd;
}

int dialWithRetry(const std::string& host, std::uint16_t port,
                  std::chrono::milliseconds perAttemptTimeout, int retries,
                  std::uint64_t backoffMs, int rank) {
  return withBackoff(retries, backoffMs,
                     "dial " + host + ":" + std::to_string(port), [&] {
                       return dialOnce(host, port, perAttemptTimeout, rank);
                     });
}

// -------------------------------------------------------------- root end

SocketTransport::SocketTransport(Bootstrap bootstrap,
                                 SocketTransportOptions options)
    : bootstrap_(bootstrap),
      options_(std::move(options)),
      beats_(options_.rankCount) {
  CHISIM_REQUIRE(options_.rankCount >= 1, "transport needs at least one rank");
  CHISIM_REQUIRE(options_.heartbeatMs >= 1, "heartbeat period must be >= 1ms");
  CHISIM_REQUIRE(options_.heartbeatMissLimit >= 2,
                 "heartbeat miss limit must be >= 2");
  CHISIM_REQUIRE(options_.maxRespawns >= 0, "negative respawn budget");
  CHISIM_REQUIRE(spawned() || options_.connectTimeoutMs >= 1,
                 "connect timeout must be >= 1ms");
  CHISIM_REQUIRE(options_.connectRetries >= 0, "negative connect retries");
  slots_.reserve(static_cast<std::size_t>(options_.rankCount));
  for (int rank = 0; rank < options_.rankCount; ++rank) {
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->state = spawned() ? State::kSpawning : State::kConnecting;
  }
  pumps_.resize(static_cast<std::size_t>(options_.rankCount));
  try {
    if (spawned()) {
      for (int rank = 1; rank < options_.rankCount; ++rank) {
        spawnWorker(rank);
      }
    } else {
      // Bind + listen before any worker exists so every dial target is
      // valid.
      listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      CHISIM_CHECK(listenFd_ >= 0,
                   std::string("socket() failed: ") + std::strerror(errno));
      wire::configureStreamSocket(listenFd_, /*tcp=*/false);  // CLOEXEC only
      int one = 1;
      ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      const sockaddr_in address =
          resolveIpv4(options_.listenHost, options_.listenPort);
      CHISIM_CHECK(::bind(listenFd_,
                          reinterpret_cast<const sockaddr*>(&address),
                          sizeof(address)) == 0 &&
                       ::listen(listenFd_, options_.rankCount + 8) == 0,
                   "cannot listen on " + options_.listenHost + ":" +
                       std::to_string(options_.listenPort) + ": " +
                       std::strerror(errno));
      sockaddr_in bound{};
      socklen_t boundLen = sizeof(bound);
      ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &boundLen);
      port_ = ntohs(bound.sin_port);
      acceptThread_ = std::thread([this] { acceptLoop(); });
      for (int rank = 1; options_.spawnWorkers && rank < options_.rankCount;
           ++rank) {
        forkWorker(rank,
                   {std::string(kWorkerTcpEnv) + "=" + connectAddressFor(rank),
                    std::string(kWorkerConnectTimeoutEnv) + "=" +
                        std::to_string(options_.connectTimeoutMs),
                    std::string(kWorkerConnectRetriesEnv) + "=" +
                        std::to_string(options_.connectRetries)});
      }
    }
  } catch (...) {
    teardown(std::chrono::milliseconds(0));
    throw;
  }
  monitor_ = std::make_unique<PeriodicTask>(
      std::chrono::milliseconds(options_.heartbeatMs),
      [this] { monitorTick(); });
}

SocketTransport::~SocketTransport() {
  // After quiesce() + stop commands the local children exit on their own;
  // give them a moment before escalating to SIGKILL.
  teardown(std::chrono::seconds(2));
}

void SocketTransport::teardown(std::chrono::milliseconds grace) noexcept {
  shuttingDown_ = true;
  monitor_.reset();  // joins the monitor thread; no more respawns
  if (listenFd_ >= 0) {
    ::shutdown(listenFd_, SHUT_RDWR);
  }
  if (acceptThread_.joinable()) {
    acceptThread_.join();  // poll timeout bounds the wait either way
  }
  aborted_ = true;
  rootQueue_.notifyAll();

  // External workers are not ours to reap — closing their connections
  // (below) is their exit cue.
  const auto deadline = std::chrono::steady_clock::now() + grace;
  std::vector<pid_t> waiting;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    for (auto& s : slots_) {
      if (s->pid > 0) {
        waiting.push_back(s->pid);
      }
    }
  }
  while (!waiting.empty() && std::chrono::steady_clock::now() < deadline) {
    std::erase_if(waiting, [](pid_t pid) {
      return ::waitpid(pid, nullptr, WNOHANG) == pid;
    });
    if (!waiting.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  for (const pid_t pid : waiting) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }

  for (auto& s : slots_) {
    shutdownSlotFd(*s);  // wakes each pump with EOF
  }
  for (std::thread& pump : pumps_) {
    if (pump.joinable()) {
      pump.join();
    }
  }
  for (auto& s : slots_) {
    if (s->fd >= 0) {
      ::close(s->fd);
      s->fd = -1;
    }
  }
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
}

SocketTransport::Slot& SocketTransport::slot(int rank) const {
  CHISIM_REQUIRE(rank >= 1 && rank < options_.rankCount,
                 "invalid worker rank");
  return *slots_[static_cast<std::size_t>(rank)];
}

pid_t SocketTransport::forkWorker(int rank,
                                  const std::vector<std::string>& extraEnv) {
  // Build argv/envp BEFORE fork: the child of a multithreaded parent may
  // only call async-signal-safe functions, so no allocation after fork.
  const std::string exe =
      options_.executable.empty() ? "/proc/self/exe" : options_.executable;
  std::vector<std::string> env;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view view(*entry);
    const bool bootstrapVar =
        std::any_of(std::begin(kBootstrapEnv), std::end(kBootstrapEnv),
                    [view](const char* name) {
                      return view.starts_with(std::string(name) + "=");
                    });
    if (!bootstrapVar) {
      env.emplace_back(view);
    }
  }
  env.push_back(std::string(kWorkerRankEnv) + "=" + std::to_string(rank));
  env.push_back(std::string(kWorkerRankCountEnv) + "=" +
                std::to_string(options_.rankCount));
  if (FaultPlan* plan = fault::current()) {
    env.push_back(std::string(kWorkerFaultPlanEnv) + "=" + plan->encode());
  }
  env.insert(env.end(), extraEnv.begin(), extraEnv.end());
  std::vector<char*> envp;
  envp.reserve(env.size() + 1);
  for (std::string& entry : env) {
    envp.push_back(entry.data());
  }
  envp.push_back(nullptr);
  std::string exeArg = exe;
  std::string workerFlag = "--worker";
  char* argv[] = {exeArg.data(), workerFlag.data(), nullptr};

  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execve(exe.c_str(), argv, envp.data());
    _exit(127);  // exec failed; the root sees EOF or no dial at all
  }
  CHISIM_CHECK(pid > 0, std::string("fork failed: ") + std::strerror(errno));
  std::lock_guard<std::mutex> lock(stateMutex_);
  Slot& s = slot(rank);
  s.pid = pid;
  s.childGone = false;
  return pid;
}

void SocketTransport::spawnWorker(int rank) {
  int fds[2] = {-1, -1};
  pid_t pid = -1;
  {
    // The child end is inheritable until this fork closes it here: no other
    // spawn may fork in between and leak it into a sibling.
    std::lock_guard<std::mutex> lock(spawnMutex_);
    CHISIM_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                 std::string("socketpair failed: ") + std::strerror(errno));
    wire::configureStreamSocket(fds[0], /*tcp=*/false);
    try {
      pid = forkWorker(
          rank, {std::string(kWorkerFdEnv) + "=" + std::to_string(fds[1])});
    } catch (...) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw;
    }
    ::close(fds[1]);
  }

  // The worker must prove it booted before the slot goes live: its hello
  // arrives under a deadline and the ack carries the application payload.
  try {
    const auto [helloRank, claimed] = readHello(
        fds[0], std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(std::max<std::uint64_t>(
                        10000, options_.heartbeatMs *
                                   static_cast<std::uint64_t>(
                                       options_.heartbeatMissLimit))));
    CHISIM_CHECK(helloRank == rank && admit(fds[0], rank, claimed),
                 "worker hello refused");
  } catch (...) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    {
      std::lock_guard<std::mutex> lock(stateMutex_);
      slot(rank).pid = -1;
    }
    ::close(fds[0]);
    throw;
  }
}

std::string SocketTransport::connectAddressFor(int rank) const {
  const std::size_t index = static_cast<std::size_t>(rank - 1);
  if (index < options_.connectAddresses.size() &&
      !options_.connectAddresses[index].empty()) {
    return options_.connectAddresses[index];
  }
  // Workers dial back to this root; an any-address bind is reachable via
  // loopback from spawned (local) children.
  const std::string host = options_.listenHost == "0.0.0.0"
                               ? std::string("127.0.0.1")
                               : options_.listenHost;
  return host + ":" + std::to_string(port_);
}

void SocketTransport::acceptLoop() {
  while (!shuttingDown_.load()) {
    struct pollfd pfd = {listenFd_, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(options_.heartbeatMs));
    if (shuttingDown_.load()) {
      return;
    }
    if (ready <= 0) {
      continue;  // timeout or EINTR; loop re-checks the shutdown flag
    }
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) {
        continue;
      }
      return;  // listen socket is gone (shutdown path)
    }
    wire::configureStreamSocket(fd, /*tcp=*/true);
    // A dialer that stalls, lies about its rank or epoch, sends garbage,
    // or claims an oversize payload is dropped by closing ITS socket; the
    // transport and every other connection stay healthy.
    bool admitted = false;
    try {
      const auto [rank, claimed] = readHello(
          fd, std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(
                      std::max<std::uint64_t>(1000, options_.connectTimeoutMs)));
      if (fault::armed()) {
        FaultSite ctx;
        ctx.rank = rank;
        fault::hit("tcp.accept", ctx);  // kThrow refuses this dial
      }
      admitted = admit(fd, rank, claimed);
    } catch (...) {
      admitted = false;
    }
    if (!admitted) {
      ::close(fd);
    }
  }
}

bool SocketTransport::admit(int fd, int rank, std::uint64_t claimedEpoch) {
  if (rank < 1 || rank >= options_.rankCount) {
    return false;
  }
  Slot& s = slot(rank);
  // A spawned slot expects its own fresh child, which claims epoch 0. A
  // dialed slot takes a dial only between connections and only with the
  // epoch it last granted: live means a double-connect, disconnected
  // means the last death is still being classified (the dialer's backoff
  // retry lands after the monitor's next tick), dead means the driver
  // already reassigned the rank, and a wrong epoch is a stale zombie.
  // Nothing is admitted while the transport winds down.
  const auto expecting = [this, &s, claimedEpoch] {
    const bool awaiting = spawned() ? s.state == State::kSpawning ||
                                          s.state == State::kRespawning
                                    : s.state == State::kConnecting;
    return awaiting && claimedEpoch == (spawned() ? 0 : s.epoch) &&
           !shuttingDown_.load() && !quiesced_.load() && !aborted_.load();
  };
  std::uint64_t granted = 0;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    if (!expecting()) {
      return false;
    }
    granted = s.epoch + 1;
  }

  wire::Frame ack;
  ack.kind = wire::FrameKind::kHelloAck;
  ack.tag = static_cast<std::int32_t>(granted);
  ack.payload = options_.helloPayload;
  if (!wire::writeAllFd(fd, wire::encodeFrame(ack))) {
    return false;
  }

  beats_.beat(rank);
  std::lock_guard<std::mutex> stateLock(stateMutex_);
  if (!expecting()) {
    return false;  // forsaken or winding down while the ack was in flight
  }
  if (s.epoch > 0) {
    noteEvent(spawned() ? WorkerEvent::Kind::kRespawn
                        : WorkerEvent::Kind::kReconnect,
              rank, s.lastDeathDetail);
  }
  {
    std::lock_guard<std::mutex> writeLock(s.writeMutex);
    s.fd = fd;
  }
  s.epoch = granted;
  s.state = State::kLive;
  s.lastDeathDetail.clear();
  // The monitor moves a dead connection's pump out under stateMutex_ before
  // the slot can expect a new connection, so this handle is empty here.
  pumps_[static_cast<std::size_t>(rank)] =
      std::thread([this, rank, granted, fd] { pumpLoop(rank, granted, fd); });
  return true;
}

void SocketTransport::pumpLoop(int rank, std::uint64_t epoch, int fd) {
  std::string detail = "socket EOF";
  try {
    wire::FrameReader reader(wire::fdReadFn(fd));
    while (auto frame = reader.next()) {
      beats_.beat(rank);
      if (frame->kind == wire::FrameKind::kData) {
        Message message;
        message.source = rank;
        message.tag = frame->tag;
        message.payload = std::move(frame->payload);
        rootQueue_.post(std::move(message));
      }
    }
  } catch (const std::exception& error) {
    detail = error.what();
  }
  flagDeath(rank, epoch, detail);
}

void SocketTransport::shutdownSlotFd(Slot& s) noexcept {
  std::lock_guard<std::mutex> lock(s.writeMutex);
  if (s.fd >= 0) {
    ::shutdown(s.fd, SHUT_RDWR);
  }
}

void SocketTransport::flagDeath(int rank, std::uint64_t epoch,
                                const std::string& detail) {
  if (shuttingDown_.load()) {
    return;
  }
  std::lock_guard<std::mutex> lock(stateMutex_);
  Slot& s = slot(rank);
  if (s.epoch != epoch || s.state != State::kLive) {
    return;  // stale: the slot was already flagged, recovered or forsaken
  }
  s.state = State::kDisconnected;
  s.lastDeathDetail = detail;
}

void SocketTransport::noteEvent(WorkerEvent::Kind kind, int rank,
                                std::string detail) {
  WorkerEvent event;
  event.kind = kind;
  event.rank = rank;
  event.detail = std::move(detail);
  events_.push_back(std::move(event));
}

void SocketTransport::monitorTick() {
  if (shuttingDown_.load() || aborted_.load()) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();

  // Pass 1: reap exited local children and poison silent connections. Both
  // only shut the connection down; the pump turns the resulting EOF into
  // the slot's death (the single death-flagging path). Process APIs touch
  // only slots backed by a child this process forked (pid > 0), and only a
  // spawned slot's silent child is SIGKILLed: a dialed peer may be remote,
  // so silence merely poisons its connection and a live worker re-dials.
  const auto silenceLimit = std::chrono::milliseconds(
      options_.heartbeatMs *
      static_cast<std::uint64_t>(options_.heartbeatMissLimit));
  for (int rank = 1; rank < options_.rankCount; ++rank) {
    Slot& s = slot(rank);
    pid_t pid = -1;
    bool live = false;
    {
      std::lock_guard<std::mutex> lock(stateMutex_);
      pid = s.pid;
      live = s.state == State::kLive;
    }
    if (pid > 0 && ::waitpid(pid, nullptr, WNOHANG) == pid) {
      {
        std::lock_guard<std::mutex> lock(stateMutex_);
        s.pid = -1;  // reaped; never waited on again
        s.childGone = true;
      }
      shutdownSlotFd(s);
      continue;
    }
    if (live && beats_.overdue(rank, silenceLimit)) {
      if (spawned() && pid > 0) {
        ::kill(pid, SIGKILL);  // presumed hung; reaped next tick
      }
      shutdownSlotFd(s);
    }
  }

  // Pass 2: ping live workers.
  const std::vector<std::byte> pingBytes =
      wire::encodeFrame(wire::Frame{wire::FrameKind::kPing, 0, {}});
  for (int rank = 1; rank < options_.rankCount; ++rank) {
    Slot& s = slot(rank);
    {
      std::lock_guard<std::mutex> lock(stateMutex_);
      if (s.state != State::kLive) {
        continue;
      }
    }
    std::lock_guard<std::mutex> lock(s.writeMutex);
    if (s.fd >= 0 && !wire::writeAllFd(s.fd, pingBytes)) {
      ::shutdown(s.fd, SHUT_RDWR);
    }
  }

  // Pass 3: classify flagged deaths and expired grace windows. A death is
  // recovered the way its slot was bootstrapped — a spawned slot respawns
  // while the budget lasts, a dialed one opens its reconnect window unless
  // its local child is known gone — and is permanent otherwise or once
  // quiescing.
  struct Closed {
    int rank;
    bool respawn;
    bool dead;
    int fd;            // dead connection's descriptor, detached under lock
    pid_t pid;         // spawned slot's lingering child, detached under lock
    std::thread pump;  // dead connection's reader, moved out under lock
  };
  std::vector<Closed> closed;
  bool anyDead = false;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    for (int rank = 1; rank < options_.rankCount; ++rank) {
      Slot& s = slot(rank);
      if (s.state == State::kDisconnected) {
        const bool recover =
            !quiesced_.load() &&
            (spawned() ? s.epoch <= static_cast<std::uint64_t>(
                                        options_.maxRespawns)
                       : !s.childGone && options_.reconnectGraceMs > 0);
        if (!recover) {
          s.state = State::kDead;
          if (!quiesced_.load()) {
            noteEvent(WorkerEvent::Kind::kPermanentDeath, rank,
                      s.lastDeathDetail);
          }
        } else {
          s.state = spawned() ? State::kRespawning : State::kConnecting;
          s.disconnectAt = now;
        }
        // Detach the dead connection under the lock: once the slot
        // expects a new connection it may be re-admitted, and the close/
        // join below must never touch the fresh one.
        Closed entry{rank, recover && spawned(), !recover, -1, -1,
                     std::move(pumps_[static_cast<std::size_t>(rank)])};
        {
          std::lock_guard<std::mutex> writeLock(s.writeMutex);
          std::swap(entry.fd, s.fd);
        }
        if (spawned()) {
          std::swap(entry.pid, s.pid);
        }
        closed.push_back(std::move(entry));
      } else if (s.state == State::kConnecting && s.epoch > 0 &&
                 (s.childGone ||
                  now - s.disconnectAt >
                      std::chrono::milliseconds(options_.reconnectGraceMs))) {
        s.state = State::kDead;
        noteEvent(WorkerEvent::Kind::kPermanentDeath, rank,
                  s.lastDeathDetail + "; reconnect grace expired");
        anyDead = true;
      }
    }
  }

  for (Closed& entry : closed) {
    // The pump for the dead connection has flagged its death and is
    // exiting; join it before the fd can be closed and its number reused.
    if (entry.pump.joinable()) {
      entry.pump.join();
    }
    if (entry.pid > 0) {
      // EOF/torn-frame death without an exit yet (the worker closed the
      // socket but lingers, or was poisoned root-side): make it final.
      ::kill(entry.pid, SIGKILL);
      ::waitpid(entry.pid, nullptr, 0);
    }
    if (entry.fd >= 0) {
      ::close(entry.fd);
    }
    anyDead = anyDead || entry.dead;
    if (!entry.respawn) {
      continue;
    }
    try {
      spawnWorker(entry.rank);
    } catch (const std::exception& error) {
      std::lock_guard<std::mutex> lock(stateMutex_);
      Slot& s = slot(entry.rank);
      s.state = State::kDead;
      noteEvent(WorkerEvent::Kind::kPermanentDeath, entry.rank,
                s.lastDeathDetail + "; respawn failed: " + error.what());
      anyDead = true;
    }
  }
  if (anyDead) {
    rootQueue_.notifyAll();  // recvFor waiters re-check permanent death
  }
}

bool SocketTransport::waitForWorkers(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(stateMutex_);
      if (std::all_of(slots_.begin() + 1, slots_.end(),
                      [](const auto& s) { return s->epoch > 0; })) {
        return true;
      }
    }
    if (std::chrono::steady_clock::now() >= deadline ||
        shuttingDown_.load() || aborted_.load()) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void SocketTransport::send(int self, int dest, int tag,
                           std::span<const std::byte> payload) {
  CHISIM_REQUIRE(self == 0, "only rank 0 is local to the socket transport");
  CHISIM_REQUIRE(dest >= 0 && dest < options_.rankCount,
                 "invalid destination rank");
  validatePayloadLength(static_cast<std::int64_t>(payload.size()));
  if (dest == 0) {
    Message message;
    message.source = 0;
    message.tag = tag;
    message.payload.assign(payload.begin(), payload.end());
    rootQueue_.post(std::move(message));
    return;
  }
  wire::Frame frame;
  frame.kind = wire::FrameKind::kData;
  frame.tag = tag;
  frame.payload.assign(payload.begin(), payload.end());
  std::vector<std::byte> encoded = wire::encodeFrame(frame);
  Slot& s = slot(dest);
  if (fault::armed()) {
    FaultSite ctx;
    ctx.rank = dest;
    ctx.payload = &encoded;
    if (fault::hit("proc.send", ctx) == FaultAction::kKillRank) {
      // Scripted root-side kill: a real SIGKILL against the local child.
      const pid_t pid = workerPid(dest);
      if (pid > 0) {
        ::kill(pid, SIGKILL);
      }
      return;
    }
    fault::hit("tcp.delay", ctx);  // kDelay stalls this frame
    if (fault::hit("tcp.drop", ctx) == FaultAction::kKillRank) {
      // Scripted connection drop (a partition, not a process death): the
      // pump sees EOF and the slot recovers as its bootstrap dictates.
      shutdownSlotFd(s);
      return;
    }
  }
  std::lock_guard<std::mutex> lock(s.writeMutex);
  if (s.fd < 0) {
    // No live connection: drop. The driver's per-command timeout resends
    // after backoff, which lands on the recovered worker or times out into
    // markLost.
    return;
  }
  if (!wire::writeAllFd(s.fd, encoded)) {
    ::shutdown(s.fd, SHUT_RDWR);  // poisoned; pump turns this into a death
  }
}

MessageQueue::WaitResult SocketTransport::waitRoot(
    Message& out, int source, int tag,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  const auto result =
      rootQueue_.wait(out, source, tag, deadline, [this, source] {
        return aborted_.load() || (source >= 1 && isPermanentlyDead(source));
      });
  CHISIM_CHECK(result != MessageQueue::WaitResult::kInterrupted ||
                   !aborted_.load(),
               "transport aborted while receiving");
  return result;
}

Message SocketTransport::recv(int self, int source, int tag) {
  CHISIM_REQUIRE(self == 0, "only rank 0 is local to the socket transport");
  Message out;
  if (waitRoot(out, source, tag, std::nullopt) !=
      MessageQueue::WaitResult::kMessage) {
    throw std::runtime_error("rank " + std::to_string(source) +
                             " is permanently lost; no reply will ever "
                             "arrive");
  }
  return out;
}

std::optional<Message> SocketTransport::recvFor(
    int self, std::chrono::milliseconds timeout, int source, int tag) {
  CHISIM_REQUIRE(self == 0, "only rank 0 is local to the socket transport");
  // A permanently dead source fails fast, not at the deadline: the driver
  // converges to markLost.
  Message out;
  if (waitRoot(out, source, tag, std::chrono::steady_clock::now() + timeout) !=
      MessageQueue::WaitResult::kMessage) {
    return std::nullopt;
  }
  return out;
}

bool SocketTransport::tryRecv(int self, Message& out, int source, int tag) {
  CHISIM_REQUIRE(self == 0, "only rank 0 is local to the socket transport");
  return rootQueue_.tryRecv(out, source, tag);
}

std::size_t SocketTransport::pendingMessages(int self) const {
  CHISIM_REQUIRE(self == 0, "only rank 0 is local to the socket transport");
  return rootQueue_.pending();
}

void SocketTransport::barrier(int /*self*/) {
  throw std::runtime_error(
      "the socket transport has no barrier (workers are root-driven)");
}

void SocketTransport::abort() noexcept {
  aborted_ = true;
  rootQueue_.notifyAll();
}

void SocketTransport::quiesce() noexcept { quiesced_ = true; }

void SocketTransport::forsakeRank(int rank) {
  if (rank == 0) {
    return;
  }
  Slot& s = slot(rank);
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    s.state = State::kDead;
    pid = s.pid;
  }
  if (pid > 0) {
    ::kill(pid, SIGKILL);  // local child only; reaped by the monitor
  }
  shutdownSlotFd(s);
  rootQueue_.notifyAll();
}

bool SocketTransport::isPermanentlyDead(int rank) const {
  if (rank == 0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(stateMutex_);
  return slot(rank).state == State::kDead;
}

pid_t SocketTransport::workerPid(int rank) const {
  std::lock_guard<std::mutex> lock(stateMutex_);
  const Slot& s = slot(rank);
  return s.state == State::kLive ? s.pid : -1;
}

std::vector<SocketTransport::WorkerEvent> SocketTransport::drainEvents() {
  std::lock_guard<std::mutex> lock(stateMutex_);
  std::vector<WorkerEvent> out;
  out.swap(events_);
  return out;
}

// ------------------------------------------------------------ worker end

bool WorkerLink::isWorkerProcess() {
  return std::getenv(kWorkerFdEnv) != nullptr ||
         std::getenv(kWorkerTcpEnv) != nullptr;
}

WorkerLink::WorkerLink()
    : rank_(static_cast<int>(bootstrapInt(kWorkerRankEnv, 1, INT_MAX))),
      rankCount_(
          static_cast<int>(bootstrapInt(kWorkerRankCountEnv, 2, INT_MAX))) {
  if (rank_ >= rankCount_) {
    throw WorkerBootstrapError(kWorkerRankEnv,
                               std::to_string(rank_) +
                                   " is not below the rank count " +
                                   std::to_string(rankCount_));
  }
  if (const char* spec = std::getenv(kWorkerTcpEnv)) {
    try {
      std::tie(host_, port_) = parseHostPort(spec);
    } catch (const std::exception& error) {
      throw WorkerBootstrapError(kWorkerTcpEnv, error.what());
    }
    connectTimeoutMs_ = static_cast<std::uint64_t>(
        bootstrapInt(kWorkerConnectTimeoutEnv, 1, INT_MAX, 5000));
    connectRetries_ = static_cast<int>(
        bootstrapInt(kWorkerConnectRetriesEnv, 0, INT_MAX, 5));
  } else {
    fd_ = static_cast<int>(bootstrapInt(kWorkerFdEnv, 0, INT_MAX));
  }
}

WorkerLink::~WorkerLink() {
  shuttingDown_ = true;
  {
    std::lock_guard<std::mutex> lock(writeMutex_);
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }
  if (pump_.joinable()) {
    pump_.join();
  }
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

WorkerLink::Hello WorkerLink::exchangeHello(int fd,
                                            std::uint64_t claimedEpoch) {
  wire::Frame hello;
  hello.kind = wire::FrameKind::kHello;
  hello.tag = rank_;
  hello.payload.resize(sizeof(claimedEpoch));
  std::memcpy(hello.payload.data(), &claimedEpoch, sizeof(claimedEpoch));
  CHISIM_CHECK(wire::writeAllFd(fd, wire::encodeFrame(hello)),
               "failed to send worker hello");
  wire::FrameReader reader(wire::deadlineReadFn(
      fd, std::chrono::steady_clock::now() +
              std::chrono::milliseconds(connectTimeoutMs_)));
  auto ack = reader.next();
  CHISIM_CHECK(ack.has_value() && ack->kind == wire::FrameKind::kHelloAck,
               "root refused the hello (connection closed)");
  return Hello{static_cast<std::uint64_t>(ack->tag), std::move(ack->payload)};
}

WorkerLink::Hello WorkerLink::redial(std::uint64_t claimedEpoch) {
  // The dial and the hello exchange retry as one unit: a refused handshake
  // (the root closing our socket — stale epoch, occupied slot, a death
  // still being classified) counts as a failed attempt, so the backoff
  // naturally paces re-admission against the root's monitor cadence.
  return withBackoff(
      connectRetries_, kDialBackoffMs,
      "worker rank " + std::to_string(rank_) + " connecting to " + host_ +
          ":" + std::to_string(port_),
      [&] {
        const int fd = dialOnce(host_, port_,
                                std::chrono::milliseconds(connectTimeoutMs_),
                                rank_);
        try {
          Hello hello = exchangeHello(fd, claimedEpoch);
          std::lock_guard<std::mutex> lock(writeMutex_);
          if (fd_ >= 0) {
            ::close(fd_);
          }
          fd_ = fd;
          if (shuttingDown_.load()) {
            ::shutdown(fd_, SHUT_RDWR);  // the destructor already swept fd_
          }
          return hello;
        } catch (...) {
          ::close(fd);
          throw;
        }
      });
}

WorkerLink::Hello WorkerLink::handshake() {
  CHISIM_REQUIRE(!pump_.joinable(), "handshake already performed");
  Hello hello = host_.empty() ? exchangeHello(fd_, 0) : redial(0);
  epoch_ = hello.epoch;
  pump_ = std::thread([this] { pumpLoop(); });
  return hello;
}

void WorkerLink::pumpLoop() {
  while (true) {
    try {
      wire::FrameReader reader(wire::fdReadFn(fd_));
      while (auto frame = reader.next()) {
        if (frame->kind == wire::FrameKind::kData) {
          Message message;
          message.source = 0;
          message.tag = frame->tag;
          message.payload = std::move(frame->payload);
          queue_.post(std::move(message));
        } else if (frame->kind == wire::FrameKind::kPing) {
          const auto pong = wire::encodeFrame(
              wire::Frame{wire::FrameKind::kPong, frame->tag, {}});
          std::lock_guard<std::mutex> lock(writeMutex_);
          (void)wire::writeAllFd(fd_, pong);  // a dead link reads EOF next
        }
      }
    } catch (...) {
      // Torn or corrupt frame: this connection can no longer be trusted.
    }
    if (shuttingDown_.load() || host_.empty()) {
      break;  // an inherited socket cannot be re-dialed
    }
    // Connection lost while the worker is healthy: re-dial inside the
    // root's grace window, replaying the hello with the last granted
    // epoch. Commands lost mid-drop are re-sent by the root's retry path;
    // a reply torn mid-send is discarded root-side and regenerated when
    // the command is re-executed (stage bodies are pure).
    try {
      epoch_ = redial(epoch_).epoch;
    } catch (...) {
      break;  // budget exhausted or the root gave up on us: exit
    }
  }
  closed_ = true;
  queue_.notifyAll();
}

Message WorkerLink::recv() {
  Message out;
  const auto result = queue_.wait(out, 0, kAnyTag, std::nullopt,
                                  [this] { return closed_.load(); });
  CHISIM_CHECK(result == MessageQueue::WaitResult::kMessage,
               "root connection closed");
  return out;
}

void WorkerLink::send(int tag, std::span<const std::byte> payload) {
  validatePayloadLength(static_cast<std::int64_t>(payload.size()));
  wire::Frame frame;
  frame.kind = wire::FrameKind::kData;
  frame.tag = tag;
  frame.payload.assign(payload.begin(), payload.end());
  std::vector<std::byte> encoded = wire::encodeFrame(frame);
  if (fault::armed()) {
    FaultSite ctx;
    ctx.rank = rank_;
    ctx.payload = &encoded;
    fault::hit("proc.worker.send", ctx);
  }
  std::lock_guard<std::mutex> lock(writeMutex_);
  (void)wire::writeAllFd(fd_, encoded);
}

}  // namespace chisimnet::runtime
