#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/net/executor.hpp"
#include "chisimnet/net/mp_protocol.hpp"
#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/runtime/socket_transport.hpp"
#include "chisimnet/runtime/wire.hpp"
#include "chisimnet/util/rng.hpp"

/// TCP transport suite: addressing, the run-shipping codecs, config
/// validation, end-to-end synthesis over real TCP worker processes —
/// including the acceptance cases (a scripted connection drop must resolve
/// through reconnect, a dead worker process through loss-reassignment,
/// both bit-identical; spill mode must ship run bytes over the wire) —
/// and adversarial handshakes thrown at the root's accept loop from raw
/// client sockets: stale epochs, double connects, forged headers, and
/// half-open connections that answer nothing.

namespace chisimnet::net {
namespace {

using runtime::FaultAction;
using runtime::FaultPlan;
using runtime::FaultSpec;
using runtime::SocketTransport;
using runtime::SocketTransportOptions;
using runtime::wire::Frame;
using runtime::wire::FrameKind;
using runtime::wire::FrameReader;
using table::Event;
using table::Hour;

// ---- local copies of the fuzz-harness fixtures (each test binary keeps
// its helpers in its own anonymous namespace) ----

struct FuzzCase {
  table::EventTable events;
  Hour windowStart = 0;
  Hour windowEnd = 0;
};

FuzzCase makeCase(std::uint64_t seed) {
  util::Rng rng(seed * 2654435761u + 17);
  FuzzCase out;
  const auto persons = static_cast<std::uint32_t>(8 + rng.uniformBelow(48));
  const auto places = static_cast<std::uint32_t>(3 + rng.uniformBelow(10));
  out.windowStart = static_cast<Hour>(rng.uniformBelow(8));
  out.windowEnd = out.windowStart + 24 + static_cast<Hour>(rng.uniformBelow(48));
  const std::size_t count = 80 + rng.uniformBelow(120);
  for (std::size_t i = 0; i < count; ++i) {
    const Hour start = static_cast<Hour>(rng.uniformBelow(out.windowEnd + 8));
    const Hour end = start + 1 + static_cast<Hour>(rng.uniformBelow(9));
    out.events.append(Event{
        start, end, static_cast<table::PersonId>(rng.uniformBelow(persons)),
        static_cast<table::ActivityId>(rng.uniformBelow(5)),
        static_cast<table::PlaceId>(rng.uniformBelow(places))});
  }
  return out;
}

std::vector<std::filesystem::path> writePlacePartitionedFiles(
    const table::EventTable& events, const std::filesystem::path& dir,
    int fileCount) {
  std::vector<std::vector<Event>> buffers(
      static_cast<std::size_t>(fileCount));
  for (std::uint64_t row = 0; row < events.size(); ++row) {
    const Event event = events.row(row);
    buffers[event.place % static_cast<std::uint32_t>(fileCount)].push_back(
        event);
  }
  std::vector<std::filesystem::path> files;
  for (int i = 0; i < fileCount; ++i) {
    const auto path = elog::logFilePath(dir, i);
    elog::ChunkedLogWriter writer(path);
    auto& buffer = buffers[static_cast<std::size_t>(i)];
    std::sort(buffer.begin(), buffer.end());
    for (std::size_t begin = 0; begin < buffer.size(); begin += 32) {
      const std::size_t end = std::min(buffer.size(), begin + 32);
      writer.writeChunk(
          std::span<const Event>(buffer.data() + begin, end - begin));
    }
    writer.close();
    files.push_back(path);
  }
  return files;
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : dir_(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  const std::filesystem::path& path() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

void expectEqualAdjacency(const sparse::SymmetricAdjacency& got,
                          const sparse::SymmetricAdjacency& want,
                          const std::string& label) {
  EXPECT_EQ(got.edgeCount(), want.edgeCount()) << label;
  EXPECT_EQ(got.toTriplets(), want.toTriplets()) << label;
}

bool hasFault(const SynthesisReport& report, FaultEvent::Kind kind) {
  return std::any_of(
      report.faults.begin(), report.faults.end(),
      [kind](const FaultEvent& event) { return event.kind == kind; });
}

std::vector<std::byte> fileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> chars((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::vector<std::byte> out(chars.size());
  std::memcpy(out.data(), chars.data(), chars.size());
  return out;
}

/// A TCP-transport synthesis config with timings tuned for tests: fast
/// monitor ticks, a short reconnect grace so permanent-death cases resolve
/// quickly, and a command timeout comfortably above one re-dial so the
/// retry lands on the re-admitted worker.
SynthesisConfig tcpConfig(const FuzzCase& fuzz) {
  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 3;
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kTcp;
  config.heartbeatMs = 100;
  config.faultPolicy = FaultPolicy::kDegrade;
  config.commandTimeoutMs = 600;
  config.commandMaxAttempts = 6;
  config.commandBackoffMs = 1;
  config.connectTimeoutMs = 2000;
  config.connectRetries = 3;
  config.reconnectGraceMs = 1500;
  return config;
}

// ---- addressing ----

TEST(TcpAddressTest, HostPortSpecsParseAndMalformedOnesThrow) {
  const auto [host, port] = runtime::parseHostPort("127.0.0.1:8080");
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  const auto [name, high] = runtime::parseHostPort("node17:65535");
  EXPECT_EQ(name, "node17");
  EXPECT_EQ(high, 65535);

  EXPECT_THROW(runtime::parseHostPort(""), std::exception);
  // Port 0 is rejected: an explicit listen address exists so external
  // workers can be told where to dial — an ephemeral port defeats that.
  EXPECT_THROW(runtime::parseHostPort("node17:0"), std::exception);
  EXPECT_THROW(runtime::parseHostPort("hostonly"), std::exception);
  EXPECT_THROW(runtime::parseHostPort(":99"), std::exception);
  EXPECT_THROW(runtime::parseHostPort("host:"), std::exception);
  EXPECT_THROW(runtime::parseHostPort("host:notaport"), std::exception);
  EXPECT_THROW(runtime::parseHostPort("host:65536"), std::exception);
  // The whole port text must be digits: no trailing garbage, no padding.
  EXPECT_THROW(runtime::parseHostPort("host:80abc"), std::exception);
  EXPECT_THROW(runtime::parseHostPort("host: 80"), std::exception);
  EXPECT_THROW(runtime::parseHostPort("host:8080 "), std::exception);
}

/// Sets worker bootstrap variables for one scope and clears every one of
/// them afterwards, so later tests never see a half-bootstrapped env.
class ScopedBootstrapEnv {
 public:
  ScopedBootstrapEnv(
      std::initializer_list<std::pair<const char*, std::string>> vars) {
    for (const auto& [name, value] : vars) {
      ::setenv(name, value.c_str(), 1);
    }
  }
  ~ScopedBootstrapEnv() {
    for (const char* name :
         {runtime::kWorkerFdEnv, runtime::kWorkerTcpEnv,
          runtime::kWorkerRankEnv, runtime::kWorkerRankCountEnv,
          runtime::kWorkerConnectTimeoutEnv,
          runtime::kWorkerConnectRetriesEnv}) {
      ::unsetenv(name);
    }
  }
};

/// The name of the variable a WorkerLink bootstrap rejects, or "" when it
/// constructs.
std::string rejectedVariable() {
  try {
    runtime::WorkerLink link;
    return "";
  } catch (const runtime::WorkerBootstrapError& error) {
    EXPECT_NE(std::string(error.what()).find(error.variable()),
              std::string::npos);
    return error.variable();
  }
}

TEST(WorkerBootstrapTest, MalformedVariablesAreRejectedByName) {
  {  // non-numeric fd (a lenient parse would make it fd 0, stdin)
    ScopedBootstrapEnv env({{runtime::kWorkerFdEnv, "abc"},
                            {runtime::kWorkerRankEnv, "1"},
                            {runtime::kWorkerRankCountEnv, "3"}});
    EXPECT_EQ(rejectedVariable(), runtime::kWorkerFdEnv);
  }
  {  // negative fd
    ScopedBootstrapEnv env({{runtime::kWorkerFdEnv, "-3"},
                            {runtime::kWorkerRankEnv, "1"},
                            {runtime::kWorkerRankCountEnv, "3"}});
    EXPECT_EQ(rejectedVariable(), runtime::kWorkerFdEnv);
  }
  {  // rank not below the rank count
    ScopedBootstrapEnv env({{runtime::kWorkerFdEnv, "5"},
                            {runtime::kWorkerRankEnv, "3"},
                            {runtime::kWorkerRankCountEnv, "3"}});
    EXPECT_EQ(rejectedVariable(), runtime::kWorkerRankEnv);
  }
  {  // non-numeric retry count on a dialed link
    ScopedBootstrapEnv env({{runtime::kWorkerTcpEnv, "127.0.0.1:9"},
                            {runtime::kWorkerRankEnv, "1"},
                            {runtime::kWorkerRankCountEnv, "3"},
                            {runtime::kWorkerConnectRetriesEnv, "two"}});
    EXPECT_EQ(rejectedVariable(), runtime::kWorkerConnectRetriesEnv);
  }
  {  // a well-formed inherited-socket bootstrap constructs without I/O
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ScopedBootstrapEnv env({{runtime::kWorkerFdEnv, std::to_string(fds[1])},
                            {runtime::kWorkerRankEnv, "1"},
                            {runtime::kWorkerRankCountEnv, "3"}});
    EXPECT_EQ(rejectedVariable(), "");  // the link closed fds[1]
    ::close(fds[0]);
  }
}

// ---- run-shipping codecs ----

TEST(TcpProtocolTest, ShipChunkRoundTripsAndOverrunIsRejected) {
  std::vector<std::byte> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 13 + 7);
  }
  const auto encoded = mp::encodeShipChunk("run_000042.spill", 64, 4096, data);
  const mp::ShipChunkView view = mp::decodeShipChunk(encoded);
  EXPECT_EQ(view.name, "run_000042.spill");
  EXPECT_EQ(view.offset, 64u);
  EXPECT_EQ(view.total, 4096u);
  ASSERT_EQ(view.data.size(), data.size());
  EXPECT_TRUE(std::equal(view.data.begin(), view.data.end(), data.begin()));

  // A chunk whose [offset, offset+size) overruns its own declared total is
  // malformed and must be rejected before any file write.
  const auto overrun = mp::encodeShipChunk("run.spill", 4000, 4096, data);
  EXPECT_THROW(mp::decodeShipChunk(overrun), std::exception);

  // Zero-byte files still ship as exactly one (empty) chunk.
  const auto empty = mp::encodeShipChunk("empty.spill", 0, 0, {});
  const mp::ShipChunkView emptyView = mp::decodeShipChunk(empty);
  EXPECT_EQ(emptyView.total, 0u);
  EXPECT_TRUE(emptyView.data.empty());
}

TEST(TcpProtocolTest, ShippedRunRefRoundTripsAsItsOwnMode) {
  mp::RunRef ref;
  ref.file = "run_000007.spill";  // bare name: bytes travelled on kShipTag
  ref.shipped = true;
  ref.bytes = 123456;
  ref.triplets = 789;
  std::vector<std::byte> buffer;
  mp::putRunRef(buffer, ref);
  std::size_t cursor = 0;
  const mp::RunRef back = mp::takeRunRef(buffer, cursor);
  EXPECT_EQ(cursor, buffer.size());
  EXPECT_TRUE(back.shipped);
  EXPECT_TRUE(back.isFile());
  EXPECT_EQ(back.file, ref.file);
  EXPECT_EQ(back.bytes, ref.bytes);
  EXPECT_EQ(back.triplets, ref.triplets);

  // A plain file ref must come back unshipped — the two file modes must
  // not alias.
  mp::RunRef plain;
  plain.file = "/spill/run_000001.spill";
  plain.bytes = 42;
  buffer.clear();
  mp::putRunRef(buffer, plain);
  cursor = 0;
  EXPECT_FALSE(mp::takeRunRef(buffer, cursor).shipped);
}

TEST(TcpProtocolTest, StageParamsCarryTheShipRunsFlag) {
  mp::StageParams params;
  params.windowStart = 3;
  params.windowEnd = 99;
  params.shipRuns = true;
  const mp::StageParams back = mp::decodeStageParams(mp::encodeStageParams(params));
  EXPECT_TRUE(back.shipRuns);
  params.shipRuns = false;
  EXPECT_FALSE(mp::decodeStageParams(mp::encodeStageParams(params)).shipRuns);
}

// ---- config validation ----

TEST(TcpConfigTest, InvalidCombinationsAreRejected) {
  SynthesisConfig config;
  config.transport = MpTransport::kTcp;  // needs the mp backend
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);

  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kTcp;
  config.connectTimeoutMs = 0;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);

  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.connectRetries = -1;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);

  // --tcp-listen is meaningless off the tcp transport, and a job file
  // without an explicit listen address has no port the external workers
  // could have been told about.
  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kProcess;
  config.tcpListen = "127.0.0.1:9999";
  config.heartbeatMs = 100;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);

  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kTcp;
  config.tcpJob = "/tmp/job.txt";
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);

  // Degrade over TCP without a command timeout would hang forever on a
  // dead worker; the config must say so up front.
  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kTcp;
  config.faultPolicy = FaultPolicy::kDegrade;
  config.commandTimeoutMs = 0;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);
}

// ---- end-to-end synthesis over loopback TCP ----

TEST(TcpSynthesisTest, CleanRunMatchesBruteForce) {
  const FuzzCase fuzz = makeCase(181);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_tcp_clean");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  SynthesisConfig config = tcpConfig(fuzz);
  config.filesPerBatch = 2;
  NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);
  expectEqualAdjacency(adjacency, reference, "tcp clean");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_EQ(report.ranksLost, 0);
  EXPECT_EQ(report.workersReconnected, 0u);
  EXPECT_EQ(report.workersRespawned, 0u);
  EXPECT_GT(report.bytesScattered, 0u);
}

/// Acceptance (reconnect path): the first root->worker data frame is
/// dropped on the floor along with its connection — a scripted partition,
/// not a process death. The still-live worker re-dials inside the grace
/// window, the command retry lands on the re-admitted connection, and the
/// output is bit-identical with no rank lost and no respawn.
TEST(TcpSynthesisTest, ScriptedConnectionDropReconnectsBitIdentical) {
  const FuzzCase fuzz = makeCase(182);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_tcp_drop");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  // Root-side site: the hit counter lives in this process, so exactly one
  // connection is dropped and the re-dialed worker is left alone.
  FaultPlan plan;
  plan.at("tcp.drop",
          FaultSpec{.action = FaultAction::kKillRank, .hit = 1});
  runtime::fault::ScopedFaultPlan scoped(plan);

  SynthesisConfig config = tcpConfig(fuzz);
  config.filesPerBatch = 2;
  NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);
  expectEqualAdjacency(adjacency, reference, "tcp reconnect path");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_EQ(report.ranksLost, 0);
  EXPECT_EQ(report.workersRespawned, 0u);
  EXPECT_GE(report.workersReconnected, 1u);
  EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kWorkerReconnect));
  EXPECT_FALSE(hasFault(report, FaultEvent::Kind::kRankLost));
}

/// The worker-side send site over TCP: rank 1 tears its first reply
/// mid-header. The root rejects the torn frame and drops the connection,
/// the worker re-dials inside the grace window, and the retried command
/// lands on the re-admitted connection with bit-identical output.
TEST(TcpSynthesisTest, TornWorkerReplyIsRejectedAndRedialed) {
  const FuzzCase fuzz = makeCase(185);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_tcp_torn_reply");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  // Worker-side site, shipped via the bootstrap environment; 12 bytes
  // keeps the magic, kind and tag but cuts the length field.
  FaultPlan plan;
  plan.at("proc.worker.send", FaultSpec{.action = FaultAction::kTruncate,
                                        .hit = 1,
                                        .rank = 1,
                                        .truncateTo = 12});
  runtime::fault::ScopedFaultPlan scoped(plan);

  SynthesisConfig config = tcpConfig(fuzz);
  config.filesPerBatch = 2;
  NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);
  expectEqualAdjacency(adjacency, reference, "tcp torn worker reply");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_EQ(report.ranksLost, 0);
  EXPECT_GE(report.workersReconnected, 1u);
  EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kWorkerReconnect));
}

/// Acceptance (reassignment path): worker rank 2 SIGKILLs itself on its
/// first command. Over TCP there is no respawn; the reaped child
/// short-circuits the grace window, the rank goes permanently dead, and
/// the run completes on the survivors with identical output.
TEST(TcpSynthesisTest, DeadWorkerProcessIsLostAndItsWorkReassigned) {
  const FuzzCase fuzz = makeCase(183);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_tcp_reassign");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  // Worker-side site, shipped via the bootstrap environment; the rank
  // filter confines the crash to rank 2.
  FaultPlan plan;
  plan.at("mp.service.command",
          FaultSpec{.action = FaultAction::kKillProcess, .rank = 2});
  runtime::fault::ScopedFaultPlan scoped(plan);

  SynthesisConfig config = tcpConfig(fuzz);
  config.workers = 4;
  config.filesPerBatch = 2;
  config.reconnectGraceMs = 400;
  NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);
  expectEqualAdjacency(adjacency, reference, "tcp reassignment path");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_EQ(report.ranksLost, 1);
  EXPECT_EQ(report.workersRespawned, 0u);
  EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kRankLost));

  // The degraded synthesizer keeps producing identical output afterwards.
  expectEqualAdjacency(synthesizer.synthesizeAdjacency(files), reference,
                       "tcp reassignment path, second run");
}

/// Spill mode over TCP: every worker spills into its own private local
/// directory (no shared filesystem assumed) and ships run bytes to the
/// root on kShipTag; the streamed CADJ file must be byte-identical to the
/// shared-memory backend's, in both the single-owner and sharded merges.
TEST(TcpSynthesisTest, SpillModeShipsRunBytesBitIdentical) {
  const FuzzCase fuzz = makeCase(184);
  ScratchDir scratch("chisimnet_tcp_spill");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);
  ScratchDir out("chisimnet_tcp_spill_out");

  for (const unsigned shards : {1u, 2u}) {
    const std::string label = "reduce shards " + std::to_string(shards);
    SynthesisConfig sharedConfig;
    sharedConfig.windowStart = fuzz.windowStart;
    sharedConfig.windowEnd = fuzz.windowEnd;
    sharedConfig.workers = 3;
    sharedConfig.memoryBudgetBytes = 32 << 10;  // force real spills
    sharedConfig.reduceShards = shards;
    sharedConfig.spillDir = (out.path() / ("shared_spill" +
                                           std::to_string(shards))).string();
    NetworkSynthesizer shared(sharedConfig);
    const auto sharedOut = out.path() / ("shared" + std::to_string(shards));
    const std::uint64_t sharedEdges = shared.synthesizeToFile(files, sharedOut);

    SynthesisConfig config = tcpConfig(fuzz);
    config.memoryBudgetBytes = 32 << 10;
    config.reduceShards = shards;
    NetworkSynthesizer synthesizer(config);
    const auto tcpOut = out.path() / ("tcp" + std::to_string(shards));
    const std::uint64_t tcpEdges = synthesizer.synthesizeToFile(files, tcpOut);

    EXPECT_EQ(tcpEdges, sharedEdges) << label;
    EXPECT_EQ(fileBytes(tcpOut), fileBytes(sharedOut)) << label;
    const SynthesisReport& report = synthesizer.report();
    EXPECT_EQ(report.ranksLost, 0) << label;
    EXPECT_GT(report.spillRunsWritten, 0u) << label;
  }
}

// ---- adversarial handshakes against the root's accept loop ----

/// A bare 2-rank transport that spawns nothing: the test plays the worker
/// (or the attacker) over raw client sockets against port().
std::unique_ptr<SocketTransport> bareTransport(std::uint64_t graceMs = 2000,
                                            std::uint64_t heartbeatMs = 200,
                                            int missLimit = 8) {
  SocketTransportOptions options;
  options.rankCount = 2;
  options.spawnWorkers = false;
  options.heartbeatMs = heartbeatMs;
  options.heartbeatMissLimit = missLimit;
  options.reconnectGraceMs = graceMs;
  options.connectTimeoutMs = 1000;
  options.helloPayload = {std::byte{0xC5}, std::byte{0x1}};
  return std::make_unique<SocketTransport>(
      SocketTransport::Bootstrap::kAccept, std::move(options));
}

/// Dials the transport and sends one worker hello; returns the connected
/// fd (caller closes).
int dialAndSendHello(const SocketTransport& transport, int rank,
                     std::uint64_t claimedEpoch) {
  const int fd = runtime::dialOnce("127.0.0.1", transport.port(),
                                   std::chrono::milliseconds(1000), rank);
  Frame hello;
  hello.kind = FrameKind::kHello;
  hello.tag = rank;
  hello.payload.resize(sizeof(claimedEpoch));
  std::memcpy(hello.payload.data(), &claimedEpoch, sizeof(claimedEpoch));
  EXPECT_TRUE(runtime::wire::writeAllFd(fd, runtime::wire::encodeFrame(hello)));
  return fd;
}

/// Reads the hello-ack off `fd`; nullopt when the root refused (closed the
/// socket without acking).
std::optional<Frame> readAck(int fd) {
  FrameReader reader(runtime::wire::deadlineReadFn(
      fd, std::chrono::steady_clock::now() + std::chrono::seconds(2)));
  try {
    auto frame = reader.next();
    if (!frame.has_value() || frame->kind != FrameKind::kHelloAck) {
      return std::nullopt;
    }
    return frame;
  } catch (const std::exception&) {
    return std::nullopt;  // torn/refused mid-ack
  }
}

TEST(TcpHandshakeTest, ValidHelloIsAckedWithEpochAndPayload) {
  auto transport = bareTransport();
  const int fd = dialAndSendHello(*transport, 1, 0);
  const auto ack = readAck(fd);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->tag, 1);  // first granted epoch
  EXPECT_EQ(ack->payload,
            (std::vector<std::byte>{std::byte{0xC5}, std::byte{0x1}}));
  EXPECT_TRUE(transport->waitForWorkers(std::chrono::seconds(2)));
  ::close(fd);
}

TEST(TcpHandshakeTest, StaleEpochAndDoubleConnectAreRefused) {
  auto transport = bareTransport();

  // A zombie claiming an epoch the slot never granted is refused.
  const int stale = dialAndSendHello(*transport, 1, 7);
  EXPECT_FALSE(readAck(stale).has_value());
  ::close(stale);

  // Out-of-range ranks are refused outright (rank 0 is the root itself).
  for (const int rank : {0, 2, -1}) {
    const int bad = dialAndSendHello(*transport, rank, 0);
    EXPECT_FALSE(readAck(bad).has_value()) << "rank " << rank;
    ::close(bad);
  }

  // The genuine worker is still admitted after all those refusals...
  const int good = dialAndSendHello(*transport, 1, 0);
  ASSERT_TRUE(readAck(good).has_value());

  // ...and a second dial claiming the now-live slot is refused without
  // disturbing it.
  const int dup = dialAndSendHello(*transport, 1, 0);
  EXPECT_FALSE(readAck(dup).has_value());
  ::close(dup);
  EXPECT_FALSE(transport->isPermanentlyDead(1));
  ::close(good);
}

TEST(TcpHandshakeTest, ForgedHeadersPoisonOnlyTheirOwnSocket) {
  auto transport = bareTransport();

  {  // wrong magic
    const int fd = runtime::dialOnce("127.0.0.1", transport->port(),
                                     std::chrono::milliseconds(1000), 1);
    std::vector<std::byte> junk(runtime::wire::kFrameHeaderBytes,
                                std::byte{0x5A});
    EXPECT_TRUE(runtime::wire::writeAllFd(fd, junk));
    EXPECT_FALSE(readAck(fd).has_value());
    ::close(fd);
  }
  {  // hello with a hostile payload length: refused from the header check,
     // never allocated
    const int fd = runtime::dialOnce("127.0.0.1", transport->port(),
                                     std::chrono::milliseconds(1000), 1);
    std::vector<std::byte> header;
    const auto append = [&header](auto value) {
      const std::size_t at = header.size();
      header.resize(at + sizeof(value));
      std::memcpy(header.data() + at, &value, sizeof(value));
    };
    append(runtime::wire::kFrameMagic);
    append(std::uint32_t{4});  // kHello
    append(std::int32_t{1});
    append(std::uint64_t{runtime::kMaxPayloadBytes + 1});
    EXPECT_TRUE(runtime::wire::writeAllFd(fd, header));
    EXPECT_FALSE(readAck(fd).has_value());
    ::close(fd);
  }

  // The accept loop survives both attackers: the real worker still gets in.
  const int good = dialAndSendHello(*transport, 1, 0);
  EXPECT_TRUE(readAck(good).has_value());
  ::close(good);
}

TEST(TcpHandshakeTest, HalfOpenConnectionIsDetectedByPingSilence) {
  // Tight monitor: 40 ms pings, 3 misses, no reconnect grace — a peer
  // that never answers is permanently dead within ~a second.
  auto transport = bareTransport(/*graceMs=*/0, /*heartbeatMs=*/40,
                                 /*missLimit=*/3);
  const int fd = dialAndSendHello(*transport, 1, 0);
  ASSERT_TRUE(readAck(fd).has_value());

  // Play dead: never answer a ping, never send a frame, keep the socket
  // open. Only ping silence can catch this (no EOF, no local child).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!transport->isPermanentlyDead(1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(transport->isPermanentlyDead(1));

  // recvFor on the dead rank fails fast instead of burning its timeout.
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_FALSE(transport
                   ->recvFor(0, std::chrono::milliseconds(5000), 1, 0)
                   .has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - begin,
            std::chrono::milliseconds(2500));

  const auto events = transport->drainEvents();
  EXPECT_TRUE(std::any_of(
      events.begin(), events.end(), [](const auto& event) {
        return event.kind ==
               SocketTransport::WorkerEvent::Kind::kPermanentDeath;
      }));
  ::close(fd);
}

// ---- dial retry budget ----

TEST(TcpDialTest, RetryBudgetIsHonoredAndCounted) {
  FaultPlan plan;
  plan.at("tcp.connect", FaultSpec{.action = FaultAction::kThrow});
  runtime::fault::ScopedFaultPlan scoped(plan);

  // The fault fires before any real connect, so the address never matters.
  EXPECT_THROW(runtime::dialWithRetry("127.0.0.1", 1, /*perAttemptTimeout=*/
                                      std::chrono::milliseconds(50),
                                      /*retries=*/3, /*backoffMs=*/1,
                                      /*rank=*/1),
               std::exception);
  EXPECT_EQ(plan.hitCount("tcp.connect"), 4u);  // 1 + retries attempts
}

}  // namespace
}  // namespace chisimnet::net

/// The TCP transport re-enters this binary for its loopback workers (the
/// default worker executable is /proc/self/exe); the worker hook must run
/// before gtest takes over, so this suite supplies its own main.
int main(int argc, char** argv) {
  if (const auto workerExit = chisimnet::net::maybeRunSynthesisWorker()) {
    return *workerExit;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
