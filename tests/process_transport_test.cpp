#include <gtest/gtest.h>

#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "chisimnet/elog/clg5.hpp"
#include "chisimnet/elog/log_directory.hpp"
#include "chisimnet/net/checkpoint.hpp"
#include "chisimnet/net/executor.hpp"
#include "chisimnet/net/mp_protocol.hpp"
#include "chisimnet/net/synthesis.hpp"
#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/runtime/heartbeat.hpp"
#include "chisimnet/runtime/socket_transport.hpp"
#include "chisimnet/util/rng.hpp"

/// Process-isolated transport suite: the wire frame decoder against
/// adversarial byte streams (the short-read hardening), the liveness
/// primitives, the mp protocol codecs, the in-flight checkpoint snapshot,
/// and end-to-end synthesis over real worker processes — including the
/// acceptance cases: a SIGKILLed worker (scripted and raw external) must
/// not change the output, through both the respawn and the
/// loss-reassignment recovery paths.

namespace chisimnet::net {
namespace {

using runtime::FaultAction;
using runtime::FaultPlan;
using runtime::FaultSpec;
using runtime::wire::Frame;
using runtime::wire::FrameKind;
using runtime::wire::FrameReader;
using runtime::wire::ReadFn;
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

std::vector<Event> rowsOf(const table::EventTable& table) {
  std::vector<Event> rows;
  rows.reserve(table.size());
  for (std::uint64_t row = 0; row < table.size(); ++row) {
    rows.push_back(table.row(row));
  }
  return rows;
}

/// A process-transport synthesis config with timings tuned for tests:
/// fast monitor ticks so respawn latency is small, and a command timeout
/// comfortably above one respawn so the retry lands on the fresh worker.
SynthesisConfig processConfig(const FuzzCase& fuzz) {
  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 3;
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kProcess;
  config.heartbeatMs = 100;
  config.faultPolicy = FaultPolicy::kDegrade;
  config.commandTimeoutMs = 600;
  config.commandMaxAttempts = 6;
  config.commandBackoffMs = 1;
  return config;
}

// ---- wire frame decoding over adversarial streams ----

/// ReadFn over an in-memory byte stream that returns at most `chunk`
/// bytes per call — the short reads a stream socket is allowed to give.
ReadFn chunkedReadFn(std::vector<std::byte> data, std::size_t chunk) {
  auto pos = std::make_shared<std::size_t>(0);
  auto bytes = std::make_shared<std::vector<std::byte>>(std::move(data));
  return [pos, bytes, chunk](std::byte* out, std::size_t capacity) {
    if (*pos >= bytes->size()) {
      return std::size_t{0};
    }
    const std::size_t n =
        std::min({chunk, capacity, bytes->size() - *pos});
    std::memcpy(out, bytes->data() + *pos, n);
    *pos += n;
    return n;
  };
}

template <typename T>
void appendScalar(std::vector<std::byte>& out, T value) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

/// Hand-forged header for invalid-input cases encodeFrame cannot produce.
std::vector<std::byte> forgeHeader(std::uint32_t magic, std::uint32_t kind,
                                   std::int32_t tag, std::uint64_t length) {
  std::vector<std::byte> out;
  appendScalar(out, magic);
  appendScalar(out, kind);
  appendScalar(out, tag);
  appendScalar(out, length);
  return out;
}

TEST(WireFrameTest, FramesSurviveArbitrarySplitReads) {
  // Zero-length, one-byte, and a payload far larger than any read chunk,
  // back to back in one stream.
  Frame empty{FrameKind::kData, 7, {}};
  Frame tiny{FrameKind::kPong, -3, {std::byte{0xAB}}};
  Frame big{FrameKind::kData, 42, {}};
  big.payload.resize(1 << 20);
  for (std::size_t i = 0; i < big.payload.size(); ++i) {
    big.payload[i] = static_cast<std::byte>(i * 31 + 5);
  }
  std::vector<std::byte> stream;
  for (const Frame* frame : {&empty, &tiny, &big}) {
    const auto encoded = runtime::wire::encodeFrame(*frame);
    stream.insert(stream.end(), encoded.begin(), encoded.end());
  }

  // Chunk sizes that split the header, the payload, and their boundary.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{19}, std::size_t{4096}}) {
    FrameReader reader(chunkedReadFn(stream, chunk));
    for (const Frame* want : {&empty, &tiny, &big}) {
      const auto got = reader.next();
      ASSERT_TRUE(got.has_value()) << "chunk " << chunk;
      EXPECT_EQ(got->kind, want->kind) << "chunk " << chunk;
      EXPECT_EQ(got->tag, want->tag) << "chunk " << chunk;
      EXPECT_EQ(got->payload, want->payload) << "chunk " << chunk;
    }
    // Clean EOF exactly at a frame boundary: nullopt, not a throw.
    EXPECT_FALSE(reader.next().has_value()) << "chunk " << chunk;
  }
}

TEST(WireFrameTest, EofTearingAHeaderThrows) {
  const auto encoded =
      runtime::wire::encodeFrame(Frame{FrameKind::kPing, 0, {}});
  for (const std::size_t keep : {std::size_t{1}, std::size_t{8},
                                 runtime::wire::kFrameHeaderBytes - 1}) {
    std::vector<std::byte> torn(encoded.begin(),
                                encoded.begin() + static_cast<long>(keep));
    FrameReader reader(chunkedReadFn(torn, 3));
    EXPECT_THROW(reader.next(), std::exception) << "kept " << keep;
  }
}

TEST(WireFrameTest, EofTearingAPayloadThrows) {
  Frame frame{FrameKind::kData, 5, std::vector<std::byte>(64, std::byte{9})};
  auto encoded = runtime::wire::encodeFrame(frame);
  encoded.resize(encoded.size() - 10);  // header intact, payload short
  FrameReader reader(chunkedReadFn(encoded, 7));
  EXPECT_THROW(reader.next(), std::exception);
}

TEST(WireFrameTest, BadMagicAndUnknownKindAreRejected) {
  {
    FrameReader reader(chunkedReadFn(
        forgeHeader(0xDEADBEEFu, 1, 0, 0), 4));
    EXPECT_THROW(reader.next(), std::exception);
  }
  {
    FrameReader reader(chunkedReadFn(
        forgeHeader(runtime::wire::kFrameMagic, 99, 0, 0), 4));
    EXPECT_THROW(reader.next(), std::exception);
  }
}

TEST(WireFrameTest, OversizedLengthIsRejectedBeforeAllocation) {
  // A hostile length header one past the cap must throw from the header
  // check itself; were it used to size a buffer first, this would be a
  // 1 GiB+ allocation.
  const auto header = forgeHeader(runtime::wire::kFrameMagic, 1, 0,
                                  runtime::kMaxPayloadBytes + 1);
  FrameReader reader(chunkedReadFn(header, 5));
  try {
    reader.next();
    FAIL() << "oversized length must not be accepted";
  } catch (const std::exception& error) {
    EXPECT_NE(std::string(error.what()).find("payload"), std::string::npos);
  }
}

// ---- liveness primitives ----

TEST(HeartbeatTest, BookTracksSilencePerPeer) {
  runtime::HeartbeatBook book(3);
  EXPECT_EQ(book.peerCount(), 3);
  // Freshly constructed peers are not instantly overdue.
  EXPECT_FALSE(book.overdue(0, std::chrono::milliseconds(250)));
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_TRUE(book.overdue(1, std::chrono::milliseconds(5)));
  book.beat(1);
  EXPECT_FALSE(book.overdue(1, std::chrono::milliseconds(5)));
  // Beating one peer leaves the others' clocks alone.
  EXPECT_TRUE(book.overdue(2, std::chrono::milliseconds(5)));
  EXPECT_LT(book.age(1), book.age(2));
}

TEST(HeartbeatTest, PeriodicTaskTicksUntilStopped) {
  std::atomic<int> ticks{0};
  {
    runtime::PeriodicTask task(std::chrono::milliseconds(10),
                               [&ticks] { ++ticks; });
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    task.stop();
    const int atStop = ticks.load();
    EXPECT_GE(atStop, 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(ticks.load(), atStop);  // no ticks after stop
    task.stop();                      // idempotent
  }
  // Destructor after stop must not hang or double-join.
}

// ---- mp protocol codecs ----

TEST(MpProtocolTest, StageParamsRoundTripThroughHelloPayload) {
  mp::StageParams params;
  params.windowStart = 17;
  params.windowEnd = 193;
  const auto bytes = mp::encodeStageParams(params);
  const mp::StageParams back = mp::decodeStageParams(bytes);
  EXPECT_EQ(back.windowStart, params.windowStart);
  EXPECT_EQ(back.windowEnd, params.windowEnd);

  // Truncated and oversized payloads are both malformed.
  std::vector<std::byte> shortBytes(bytes.begin(), bytes.end() - 1);
  EXPECT_THROW(mp::decodeStageParams(shortBytes), std::exception);
  std::vector<std::byte> longBytes(bytes);
  longBytes.push_back(std::byte{0});
  EXPECT_THROW(mp::decodeStageParams(longBytes), std::exception);
}

// ---- in-flight batch checkpoint snapshot ----

TEST(InflightCheckpointTest, SnapshotRoundTripsExactly) {
  ScratchDir scratch("chisimnet_proc_inflight");
  const FuzzCase fuzz = makeCase(5);

  CheckpointManifest manifest;
  manifest.filesConsumed = 2;
  manifest.batchesDone = 1;
  manifest.configHash = 0x1234;
  sparse::SymmetricAdjacency adjacency;
  adjacency.add(1, 2, 3);

  InflightBatch inflight;
  for (const Event& event : rowsOf(fuzz.events)) {
    inflight.events.append(event);
  }
  inflight.events.sortByStart();
  inflight.filesInBatch = 2;
  inflight.quarantined.push_back(elog::QuarantinedFile{
      "/logs/rank_0005.clg5", 3, 512, "chunk crc mismatch"});
  saveCheckpoint(scratch.path(), manifest, adjacency, &inflight);

  const auto loaded = loadCheckpointManifest(scratch.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->inflightFile.empty());
  const auto restored = loadCheckpointInflight(scratch.path(), *loaded);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->filesInBatch, 2u);
  EXPECT_EQ(rowsOf(restored->events), rowsOf(inflight.events));
  EXPECT_EQ(restored->events.isSortedByStart(),
            inflight.events.isSortedByStart());
  ASSERT_EQ(restored->quarantined.size(), 1u);
  EXPECT_EQ(restored->quarantined[0].file, "/logs/rank_0005.clg5");
  EXPECT_EQ(restored->quarantined[0].chunkIndex, 3);
  EXPECT_EQ(restored->quarantined[0].byteOffset, 512u);
  EXPECT_EQ(restored->quarantined[0].reason, "chunk crc mismatch");

  // A checkpoint written without a snapshot restores to nullopt.
  saveCheckpoint(scratch.path(), manifest, adjacency);
  const auto bare = loadCheckpointManifest(scratch.path());
  ASSERT_TRUE(bare.has_value());
  EXPECT_TRUE(bare->inflightFile.empty());
  EXPECT_FALSE(loadCheckpointInflight(scratch.path(), *bare).has_value());
}

TEST(InflightCheckpointTest, CorruptSnapshotIsRejectedNotComputedOn) {
  ScratchDir scratch("chisimnet_proc_inflight_corrupt");
  const FuzzCase fuzz = makeCase(6);
  CheckpointManifest manifest;
  manifest.filesConsumed = 1;
  sparse::SymmetricAdjacency adjacency;
  InflightBatch inflight;
  for (const Event& event : rowsOf(fuzz.events)) {
    inflight.events.append(event);
  }
  inflight.filesInBatch = 1;
  saveCheckpoint(scratch.path(), manifest, adjacency, &inflight);
  const auto loaded = loadCheckpointManifest(scratch.path());
  ASSERT_TRUE(loaded.has_value());

  // Flip one payload byte: the CRC must catch it.
  const auto path = scratch.path() / loaded->inflightFile;
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(20);
    char byte = 0;
    file.seekg(20);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(20);
    file.write(&byte, 1);
  }
  EXPECT_THROW(loadCheckpointInflight(scratch.path(), *loaded),
               std::exception);
}

// ---- process transport: config validation ----

TEST(ProcessTransportConfigTest, InvalidCombinationsAreRejected) {
  SynthesisConfig config;
  config.transport = MpTransport::kProcess;  // needs the mp backend
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);

  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kProcess;
  config.heartbeatMs = 0;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);

  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.maxRespawns = -1;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);

  // Degrade over processes without a command timeout would hang forever
  // on a dead worker; the config must say so up front.
  config = SynthesisConfig{};
  config.backend = SynthesisBackend::kMessagePassing;
  config.transport = MpTransport::kProcess;
  config.faultPolicy = FaultPolicy::kDegrade;
  config.commandTimeoutMs = 0;
  EXPECT_THROW(NetworkSynthesizer{config}, std::invalid_argument);
}

// ---- process transport: end-to-end synthesis ----

TEST(ProcessTransportSynthesisTest, CleanRunMatchesBruteForce) {
  const FuzzCase fuzz = makeCase(91);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_proc_clean");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  SynthesisConfig config = processConfig(fuzz);
  config.filesPerBatch = 2;
  for (const bool prefetch : {false, true}) {
    config.prefetch = prefetch;
    NetworkSynthesizer synthesizer(config);
    const auto adjacency = synthesizer.synthesizeAdjacency(files);
    expectEqualAdjacency(adjacency, reference,
                         prefetch ? "process prefetch" : "process serial");
    const SynthesisReport& report = synthesizer.report();
    EXPECT_EQ(report.ranksLost, 0);
    EXPECT_EQ(report.workersRespawned, 0u);
    EXPECT_GT(report.bytesScattered, 0u);
  }
}

TEST(ProcessTransportSynthesisTest, WorkerCommandThrowIsRetried) {
  const FuzzCase fuzz = makeCase(92);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_proc_retry");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 3);

  // The plan ships to the workers through the bootstrap environment; the
  // first command a worker processes throws, it answers status=failed,
  // and the root retries against the same (still live) process.
  FaultPlan plan;
  plan.at("mp.service.command",
          FaultSpec{.action = FaultAction::kThrow, .hit = 1});
  runtime::fault::ScopedFaultPlan scoped(plan);

  SynthesisConfig config = processConfig(fuzz);
  NetworkSynthesizer synthesizer(config);
  expectEqualAdjacency(synthesizer.synthesizeAdjacency(files), reference,
                       "process retry after worker throw");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_GE(report.commandRetries, 1u);
  EXPECT_EQ(report.ranksLost, 0);
  EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kCommandRetry));
}

/// Acceptance (respawn path): the worker behind the very first root->worker
/// frame is SIGKILLed before the frame reaches it. The monitor reaps and
/// respawns it, the command retry lands on the fresh process, and the
/// output is bit-identical with no rank lost.
TEST(ProcessTransportSynthesisTest, SigkilledWorkerIsRespawnedBitIdentical) {
  const FuzzCase fuzz = makeCase(93);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_proc_respawn");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  // Root-side site: the hit counter lives in this process, so the kill
  // fires exactly once and the respawned worker is left alone.
  FaultPlan plan;
  plan.at("proc.send",
          FaultSpec{.action = FaultAction::kKillRank, .hit = 1});
  runtime::fault::ScopedFaultPlan scoped(plan);

  SynthesisConfig config = processConfig(fuzz);
  config.filesPerBatch = 2;
  NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);
  expectEqualAdjacency(adjacency, reference, "respawn path");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_EQ(report.ranksLost, 0);
  EXPECT_GE(report.workersRespawned, 1u);
  EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kWorkerRespawn));
  EXPECT_FALSE(hasFault(report, FaultEvent::Kind::kRankLost));
}

/// Acceptance (reassignment path): worker rank 2 SIGKILLs itself on every
/// command it receives. The fault plan is replayed into each respawn, so
/// the respawn budget drains and the rank goes permanently dead; the run
/// completes on the survivors with identical output.
TEST(ProcessTransportSynthesisTest, RespawnBudgetExhaustionReassignsWork) {
  const FuzzCase fuzz = makeCase(94);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_proc_reassign");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  FaultPlan plan;
  plan.at("mp.service.command",
          FaultSpec{.action = FaultAction::kKillProcess, .rank = 2});
  runtime::fault::ScopedFaultPlan scoped(plan);

  SynthesisConfig config = processConfig(fuzz);
  config.workers = 4;
  config.maxRespawns = 1;
  config.filesPerBatch = 2;
  NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);
  expectEqualAdjacency(adjacency, reference, "reassignment path");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_EQ(report.ranksLost, 1);
  EXPECT_GE(report.workersRespawned, 1u);
  EXPECT_TRUE(hasFault(report, FaultEvent::Kind::kRankLost));

  // The degraded synthesizer keeps producing identical output afterwards.
  expectEqualAdjacency(synthesizer.synthesizeAdjacency(files), reference,
                       "reassignment path, second run");
}

TEST(ProcessTransportSynthesisTest, MaxRespawnsZeroLosesTheRankOnFirstDeath) {
  const FuzzCase fuzz = makeCase(95);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_proc_no_respawn");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 3);

  FaultPlan plan;
  plan.at("proc.send",
          FaultSpec{.action = FaultAction::kKillRank, .hit = 1});
  runtime::fault::ScopedFaultPlan scoped(plan);

  SynthesisConfig config = processConfig(fuzz);
  config.maxRespawns = 0;
  NetworkSynthesizer synthesizer(config);
  expectEqualAdjacency(synthesizer.synthesizeAdjacency(files), reference,
                       "respawn disabled");
  const SynthesisReport& report = synthesizer.report();
  EXPECT_EQ(report.ranksLost, 1);
  EXPECT_EQ(report.workersRespawned, 0u);
}

/// Child pids of this process, read from /proc — the transport's workers
/// are our only children, so this is how an *external* killer (an OOM
/// killer, an operator) would find them.
std::vector<pid_t> childProcesses() {
  std::vector<pid_t> children;
  const pid_t self = ::getpid();
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.empty() ||
        !std::isdigit(static_cast<unsigned char>(name[0]))) {
      continue;
    }
    std::ifstream stat(entry.path() / "stat");
    std::string content((std::istreambuf_iterator<char>(stat)),
                        std::istreambuf_iterator<char>());
    // Fields after the parenthesized comm: state, then ppid.
    const auto close = content.rfind(')');
    if (close == std::string::npos || close + 2 >= content.size()) {
      continue;
    }
    std::istringstream rest(content.substr(close + 2));
    char state = 0;
    pid_t ppid = -1;
    rest >> state >> ppid;
    if (ppid == self) {
      children.push_back(static_cast<pid_t>(std::stol(name)));
    }
  }
  return children;
}

/// Acceptance (raw external kill): SIGKILL a live worker from outside the
/// fault framework while mapAdjacency commands are in flight. Whichever
/// recovery path engages — respawn or loss reassignment — the surviving
/// output must be bit-identical.
TEST(ProcessTransportSynthesisTest, RawExternalSigkillMidRunSurvives) {
  const FuzzCase fuzz = makeCase(96);
  const auto reference =
      bruteForceAdjacency(fuzz.events, fuzz.windowStart, fuzz.windowEnd);
  ScratchDir scratch("chisimnet_proc_external_kill");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 4);

  // Stretch every worker command by 40 ms (shipped via the bootstrap env)
  // so the external SIGKILL reliably lands while work is in flight.
  FaultPlan plan;
  plan.at("mp.service.command",
          FaultSpec{.action = FaultAction::kDelay, .delayMs = 40});
  runtime::fault::ScopedFaultPlan scoped(plan);

  SynthesisConfig config = processConfig(fuzz);
  config.filesPerBatch = 2;

  std::atomic<bool> done{false};
  std::atomic<bool> killed{false};
  std::thread killer([&done, &killed] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!done.load() && std::chrono::steady_clock::now() < deadline) {
      const auto children = childProcesses();
      if (!children.empty()) {
        // Give the run a moment to get commands in flight, then kill.
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        if (!done.load() && ::kill(children.front(), SIGKILL) == 0) {
          killed.store(true);
        }
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  NetworkSynthesizer synthesizer(config);
  const auto adjacency = synthesizer.synthesizeAdjacency(files);
  done.store(true);
  killer.join();

  expectEqualAdjacency(adjacency, reference, "raw external SIGKILL");
  const SynthesisReport& report = synthesizer.report();
  ASSERT_TRUE(killed.load()) << "the killer thread never found a worker";
  EXPECT_GE(report.workersRespawned + static_cast<std::uint64_t>(
                                          report.ranksLost),
            1u)
      << "the kill must show up as a respawn or a lost rank";
}

/// Kill-mid-batch checkpoint/resume with the in-flight snapshot: the
/// prefetcher has the next batch decoded when the driver dies, the
/// checkpoint carries it, and the resumed run restores it instead of
/// re-decoding — with bit-identical output.
TEST(ProcessTransportSynthesisTest, KillMidBatchResumeRestoresInflight) {
  const FuzzCase fuzz = makeCase(97);
  ScratchDir scratch("chisimnet_proc_inflight_resume");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 6);

  for (const bool processTransport : {false, true}) {
    const std::string label =
        processTransport ? "mp-process" : "mp-inproc";
    ScratchDir checkpoints("chisimnet_proc_inflight_ckpt_" + label);

    SynthesisConfig config;
    config.windowStart = fuzz.windowStart;
    config.windowEnd = fuzz.windowEnd;
    config.workers = 3;
    config.backend = SynthesisBackend::kMessagePassing;
    config.filesPerBatch = 2;  // 3 batches over 6 files
    config.prefetch = true;
    config.prefetchDepth = 2;
    if (processTransport) {
      config.transport = MpTransport::kProcess;
      config.heartbeatMs = 100;
    }

    // Reference: one uninterrupted run, no checkpointing involved.
    NetworkSynthesizer uninterrupted(config);
    const auto reference = uninterrupted.synthesizeAdjacency(files);

    config.checkpointDir = checkpoints.path();
    {
      // Slow the compute side so the producer is decoded ahead, then die
      // right after the second batch's checkpoint hits disk.
      FaultPlan plan;
      plan.at("driver.collocation",
              FaultSpec{.action = FaultAction::kDelay, .delayMs = 40});
      plan.at("driver.batch",
              FaultSpec{.action = FaultAction::kThrow, .hit = 2});
      runtime::fault::ScopedFaultPlan scoped(plan);
      NetworkSynthesizer interrupted(config);
      EXPECT_THROW(interrupted.synthesizeAdjacency(files),
                   runtime::FaultInjected)
          << label;
    }
    const auto manifest = loadCheckpointManifest(checkpoints.path());
    ASSERT_TRUE(manifest.has_value()) << label;
    EXPECT_EQ(manifest->filesConsumed, 4u) << label;
    ASSERT_FALSE(manifest->inflightFile.empty())
        << label << ": the checkpoint must carry the decoded batch 3";

    config.resume = true;
    NetworkSynthesizer resumed(config);
    const auto adjacency = resumed.synthesizeAdjacency(files);
    EXPECT_EQ(adjacency.toTriplets(), reference.toTriplets()) << label;
    const SynthesisReport& report = resumed.report();
    EXPECT_TRUE(report.resumed) << label;
    EXPECT_TRUE(report.inflightRestored) << label;
    EXPECT_EQ(report.batches, 3u) << label;
    EXPECT_EQ(report.filesSkippedByResume, 4u) << label;
  }
}

/// The non-prefetching driver must also accept (and correctly consume) a
/// checkpoint whose snapshot a prefetching run wrote before dying.
TEST(ProcessTransportSynthesisTest, SerialResumeConsumesAPrefetchSnapshot) {
  const FuzzCase fuzz = makeCase(98);
  ScratchDir scratch("chisimnet_proc_serial_resume");
  const auto files =
      writePlacePartitionedFiles(fuzz.events, scratch.path(), 6);
  ScratchDir checkpoints("chisimnet_proc_serial_resume_ckpt");

  SynthesisConfig config;
  config.windowStart = fuzz.windowStart;
  config.windowEnd = fuzz.windowEnd;
  config.workers = 3;
  config.filesPerBatch = 2;
  config.prefetch = true;
  config.prefetchDepth = 2;

  NetworkSynthesizer uninterrupted(config);
  const auto reference = uninterrupted.synthesizeAdjacency(files);

  config.checkpointDir = checkpoints.path();
  {
    FaultPlan plan;
    plan.at("driver.collocation",
            FaultSpec{.action = FaultAction::kDelay, .delayMs = 40});
    plan.at("driver.batch",
            FaultSpec{.action = FaultAction::kThrow, .hit = 2});
    runtime::fault::ScopedFaultPlan scoped(plan);
    NetworkSynthesizer interrupted(config);
    EXPECT_THROW(interrupted.synthesizeAdjacency(files),
                 runtime::FaultInjected);
  }
  const auto manifest = loadCheckpointManifest(checkpoints.path());
  ASSERT_TRUE(manifest.has_value());
  ASSERT_FALSE(manifest->inflightFile.empty());

  config.resume = true;
  config.prefetch = false;  // resume with the serial loader
  NetworkSynthesizer resumed(config);
  const auto adjacency = resumed.synthesizeAdjacency(files);
  EXPECT_EQ(adjacency.toTriplets(), reference.toTriplets());
  EXPECT_TRUE(resumed.report().inflightRestored);
}

}  // namespace
}  // namespace chisimnet::net

/// The process transport re-enters this binary for its workers (the
/// default worker executable is /proc/self/exe); the worker hook must run
/// before gtest takes over, so this suite supplies its own main.
int main(int argc, char** argv) {
  if (const auto workerExit = chisimnet::net::maybeRunSynthesisWorker()) {
    return *workerExit;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
