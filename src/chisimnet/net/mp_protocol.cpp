#include "chisimnet/net/mp_protocol.hpp"

#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "chisimnet/runtime/comm.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/sparse/spill.hpp"
#include "chisimnet/util/error.hpp"
#include "chisimnet/util/timer.hpp"

namespace chisimnet::net::mp {

namespace {

/// Headroom kept under runtime::maxPayloadBytes() when deciding whether a
/// run still fits inline in a reply (frame headers, stats, refs).
constexpr std::uint64_t kReplySlackBytes = 4096;

/// Under run shipping, converts a local file ref into a shipped ref: the
/// bytes stream to the root on kShipTag, the reply carries the bare name,
/// and the local file is deleted (a retried command re-executes the pure
/// body and re-ships). A no-op for inline refs or without a shipper.
RunRef maybeShip(const StageParams& params, RunShipper* shipper, RunRef ref) {
  if (!params.shipRuns || shipper == nullptr || !ref.isFile() ||
      ref.shipped) {
    return ref;
  }
  const std::filesystem::path local(ref.file);
  ref.file = shipper->ship(local, ref.bytes);
  ref.shipped = true;
  std::error_code ignored;
  std::filesystem::remove(local, ignored);
  return ref;
}

}  // namespace

void put32(std::vector<std::byte>& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::byte>(value >> shift));
  }
}

void put64(std::vector<std::byte>& out, std::uint64_t value) {
  put32(out, static_cast<std::uint32_t>(value));
  put32(out, static_cast<std::uint32_t>(value >> 32));
}

std::uint32_t take32(std::span<const std::byte> bytes, std::size_t& cursor) {
  CHISIM_CHECK(cursor + 4 <= bytes.size(), "truncated frame");
  const std::uint32_t value =
      static_cast<std::uint32_t>(bytes[cursor]) |
      (static_cast<std::uint32_t>(bytes[cursor + 1]) << 8) |
      (static_cast<std::uint32_t>(bytes[cursor + 2]) << 16) |
      (static_cast<std::uint32_t>(bytes[cursor + 3]) << 24);
  cursor += 4;
  return value;
}

std::uint64_t take64(std::span<const std::byte> bytes, std::size_t& cursor) {
  const std::uint64_t low = take32(bytes, cursor);
  const std::uint64_t high = take32(bytes, cursor);
  return low | (high << 32);
}

void putDouble(std::vector<std::byte>& out, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  put64(out, bits);
}

double takeDouble(std::span<const std::byte> bytes, std::size_t& cursor) {
  const std::uint64_t bits = take64(bytes, cursor);
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void putTriplets(std::vector<std::byte>& out,
                 std::span<const sparse::AdjacencyTriplet> triplets) {
  put64(out, triplets.size());
  const auto bytes = std::as_bytes(triplets);
  out.insert(out.end(), bytes.begin(), bytes.end());
}

std::vector<sparse::AdjacencyTriplet> takeTriplets(
    std::span<const std::byte> bytes, std::size_t& cursor) {
  const std::uint64_t count = take64(bytes, cursor);
  CHISIM_CHECK(
      count <= (bytes.size() - cursor) / sizeof(sparse::AdjacencyTriplet),
      "triplet run declares more entries than its bytes can hold");
  std::vector<sparse::AdjacencyTriplet> triplets(
      static_cast<std::size_t>(count));
  if (count > 0) {
    std::memcpy(triplets.data(), bytes.data() + cursor,
                count * sizeof(sparse::AdjacencyTriplet));
    cursor += count * sizeof(sparse::AdjacencyTriplet);
  }
  return triplets;
}

void putString(std::vector<std::byte>& out, const std::string& text) {
  put32(out, static_cast<std::uint32_t>(text.size()));
  const auto bytes = stringBytes(text);
  out.insert(out.end(), bytes.begin(), bytes.end());
}

std::string takeString(std::span<const std::byte> bytes,
                       std::size_t& cursor) {
  const std::uint32_t length = take32(bytes, cursor);
  CHISIM_CHECK(length <= bytes.size() - cursor,
               "string declares more bytes than the frame holds");
  std::string text(length, '\0');
  if (length > 0) {
    std::memcpy(text.data(), bytes.data() + cursor, length);
    cursor += length;
  }
  return text;
}

void putRunRef(std::vector<std::byte>& out, const RunRef& ref) {
  if (ref.isFile()) {
    put32(out, ref.shipped ? 2 : 1);
    putString(out, ref.file);
    put64(out, ref.triplets);
    put64(out, ref.bytes);
    put32(out, ref.hasKeyRange ? 1 : 0);
    put64(out, ref.firstKey);
    put64(out, ref.lastKey);
    put64(out, ref.frameTriplets);
  } else {
    put32(out, 0);
    putTriplets(out, ref.inlineRun);
  }
}

RunRef fileRunRef(const sparse::SpillRunInfo& info) {
  RunRef ref;
  ref.file = info.file.string();
  ref.triplets = info.triplets;
  ref.bytes = info.bytes;
  ref.hasKeyRange = info.hasKeyRange;
  ref.firstKey = info.firstKey;
  ref.lastKey = info.lastKey;
  ref.frameTriplets = info.frameTriplets;
  return ref;
}

sparse::SpillRunInfo runInfoOf(const RunRef& ref) {
  sparse::SpillRunInfo info;
  info.file = ref.file;
  info.triplets = ref.triplets;
  info.bytes = ref.bytes;
  info.hasKeyRange = ref.hasKeyRange;
  info.firstKey = ref.firstKey;
  info.lastKey = ref.lastKey;
  info.frameTriplets = ref.frameTriplets;
  return info;
}

RunRef takeRunRef(std::span<const std::byte> bytes, std::size_t& cursor) {
  RunRef ref;
  const std::uint32_t mode = take32(bytes, cursor);
  if (mode == 1 || mode == 2) {
    ref.shipped = mode == 2;
    ref.file = takeString(bytes, cursor);
    CHISIM_CHECK(!ref.file.empty(),
                 ref.shipped ? "shipped run ref with an empty name"
                             : "file run ref with an empty path");
    ref.triplets = take64(bytes, cursor);
    ref.bytes = take64(bytes, cursor);
    ref.hasKeyRange = take32(bytes, cursor) != 0;
    ref.firstKey = take64(bytes, cursor);
    ref.lastKey = take64(bytes, cursor);
    ref.frameTriplets = take64(bytes, cursor);
    CHISIM_CHECK(ref.frameTriplets >= 1 &&
                     ref.frameTriplets <= sparse::kSpillFrameTriplets,
                 "file run ref with an implausible frame size");
  } else {
    CHISIM_CHECK(mode == 0,
                 "unknown run ref mode " + std::to_string(mode));
    ref.inlineRun = takeTriplets(bytes, cursor);
  }
  return ref;
}

std::vector<std::byte> encodeShipChunk(const std::string& name,
                                       std::uint64_t offset,
                                       std::uint64_t total,
                                       std::span<const std::byte> data) {
  std::vector<std::byte> chunk;
  chunk.reserve(4 + name.size() + 16 + data.size());
  putString(chunk, name);
  put64(chunk, offset);
  put64(chunk, total);
  chunk.insert(chunk.end(), data.begin(), data.end());
  return chunk;
}

ShipChunkView decodeShipChunk(std::span<const std::byte> bytes) {
  std::size_t cursor = 0;
  ShipChunkView view;
  view.name = takeString(bytes, cursor);
  CHISIM_CHECK(!view.name.empty(), "ship chunk with an empty run name");
  view.offset = take64(bytes, cursor);
  view.total = take64(bytes, cursor);
  view.data = bytes.subspan(cursor);
  CHISIM_CHECK(view.offset + view.data.size() <= view.total,
               "ship chunk overruns its declared total");
  return view;
}

std::vector<std::byte> packMatrices(
    const std::vector<sparse::CollocationMatrix>& matrices) {
  // [count u32][per matrix: byteLength u32 + payload]
  std::vector<std::byte> packed;
  put32(packed, static_cast<std::uint32_t>(matrices.size()));
  for (const sparse::CollocationMatrix& matrix : matrices) {
    const std::vector<std::byte> bytes = matrix.toBytes();
    put32(packed, static_cast<std::uint32_t>(bytes.size()));
    packed.insert(packed.end(), bytes.begin(), bytes.end());
  }
  return packed;
}

std::vector<sparse::CollocationMatrix> unpackMatrices(
    std::span<const std::byte> packed) {
  std::size_t cursor = 0;
  const std::uint32_t count = take32(packed, cursor);
  // Bound the declared count by what the remaining bytes could possibly
  // hold (each matrix costs at least its 4-byte length prefix) before it
  // drives any allocation or loop.
  CHISIM_CHECK(count <= (packed.size() - cursor) / 4,
               "matrix pack declares more matrices than its bytes can hold");
  std::vector<sparse::CollocationMatrix> matrices;
  matrices.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t length = take32(packed, cursor);
    CHISIM_CHECK(cursor + length <= packed.size(), "truncated matrix pack");
    matrices.push_back(
        sparse::CollocationMatrix::fromBytes(packed.subspan(cursor, length)));
    cursor += length;
  }
  return matrices;
}

std::vector<std::byte> frameCommand(std::uint32_t command, std::uint64_t epoch,
                                    std::span<const std::byte> body) {
  std::vector<std::byte> frame;
  frame.reserve(kCommandHeaderBytes + body.size());
  put32(frame, command);
  put64(frame, epoch);
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

std::vector<std::byte> frameReply(std::uint32_t command, std::uint32_t status,
                                  std::uint64_t epoch,
                                  std::span<const std::byte> body) {
  std::vector<std::byte> frame;
  frame.reserve(kReplyHeaderBytes + body.size());
  put32(frame, command);
  put32(frame, status);
  put64(frame, epoch);
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

std::span<const std::byte> stringBytes(const std::string& text) {
  return std::as_bytes(std::span<const char>(text.data(), text.size()));
}

std::vector<std::byte> encodeStageParams(const StageParams& params) {
  std::vector<std::byte> bytes;
  bytes.reserve(24 + params.spillDir.size());
  put32(bytes, params.windowStart);
  put32(bytes, params.windowEnd);
  put64(bytes, params.spillThresholdBytes);
  putString(bytes, params.spillDir);
  put32(bytes, params.splitRows);
  put64(bytes, params.frameTriplets);
  put32(bytes, params.shipRuns ? 1 : 0);
  return bytes;
}

StageParams decodeStageParams(std::span<const std::byte> bytes) {
  std::size_t cursor = 0;
  StageParams params;
  params.windowStart = take32(bytes, cursor);
  params.windowEnd = take32(bytes, cursor);
  params.spillThresholdBytes = take64(bytes, cursor);
  params.spillDir = takeString(bytes, cursor);
  params.splitRows = take32(bytes, cursor);
  params.frameTriplets = take64(bytes, cursor);
  params.shipRuns = take32(bytes, cursor) != 0;
  CHISIM_CHECK(cursor == bytes.size(), "malformed stage parameter payload");
  return params;
}

std::vector<std::byte> executeSynthesisCommand(
    const StageParams& params, std::uint32_t command,
    std::span<const std::byte> body, RunShipper* shipper) {
  switch (command) {
    case kCmdCollocation: {
      // Body: [groupCount u32][per group: eventCount u32][events].
      std::size_t cursor = 0;
      const std::uint32_t groupCount = take32(body, cursor);
      CHISIM_CHECK(groupCount <= (body.size() - cursor) / 4,
                   "event scatter declares more groups than its bytes hold");
      std::vector<std::uint32_t> groupSizes(groupCount);
      std::uint64_t totalEvents = 0;
      for (std::uint32_t& size : groupSizes) {
        size = take32(body, cursor);
        totalEvents += size;
      }
      CHISIM_CHECK(cursor + totalEvents * sizeof(table::Event) == body.size(),
                   "event scatter size mismatch");
      std::vector<table::Event> events(totalEvents);
      if (totalEvents > 0) {
        std::memcpy(events.data(), body.data() + cursor,
                    totalEvents * sizeof(table::Event));
      }
      std::vector<sparse::CollocationMatrix> built;
      std::size_t eventCursor = 0;
      for (std::uint32_t groupSize : groupSizes) {
        const std::span<const table::Event> groupEvents(
            events.data() + eventCursor, groupSize);
        eventCursor += groupSize;
        CHISIM_CHECK(!groupEvents.empty(), "empty place group scattered");
        sparse::CollocationMatrix matrix(groupEvents.front().place,
                                         groupEvents, params.windowStart,
                                         params.windowEnd);
        if (matrix.nnz() > 0) {
          built.push_back(std::move(matrix));
        }
      }
      // Return the matrix list to the root (paper: "saved in a list and
      // returned to the root process").
      return packMatrices(built);
    }
    case kCmdAdjacency: {
      // Body: [runToken u64][packed matrix batch]. The token makes this
      // rank's spill-file names unique per command body, so retries rewrite
      // the same files (deterministic content, tmp+rename) while a
      // reassigned body — which gets a fresh token — never collides with a
      // half-dead rank still executing the old one.
      // Reply: [busySeconds f64][kernel stats 5×u64][peakLocalBytes u64]
      //        [runCount u32][RunRef × runCount].
      std::size_t cursor = 0;
      const std::uint64_t token = take64(body, cursor);
      const auto batch = unpackMatrices(body.subspan(cursor));
      util::WallTimer busy;
      sparse::SpillingSum sum(params.spillDir,
                              "t" + std::to_string(token) + ".",
                              params.spillThresholdBytes, params.splitRows,
                              params.frameTriplets);
      for (const sparse::CollocationMatrix& matrix : batch) {
        sum.addCollocation(matrix);
      }
      std::vector<sparse::AdjacencyTriplet> remainder = sum.drainInMemory();
      const double busySeconds = busy.seconds();
      const sparse::AdjacencyKernelStats& stats = sum.kernelStats();

      std::vector<RunRef> refs;
      for (const sparse::SpillRunInfo& info : sum.runs()) {
        refs.push_back(maybeShip(params, shipper, fileRunRef(info)));
      }
      if (!remainder.empty()) {
        const std::uint64_t inlineBytes =
            remainder.size() * sizeof(sparse::AdjacencyTriplet);
        if (inlineBytes + kReplySlackBytes <= runtime::maxPayloadBytes()) {
          RunRef ref;
          ref.inlineRun = std::move(remainder);
          refs.push_back(std::move(ref));
        } else {
          // The remainder alone would overflow the transport frame: spill
          // it and return the path — the scale-ceiling fix.
          CHISIM_CHECK(!params.spillDir.empty(),
                       "adjacency reply exceeds the payload limit and no "
                       "spill directory is configured");
          sparse::SpillRunWriter writer(
              std::filesystem::path(params.spillDir) /
                  ("t" + std::to_string(token) + ".f.spl"),
              params.frameTriplets);
          writer.append(std::span<const sparse::AdjacencyTriplet>(remainder));
          refs.push_back(
              maybeShip(params, shipper, fileRunRef(writer.finish())));
        }
      }

      std::vector<std::byte> reply;
      putDouble(reply, busySeconds);
      put64(reply, stats.densePlaces);
      put64(reply, stats.hashPlaces);
      put64(reply, stats.pairHourUpdates);
      put64(reply, stats.globalEmits);
      put64(reply, stats.mergeReservedEntries);
      // The worker's spill counts reach the root through run adoption;
      // only its peak bytes travel here.
      put64(reply, sum.peakBytes());
      put32(reply, static_cast<std::uint32_t>(refs.size()));
      for (const RunRef& ref : refs) {
        putRunRef(reply, ref);
      }
      return reply;
    }
    case kCmdMergeShard: {
      // Body: [runToken u64][readerBudget u64][shardCount u32][per shard:
      // shard u32, runCount u32, RunRef × runCount (file runs,
      // shard-pure)].
      // Reply: [busySeconds f64][shardCount u32][per shard: shard u32,
      // mergeSeconds f64, segment file string, triplets u64, bytes u64,
      // crc u32, passes u64, passTriplets u64, passBytes u64,
      // peakReaderBytes u64]. Segment names carry the token, so a retried
      // body rewrites its own files (deterministic content, tmp+rename)
      // while a reassigned body — fresh token — never collides with a
      // half-dead rank still merging the old one.
      std::size_t cursor = 0;
      const std::uint64_t token = take64(body, cursor);
      const std::uint64_t readerBudget = take64(body, cursor);
      const std::uint32_t shardCount = take32(body, cursor);
      CHISIM_CHECK(!params.spillDir.empty(),
                   "shard merge needs a spill directory");
      util::ThreadCpuTimer busy;
      std::vector<std::byte> segments;
      for (std::uint32_t s = 0; s < shardCount; ++s) {
        const std::uint32_t shard = take32(body, cursor);
        const std::uint32_t runCount = take32(body, cursor);
        std::vector<sparse::SpillRunInfo> runs;
        runs.reserve(runCount);
        for (std::uint32_t r = 0; r < runCount; ++r) {
          const RunRef ref = takeRunRef(body, cursor);
          CHISIM_CHECK(ref.isFile(), "shard merge inputs must be run files");
          runs.push_back(runInfoOf(ref));
        }
        const std::filesystem::path segmentFile =
            std::filesystem::path(params.spillDir) /
            ("seg." + std::to_string(shard) + ".t" + std::to_string(token) +
             ".cseg");
        const sparse::ShardSegment segment =
            sparse::mergeShardRuns(shard, runs, segmentFile, readerBudget);
        put32(segments, shard);
        putDouble(segments, segment.mergeSeconds);
        putString(segments, segment.file.string());
        put64(segments, segment.triplets);
        put64(segments, segment.bytes);
        put32(segments, segment.crc);
        put64(segments, segment.passes);
        put64(segments, segment.passTriplets);
        put64(segments, segment.passBytes);
        put64(segments, segment.peakReaderBytes);
      }
      CHISIM_CHECK(cursor == body.size(), "merge-shard body size mismatch");
      std::vector<std::byte> reply;
      reply.reserve(8 + 4 + segments.size());
      putDouble(reply, busy.seconds());
      put32(reply, shardCount);
      reply.insert(reply.end(), segments.begin(), segments.end());
      return reply;
    }
    default:
      CHISIM_CHECK(false, "unknown synthesis executor command " +
                              std::to_string(command));
  }
  return {};
}

ServiceOutcome serviceSynthesisCommand(const StageParams& params, int rank,
                                       std::span<const std::byte> frame,
                                       std::vector<std::byte>& reply,
                                       RunShipper* shipper) {
  std::uint32_t command = 0;
  std::uint64_t epoch = 0;
  bool headerOk = false;
  try {
    std::size_t cursor = 0;
    command = take32(frame, cursor);
    epoch = take64(frame, cursor);
    headerOk = true;
  } catch (const std::exception&) {
    // Truncated below even the header: reply failed with epoch 0, which
    // the root treats as matching whatever command is outstanding.
  }
  if (headerOk && command == kCmdStop) {
    return ServiceOutcome::kStop;
  }
  try {
    CHISIM_CHECK(headerOk, "truncated command frame");
    runtime::FaultSite site{rank, nullptr};
    if (runtime::fault::hit("mp.service.command", site) ==
        runtime::FaultAction::kKillRank) {
      return ServiceOutcome::kDie;  // simulate a rank dying silently mid-run
    }
    const std::vector<std::byte> body = executeSynthesisCommand(
        params, command, frame.subspan(kCommandHeaderBytes), shipper);
    reply = frameReply(command, kStatusOk, epoch, body);
  } catch (const std::exception& error) {
    // Recoverable worker failure: report it and stay in the loop so the
    // root can retry.
    const std::string what = error.what();
    reply = frameReply(command, kStatusFailed, epoch, stringBytes(what));
  }
  return ServiceOutcome::kReply;
}

}  // namespace chisimnet::net::mp
