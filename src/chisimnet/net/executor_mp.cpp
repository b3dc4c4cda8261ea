#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <system_error>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "chisimnet/net/executor.hpp"
#include "chisimnet/net/mp_protocol.hpp"
#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/runtime/socket_transport.hpp"
#include "chisimnet/util/error.hpp"

namespace chisimnet::net {

namespace {

mp::StageParams stageParamsOf(const SynthesisConfig& config) {
  mp::StageParams params;
  params.windowStart = config.windowStart;
  params.windowEnd = config.windowEnd;
  // Each stage-5 worker gets an eighth of its budget share: the cross-batch
  // sink keeps resident bytes under budget/2, and the per-batch worker maps
  // (all live at once) plus their drain transients fit in the rest.
  params.spillThresholdBytes =
      config.memoryBudgetBytes > 0
          ? std::max<std::uint64_t>(
                config.memoryBudgetBytes / (8 * std::max(1u, config.workers)),
                1)
          : 0;
  params.spillDir = config.spillDir.string();
  // Shard-pure worker runs: each stage-5 flush splits at merge-shard
  // boundaries so the root's merge planner never has to rewrite a run.
  params.splitRows = resolvedMergeRowsPerShard(config);
  params.frameTriplets = resolvedSpillFrameTriplets(config);
  // TCP workers may live on other hosts: they spill into private local
  // directories and ship run bytes over the wire instead of returning
  // paths into a filesystem the root may not share.
  params.shipRuns = config.transport == MpTransport::kTcp;
  return params;
}

/// One "host:port" per line for ranks 1..N-1; blank lines and #-comments
/// are skipped, an empty slot string means "dial the root's listen
/// address".
std::vector<std::string> readTcpJobFile(const std::string& path) {
  std::ifstream in(path);
  CHISIM_CHECK(in.good(), "cannot open tcp job file " + path);
  std::vector<std::string> slots;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '#') {
      continue;
    }
    const std::size_t end = line.find_last_not_of(" \t\r");
    slots.push_back(line.substr(begin, end - begin + 1));
  }
  return slots;
}

}  // namespace

/// Root-side assembler of in-flight kShipTag run files: chunks append to
/// <spillDir>/<name>.part, offset 0 restarts (a retried command re-ships
/// from scratch), and a completed file is committed via rename — so a
/// reply's shipped refs always resolve to whole files (the chunks precede
/// the reply on the connection and are drained before it is decoded).
class MessagePassingExecutor::RunShipSink {
 public:
  explicit RunShipSink(std::filesystem::path dir) : dir_(std::move(dir)) {}

  void accept(const mp::ShipChunkView& chunk) {
    // The name becomes a path component under the root's spill dir; never
    // let a (buggy or hostile) worker steer it elsewhere.
    CHISIM_CHECK(chunk.name.find('/') == std::string::npos &&
                     chunk.name.find('\\') == std::string::npos &&
                     chunk.name != "." && chunk.name != "..",
                 "shipped run name must be a bare file name");
    Inflight& in = inflight_[chunk.name];
    if (chunk.offset == 0) {
      in.out = std::make_unique<std::ofstream>(
          tmpPath(chunk.name), std::ios::binary | std::ios::trunc);
      CHISIM_CHECK(in.out->good(), "cannot open shipped-run temp file " +
                                       tmpPath(chunk.name).string());
      in.received = 0;
      in.total = chunk.total;
    }
    CHISIM_CHECK(in.out != nullptr && chunk.offset == in.received &&
                     chunk.total == in.total,
                 "shipped run chunk out of sequence for " + chunk.name);
    if (!chunk.data.empty()) {
      in.out->write(reinterpret_cast<const char*>(chunk.data.data()),
                    static_cast<std::streamsize>(chunk.data.size()));
      in.received += chunk.data.size();
    }
    if (in.received == in.total) {
      in.out->flush();
      CHISIM_CHECK(in.out->good(),
                   "failed writing shipped run " + chunk.name);
      in.out.reset();
      std::filesystem::rename(tmpPath(chunk.name), dir_ / chunk.name);
      inflight_.erase(chunk.name);
    }
  }

 private:
  struct Inflight {
    std::unique_ptr<std::ofstream> out;
    std::uint64_t received = 0;
    std::uint64_t total = 0;
  };

  std::filesystem::path tmpPath(const std::string& name) const {
    return dir_ / (name + ".part");
  }

  std::filesystem::path dir_;
  std::unordered_map<std::string, Inflight> inflight_;
};

void MessagePassingExecutor::drainShippedRuns(int rank) {
  if (shipSink_ == nullptr) {
    return;
  }
  runtime::Message message;
  while (team_->root().tryRecv(message, rank, mp::kShipTag)) {
    bytesReturned_ += message.payload.size();
    shipSink_->accept(mp::decodeShipChunk(message.payload));
  }
}

mp::RunRef MessagePassingExecutor::localizeRun(mp::RunRef ref) const {
  if (ref.shipped) {
    ref.file = (config_.spillDir / ref.file).string();
    ref.shipped = false;
  }
  return ref;
}

MessagePassingExecutor::MessagePassingExecutor(const SynthesisConfig& config)
    : SynthesisExecutor(config),
      ranks_(static_cast<int>(config.workers)),
      pending_(static_cast<std::size_t>(config.workers)) {
  if (config.transport == MpTransport::kInProcess) {
    team_ = std::make_unique<runtime::RankTeam>(
        ranks_, [this](runtime::RankHandle& handle) { serviceLoop(handle); });
    return;
  }
  // Worker ranks are separate OS processes behind sockets. The hello
  // payload carries the stage parameters, so a worker (or its respawned or
  // re-dialed replacement) computes with exactly the root's config.
  runtime::SocketTransportOptions options;
  options.rankCount = ranks_;
  options.heartbeatMs = config.heartbeatMs;
  options.maxRespawns = config.maxRespawns;
  options.connectTimeoutMs = config.connectTimeoutMs;
  options.connectRetries = config.connectRetries;
  options.reconnectGraceMs = config.reconnectGraceMs;
  options.executable = config.workerExecutable;
  options.helloPayload = mp::encodeStageParams(stageParamsOf(config));
  auto bootstrap = runtime::SocketTransport::Bootstrap::kSpawn;
  if (config.transport == MpTransport::kTcp) {
    // Workers dial rank 0 over TCP. Stage commands run with shipRuns:
    // workers spill locally and ship run bytes on kShipTag, which the sink
    // materializes into the root's spill directory.
    bootstrap = runtime::SocketTransport::Bootstrap::kAccept;
    if (!config.tcpListen.empty()) {
      std::tie(options.listenHost, options.listenPort) =
          runtime::parseHostPort(config.tcpListen);
    }
    if (!config.tcpJob.empty()) {
      // Job mode: workers are launched out-of-band (`chisim worker`)
      // against the addresses listed, one per rank 1..N-1.
      options.spawnWorkers = false;
      options.connectAddresses = readTcpJobFile(config.tcpJob);
    }
    shipRuns_ = true;
    shipSink_ = std::make_unique<RunShipSink>(config.spillDir);
  }
  auto transport =
      std::make_unique<runtime::SocketTransport>(bootstrap, options);
  socketTransport_ = transport.get();
  team_ = std::make_unique<runtime::RankTeam>(std::move(transport));
  // Bound the wait by the workers' own dial budget plus slack, so a worker
  // that is still backing off is not declared missing. (Spawned workers
  // are connected by the time the transport is constructed.)
  const std::uint64_t waitMs = std::max<std::uint64_t>(
      10000, config.connectTimeoutMs *
                     static_cast<std::uint64_t>(config.connectRetries + 1) +
                 5000);
  CHISIM_CHECK(
      socketTransport_->waitForWorkers(std::chrono::milliseconds(waitMs)),
      "socket transport: not all workers connected within " +
          std::to_string(waitMs) + " ms (listening on " + options.listenHost +
          ":" + std::to_string(socketTransport_->port()) + ")");
}

MessagePassingExecutor::~MessagePassingExecutor() {
  // Quiesce first: from here on, worker processes exiting is orderly
  // shutdown, not a crash to respawn. Then a stop command lets idle
  // services return so the team joins without relying on the destructor's
  // abort. (Services wedged mid-stage after a root-side failure are woken
  // by the RankTeam destructor's abort instead. Lost ranks already exited;
  // their stop frame just sits in the mailbox or is dropped by the wire.)
  team_->transport().quiesce();
  for (int dest = 1; dest < ranks_; ++dest) {
    team_->root().send(dest, mp::kCommandTag,
                       mp::frameCommand(mp::kCmdStop, 0, {}));
  }
}

void MessagePassingExecutor::serviceLoop(runtime::RankHandle& handle) const {
  const mp::StageParams params = stageParamsOf(config_);
  while (true) {
    runtime::Message message = handle.recv(mp::kRoot, mp::kCommandTag);
    std::vector<std::byte> reply;
    switch (mp::serviceSynthesisCommand(params, handle.rank(), message.payload,
                                        reply)) {
      case mp::ServiceOutcome::kReply:
        handle.send(mp::kRoot, mp::kReplyTag, reply);
        break;
      case mp::ServiceOutcome::kStop:
        return;
      case mp::ServiceOutcome::kDie:
        return;  // simulate a rank dying silently mid-run
    }
  }
}

std::vector<int> MessagePassingExecutor::liveRanks() const {
  std::vector<int> live;
  live.reserve(static_cast<std::size_t>(ranks_));
  for (int rank = 0; rank < ranks_; ++rank) {
    if (team_->isLive(rank)) {
      live.push_back(rank);
    }
  }
  return live;
}

void MessagePassingExecutor::sendCommand(int rank, std::uint32_t command,
                                         std::vector<std::size_t> items,
                                         std::vector<std::byte> body) {
  Pending& pending = pending_[static_cast<std::size_t>(rank)];
  pending.active = true;
  pending.command = command;
  pending.epoch = nextEpoch_++;
  pending.attempts = 0;
  pending.items = std::move(items);
  pending.body = std::move(body);
  std::vector<std::byte> frame =
      mp::frameCommand(command, pending.epoch, pending.body);
  bytesScattered_ += frame.size();
  if (rank != mp::kRoot) {
    // Injection point for a corrupted/short write on the wire; truncation
    // here makes the worker see a malformed frame and answer
    // status=failed, exercising the retry path end to end.
    runtime::FaultSite site{rank, &frame};
    runtime::fault::hit("mp.send", site);
    team_->root().send(rank, mp::kCommandTag, frame);
  }
}

std::optional<std::vector<std::byte>> MessagePassingExecutor::awaitReply(
    int rank) {
  Pending& pending = pending_[static_cast<std::size_t>(rank)];
  CHISIM_REQUIRE(pending.active, "awaitReply without a pending command");
  if (rank == mp::kRoot) {
    // The root is a worker too: execute its own share inline through the
    // same serialized body, so byte accounting and decode paths match.
    const std::vector<std::byte> reply = mp::executeSynthesisCommand(
        stageParamsOf(config_), pending.command, pending.body);
    bytesReturned_ += mp::kReplyHeaderBytes + reply.size();
    pending.active = false;
    return reply;
  }
  runtime::RankHandle& root = team_->root();
  while (true) {
    std::optional<runtime::Message> message;
    if (config_.commandTimeoutMs == 0) {
      message = root.recv(rank, mp::kReplyTag);
    } else {
      message = root.recvFor(
          std::chrono::milliseconds(config_.commandTimeoutMs), rank,
          mp::kReplyTag);
    }
    std::string failure;
    if (message) {
      // Any run files this reply references were shipped ahead of it on
      // the same connection, so they are already queued: materialize them
      // before the reply body is decoded.
      drainShippedRuns(rank);
      runtime::FaultSite site{rank, &message->payload};
      runtime::fault::hit("mp.collect", site);
      std::uint32_t status = mp::kStatusFailed;
      std::uint64_t epoch = 0;
      std::span<const std::byte> body;
      bool parsed = false;
      try {
        std::size_t cursor = 0;
        mp::take32(message->payload, cursor);  // command (diagnostic only)
        status = mp::take32(message->payload, cursor);
        epoch = mp::take64(message->payload, cursor);
        body = std::span<const std::byte>(message->payload)
                   .subspan(mp::kReplyHeaderBytes);
        parsed = true;
      } catch (const std::exception&) {
        failure = "malformed reply frame from rank " + std::to_string(rank);
      }
      if (parsed) {
        // Epoch 0 marks a reply to a command too corrupt for the worker to
        // read the epoch back; match it against whatever is outstanding.
        if (epoch != pending.epoch && epoch != 0) {
          continue;  // stale reply from a superseded attempt
        }
        if (status == mp::kStatusOk) {
          bytesReturned_ += message->payload.size();
          pending.active = false;
          return std::vector<std::byte>(body.begin(), body.end());
        }
        failure = std::string(reinterpret_cast<const char*>(body.data()),
                              body.size());
      }
    } else {
      failure = "rank " + std::to_string(rank) + " sent no reply within " +
                std::to_string(config_.commandTimeoutMs) + " ms";
    }

    if (config_.faultPolicy != FaultPolicy::kDegrade) {
      // Fail fast: surface the worker's error as the run's error.
      CHISIM_CHECK(false, "synthesis command failed on rank " +
                              std::to_string(rank) + ": " + failure);
    }
    ++pending.attempts;
    if (pending.attempts >= config_.commandMaxAttempts) {
      team_->markLost(rank);
      FaultEvent event;
      event.kind = FaultEvent::Kind::kRankLost;
      event.rank = rank;
      event.detail = "declared lost after " +
                     std::to_string(pending.attempts) +
                     " attempts; last error: " + failure;
      faultEvents_.push_back(std::move(event));
      return std::nullopt;  // pending.items stays for reassignment
    }
    FaultEvent event;
    event.kind = FaultEvent::Kind::kCommandRetry;
    event.rank = rank;
    event.detail = "attempt " + std::to_string(pending.attempts) +
                   " failed: " + failure;
    faultEvents_.push_back(std::move(event));
    const std::uint64_t backoff = config_.commandBackoffMs
                                  << std::min(pending.attempts - 1, 16);
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    pending.epoch = nextEpoch_++;
    std::vector<std::byte> frame =
        mp::frameCommand(pending.command, pending.epoch, pending.body);
    bytesScattered_ += frame.size();
    root.send(rank, mp::kCommandTag, frame);
  }
}

void MessagePassingExecutor::collectStage(
    std::uint32_t command,
    const std::function<std::vector<std::byte>(std::span<const std::size_t>)>&
        buildBody,
    const std::function<void(std::span<const std::byte>)>& onReply) {
  std::vector<std::size_t> orphaned;  // items of ranks declared lost
  for (int rank = 0; rank < ranks_; ++rank) {
    Pending& pending = pending_[static_cast<std::size_t>(rank)];
    if (!pending.active || pending.command != command) {
      continue;
    }
    if (const auto reply = awaitReply(rank)) {
      onReply(*reply);
    } else {
      orphaned.insert(orphaned.end(), pending.items.begin(),
                      pending.items.end());
      pending.active = false;
    }
  }
  // Reassignment rounds: spread orphaned items across the survivors and
  // collect again; a further loss feeds the next round. The root always
  // survives and executes its share inline, so this terminates.
  while (!orphaned.empty()) {
    const std::vector<int> live = liveRanks();
    std::vector<std::vector<std::size_t>> shares(live.size());
    for (std::size_t i = 0; i < orphaned.size(); ++i) {
      shares[i % shares.size()].push_back(orphaned[i]);
    }
    orphaned.clear();
    for (std::size_t slot = 0; slot < live.size(); ++slot) {
      if (shares[slot].empty()) {
        continue;
      }
      std::vector<std::byte> body = buildBody(shares[slot]);
      sendCommand(live[slot], command, std::move(shares[slot]),
                  std::move(body));
    }
    for (const int rank : live) {
      Pending& pending = pending_[static_cast<std::size_t>(rank)];
      if (!pending.active || pending.command != command) {
        continue;
      }
      if (const auto reply = awaitReply(rank)) {
        onReply(*reply);
      } else {
        orphaned.insert(orphaned.end(), pending.items.begin(),
                        pending.items.end());
        pending.active = false;
      }
    }
  }
}

void MessagePassingExecutor::scatterPlaces(const table::EventTable& events,
                                           const table::PlaceIndex& index) {
  events_ = &events;
  index_ = &index;
  // Round-robin place groups across the live ranks: the collocation stage
  // is roughly uniform per event row, and the weight balancing happens
  // in the stage-5 partition.
  const std::vector<int> live = liveRanks();
  std::vector<std::vector<std::size_t>> groups(live.size());
  for (std::size_t group = 0; group < index.placeIds.size(); ++group) {
    groups[group % live.size()].push_back(group);
  }
  const auto buildBody = [&events,
                          &index](std::span<const std::size_t> items) {
    std::vector<std::byte> body;
    mp::put32(body, static_cast<std::uint32_t>(items.size()));
    std::uint64_t totalEvents = 0;
    for (const std::size_t group : items) {
      const auto rows = index.groupRows(group);
      mp::put32(body, static_cast<std::uint32_t>(rows.size()));
      totalEvents += rows.size();
    }
    body.reserve(body.size() + totalEvents * sizeof(table::Event));
    for (const std::size_t group : items) {
      for (const table::RowIndex row : index.groupRows(group)) {
        const table::Event event = events.row(row);
        const auto bytes =
            std::as_bytes(std::span<const table::Event>(&event, 1));
        body.insert(body.end(), bytes.begin(), bytes.end());
      }
    }
    return body;
  };
  for (std::size_t slot = 0; slot < live.size(); ++slot) {
    // Every live rank gets a command (even an empty one): the reply flow
    // and busy accounting stay uniform, and services start building while
    // the driver is still between stage calls.
    sendCommand(live[slot], mp::kCmdCollocation,
                std::vector<std::size_t>(groups[slot]),
                buildBody(groups[slot]));
  }
}

std::vector<sparse::CollocationMatrix>
MessagePassingExecutor::mapCollocation() {
  CHISIM_REQUIRE(events_ != nullptr && index_ != nullptr,
                 "mapCollocation before scatterPlaces");
  const table::EventTable& events = *events_;
  const table::PlaceIndex& index = *index_;
  try {
    std::vector<sparse::CollocationMatrix> all;
    collectStage(
        mp::kCmdCollocation,
        [&events, &index](std::span<const std::size_t> items) {
          std::vector<std::byte> body;
          mp::put32(body, static_cast<std::uint32_t>(items.size()));
          for (const std::size_t group : items) {
            mp::put32(body, static_cast<std::uint32_t>(
                                index.groupRows(group).size()));
          }
          for (const std::size_t group : items) {
            for (const table::RowIndex row : index.groupRows(group)) {
              const table::Event event = events.row(row);
              const auto bytes =
                  std::as_bytes(std::span<const table::Event>(&event, 1));
              body.insert(body.end(), bytes.begin(), bytes.end());
            }
          }
          return body;
        },
        [&all](std::span<const std::byte> reply) {
          for (sparse::CollocationMatrix& matrix : mp::unpackMatrices(reply)) {
            all.push_back(std::move(matrix));
          }
        });
    events_ = nullptr;
    index_ = nullptr;
    return all;
  } catch (...) {
    // A service failure aborts the communicator and surfaces here as a
    // generic "aborted" error; prefer the originating exception.
    events_ = nullptr;
    index_ = nullptr;
    team_->rethrowServiceError();
    throw;
  }
}

AdjacencySchedule MessagePassingExecutor::mapAdjacency(
    const std::vector<sparse::CollocationMatrix>& matrices,
    std::span<const std::uint64_t> weights) {
  CHISIM_REQUIRE(weights.size() == matrices.size(),
                 "stage 5 needs one weight per matrix");
  const std::vector<int> live = liveRanks();
  // Matrices are shipped to the ranks up front, so the partition is static.
  const runtime::Partition partition =
      config_.balancedPartition
          ? runtime::partitionGreedyLpt(weights, live.size())
          : runtime::partitionContiguous(weights, live.size());
  // A fresh token per built body keeps each body's worker-side spill files
  // unique: retries resend the same body (same token, deterministic
  // rewrite); reassignments build a new body and never collide with files
  // a half-dead rank may still be writing.
  const auto buildBody = [this,
                          &matrices](std::span<const std::size_t> items) {
    std::vector<sparse::CollocationMatrix> batch;
    batch.reserve(items.size());
    for (const std::size_t item : items) {
      batch.push_back(matrices[item]);
    }
    std::vector<std::byte> body;
    mp::put64(body, nextRunToken_++);
    const std::vector<std::byte> packed = mp::packMatrices(batch);
    body.insert(body.end(), packed.begin(), packed.end());
    return body;
  };
  reduceRuns_.clear();
  runKernelStats_ = sparse::AdjacencyKernelStats{};
  workerPeakBytes_ = 0;
  try {
    for (std::size_t bin = 0; bin < live.size(); ++bin) {
      sendCommand(live[bin], mp::kCmdAdjacency,
                  std::vector<std::size_t>(partition.assignment[bin]),
                  buildBody(partition.assignment[bin]));
    }

    // Each rank returns its partial sum as one or more sorted runs (inline
    // or spill files), kept as-is for reduce()/reduceInto().
    std::vector<double> busySeconds;
    collectStage(mp::kCmdAdjacency, buildBody,
                 [this, &busySeconds](std::span<const std::byte> reply) {
                   std::size_t cursor = 0;
                   busySeconds.push_back(mp::takeDouble(reply, cursor));
                   sparse::AdjacencyKernelStats stats;
                   stats.densePlaces = mp::take64(reply, cursor);
                   stats.hashPlaces = mp::take64(reply, cursor);
                   stats.pairHourUpdates = mp::take64(reply, cursor);
                   stats.globalEmits = mp::take64(reply, cursor);
                   stats.mergeReservedEntries = mp::take64(reply, cursor);
                   runKernelStats_.merge(stats);
                   workerPeakBytes_ += mp::take64(reply, cursor);
                   const std::uint32_t runCount = mp::take32(reply, cursor);
                   for (std::uint32_t run = 0; run < runCount; ++run) {
                     reduceRuns_.push_back(
                         localizeRun(mp::takeRunRef(reply, cursor)));
                   }
                   CHISIM_CHECK(cursor == reply.size(),
                                "malformed adjacency reply");
                 });

    double total = 0.0;
    double peak = 0.0;
    for (const double seconds : busySeconds) {
      total += seconds;
      peak = std::max(peak, seconds);
    }
    busyImbalance_ =
        total > 0.0 && !busySeconds.empty()
            ? peak / (total / static_cast<double>(busySeconds.size()))
            : 1.0;
  } catch (...) {
    team_->rethrowServiceError();
    throw;
  }
  return AdjacencySchedule{partition.loads, partition.imbalance()};
}

void MessagePassingExecutor::reduce(sparse::SymmetricAdjacency& result) {
  // The root inserts every returned run — streamed off its spill file,
  // which is then deleted, or inline, freed once inserted. addAll sizes
  // each shard once for its rows, which count as reserved entries in the
  // kernel stats.
  for (mp::RunRef& run : reduceRuns_) {
    if (run.isFile()) {
      runKernelStats_.mergeReservedEntries += run.triplets;
      sparse::SpillRunReader reader(run.file);
      result.addAll(reader);
      std::error_code ignored;
      std::filesystem::remove(run.file, ignored);
    } else {
      runKernelStats_.mergeReservedEntries += run.inlineRun.size();
      sparse::SpanTripletSource source(run.inlineRun);
      result.addAll(source);
      run.inlineRun = {};
    }
  }
  reduceRuns_.clear();
  result.addKernelStats(runKernelStats_);
  runKernelStats_ = sparse::AdjacencyKernelStats{};
  workerPeakBytes_ = 0;
}

void MessagePassingExecutor::reduceInto(sparse::SpillingAccumulator& sink) {
  // The workers' stage-5 maps were alive concurrently with the sink's
  // resident shards — the budget guarantee must account for both.
  sink.noteWorkerPeak(workerPeakBytes_);
  try {
    for (mp::RunRef& run : reduceRuns_) {
      if (run.isFile()) {
        sink.adoptRunFile(mp::runInfoOf(run));  // ownership transfer, no copy
      } else if (!run.inlineRun.empty()) {
        sink.addSortedRun(run.inlineRun);
      }
    }
  } catch (...) {
    team_->rethrowServiceError();
    throw;
  }
  reduceRuns_.clear();
  sink.addKernelStats(runKernelStats_);
  runKernelStats_ = sparse::AdjacencyKernelStats{};
  workerPeakBytes_ = 0;
}

std::vector<sparse::ShardSegment> MessagePassingExecutor::mergeSpillShards(
    const std::vector<sparse::SpillingAccumulator::ShardRunGroup>& groups,
    const std::function<void(const sparse::ShardSegment&)>& onSegment) {
  CHISIM_REQUIRE(!config_.spillDir.empty(),
                 "sharded merge requires a spill directory");
  // Work items are group indices, spread by LPT over the owner ranks
  // (rank 0 executes its share inline). Each body carries every shard of
  // its rank plus the run references — the files themselves stay on the
  // shared filesystem. A reassigned body gets a fresh token, so a
  // half-dead rank still merging the old body writes different segment
  // names and never corrupts the survivor's output. Under run shipping
  // the spill runs live only in the root's spill directory, so the root
  // is the one owner.
  const std::vector<int> live = liveRanks();
  const std::size_t owners =
      shipRuns_ ? 1
                : std::clamp<std::size_t>(
                      groups.size(), 1,
                      std::min<std::size_t>(live.size(),
                                            resolvedReduceShards(config_)));
  const runtime::Partition partition =
      runtime::partitionGreedyLpt(shardMergeWeights(groups), owners);
  const std::uint64_t readerBudget = config_.memoryBudgetBytes / owners;
  std::unordered_map<std::uint32_t, unsigned> ownerOfShard;
  for (std::size_t slot = 0; slot < owners; ++slot) {
    // Modeled owner = the initial assignment; a fault-driven reassignment
    // shifts real work elsewhere but the model keeps the healthy-run shape.
    for (const std::size_t g : partition.assignment[slot]) {
      ownerOfShard[groups[g].shard] = static_cast<unsigned>(live[slot]);
    }
  }
  const auto buildBody = [this, &groups,
                          readerBudget](std::span<const std::size_t> items) {
    std::vector<std::byte> body;
    mp::put64(body, nextRunToken_++);
    mp::put64(body, readerBudget);
    mp::put32(body, static_cast<std::uint32_t>(items.size()));
    for (const std::size_t g : items) {
      const sparse::SpillingAccumulator::ShardRunGroup& group = groups[g];
      mp::put32(body, group.shard);
      mp::put32(body, static_cast<std::uint32_t>(group.runs.size()));
      for (const sparse::SpillRunInfo& run : group.runs) {
        mp::putRunRef(body, mp::fileRunRef(run));
      }
    }
    return body;
  };
  std::vector<sparse::ShardSegment> segments;
  segments.reserve(groups.size());
  try {
    for (std::size_t slot = 0; slot < owners; ++slot) {
      if (partition.assignment[slot].empty()) {
        continue;
      }
      std::vector<std::byte> body = buildBody(partition.assignment[slot]);
      sendCommand(live[slot], mp::kCmdMergeShard,
                  std::vector<std::size_t>(partition.assignment[slot]),
                  std::move(body));
    }
    collectStage(
        mp::kCmdMergeShard, buildBody,
        [&segments, &ownerOfShard,
         &onSegment](std::span<const std::byte> reply) {
          std::size_t cursor = 0;
          mp::takeDouble(reply, cursor);  // rank busy; per-shard is below
          const std::uint32_t count = mp::take32(reply, cursor);
          for (std::uint32_t s = 0; s < count; ++s) {
            sparse::ShardSegment segment;
            segment.shard = mp::take32(reply, cursor);
            segment.mergeSeconds = mp::takeDouble(reply, cursor);
            segment.file = mp::takeString(reply, cursor);
            segment.triplets = mp::take64(reply, cursor);
            segment.bytes = mp::take64(reply, cursor);
            segment.crc = mp::take32(reply, cursor);
            segment.passes = mp::take64(reply, cursor);
            segment.passTriplets = mp::take64(reply, cursor);
            segment.passBytes = mp::take64(reply, cursor);
            segment.peakReaderBytes = mp::take64(reply, cursor);
            const auto owner = ownerOfShard.find(segment.shard);
            segment.owner = owner != ownerOfShard.end() ? owner->second : 0;
            segments.push_back(segment);
            onSegment(segment);  // collectStage runs replies serially
          }
          CHISIM_CHECK(cursor == reply.size(),
                       "malformed merge-shard reply");
        });
  } catch (...) {
    team_->rethrowServiceError();
    throw;
  }
  return segments;
}

std::vector<FaultEvent> MessagePassingExecutor::drainFaultEvents() {
  if (socketTransport_ != nullptr) {
    using WorkerEvent = runtime::SocketTransport::WorkerEvent;
    for (WorkerEvent& event : socketTransport_->drainEvents()) {
      if (event.kind == WorkerEvent::Kind::kPermanentDeath) {
        // Permanent deaths are accounted as kRankLost by the command retry
        // loop (markLost), which owns the live set; double-reporting them
        // here would double-count ranksLost.
        continue;
      }
      FaultEvent mapped;
      mapped.kind = event.kind == WorkerEvent::Kind::kRespawn
                        ? FaultEvent::Kind::kWorkerRespawn
                        : FaultEvent::Kind::kWorkerReconnect;
      mapped.rank = event.rank;
      mapped.detail = std::move(event.detail);
      faultEvents_.push_back(std::move(mapped));
    }
  }
  return std::exchange(faultEvents_, {});
}

namespace {

/// Worker-side RunShipper over the WorkerLink: streams the file as
/// kShipTag chunks (ahead of the reply that references it) and returns
/// the bare name the reply's shipped ref carries.
class LinkShipper final : public mp::RunShipper {
 public:
  explicit LinkShipper(runtime::WorkerLink& link) : link_(link) {}

  std::string ship(const std::filesystem::path& file,
                   std::uint64_t bytes) override {
    const std::string name = file.filename().string();
    const std::uint64_t cap = runtime::maxPayloadBytes();
    // Keep headroom for the chunk header under the payload ceiling; 8 MiB
    // chunks otherwise (bounded memory, few frames).
    const std::uint64_t chunkBytes = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(8ull << 20, cap > 4096 ? cap - 4096 : 1));
    std::ifstream in(file, std::ios::binary);
    CHISIM_CHECK(in.good(),
                 "cannot open run file for shipping: " + file.string());
    std::vector<std::byte> buffer(
        static_cast<std::size_t>(std::min<std::uint64_t>(
            chunkBytes, std::max<std::uint64_t>(bytes, 1))));
    std::uint64_t offset = 0;
    // A zero-byte file still ships one empty chunk so the root creates it.
    do {
      const std::uint64_t want =
          std::min<std::uint64_t>(chunkBytes, bytes - offset);
      in.read(reinterpret_cast<char*>(buffer.data()),
              static_cast<std::streamsize>(want));
      CHISIM_CHECK(static_cast<std::uint64_t>(in.gcount()) == want,
                   "short read while shipping run file " + file.string());
      link_.send(mp::kShipTag,
                 mp::encodeShipChunk(
                     name, offset, bytes,
                     std::span<const std::byte>(buffer.data(),
                                                static_cast<std::size_t>(
                                                    want))));
      offset += want;
    } while (offset < bytes);
    return name;
  }

 private:
  runtime::WorkerLink& link_;
};

void installWorkerFaultPlan() {
  // A fault plan shipped by the root arms this process too, so scripted
  // worker-side faults fire with the same seed and specs as in-process
  // runs. Counters start from zero in each exec'd process.
  if (const char* planText = std::getenv(runtime::kWorkerFaultPlanEnv)) {
    static std::unique_ptr<runtime::FaultPlan> plan =
        runtime::FaultPlan::decode(planText);
    runtime::fault::install(plan.get());
  }
}

}  // namespace

std::optional<int> maybeRunSynthesisWorker() {
  if (!runtime::WorkerLink::isWorkerProcess()) {
    return std::nullopt;
  }
  std::filesystem::path localSpill;
  const auto cleanup = [&localSpill]() {
    if (!localSpill.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(localSpill, ignored);
    }
  };
  try {
    installWorkerFaultPlan();
    runtime::WorkerLink link;
    const runtime::WorkerLink::Hello hello = link.handshake();
    mp::StageParams params = mp::decodeStageParams(hello.payload);
    std::optional<LinkShipper> shipper;
    if (params.shipRuns) {
      // No shared filesystem is assumed: spill into a private local
      // directory and ship run bytes to the root over the wire. The
      // root's spillDir in the params is meaningless on this host.
      localSpill = std::filesystem::temp_directory_path() /
                   ("chisim-tcp-worker-" + std::to_string(link.rank()) +
                    "-" + std::to_string(::getpid()));
      std::filesystem::create_directories(localSpill);
      params.spillDir = localSpill.string();
      shipper.emplace(link);
    }
    while (true) {
      const runtime::Message message = link.recv();
      if (message.tag != mp::kCommandTag) {
        continue;  // not a command frame; nothing to service
      }
      std::vector<std::byte> reply;
      switch (mp::serviceSynthesisCommand(
          params, link.rank(), message.payload, reply,
          shipper.has_value() ? &*shipper : nullptr)) {
        case mp::ServiceOutcome::kReply:
          link.send(mp::kReplyTag, reply);
          break;
        case mp::ServiceOutcome::kStop:
        case mp::ServiceOutcome::kDie:
          // kDie is an injected silent death: exit without replying. The
          // root sees the connection close and its slot machine decides
          // between respawn, the reconnect grace and permanent loss — the
          // socket analogue of an in-process service thread returning.
          cleanup();
          return 0;
      }
    }
  } catch (const std::exception& error) {
    // Includes the orderly "root connection closed" on root teardown and
    // the permanent-down link after an exhausted re-dial budget; either
    // way the worker has nothing left to do. Real errors are logged for
    // the parent's stderr.
    cleanup();
    std::fprintf(stderr, "chisim worker: %s\n", error.what());
    return 1;
  }
}

}  // namespace chisimnet::net
