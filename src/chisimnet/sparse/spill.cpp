#include "chisimnet/sparse/spill.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstddef>
#include <cstring>
#include <map>
#include <string_view>
#include <system_error>
#include <utility>

#include "chisimnet/runtime/fault.hpp"
#include "chisimnet/util/binary_io.hpp"
#include "chisimnet/util/error.hpp"
#include "chisimnet/util/timer.hpp"

namespace chisimnet::sparse {

namespace {

constexpr char kSpillMagic[4] = {'C', 'S', 'P', 'L'};
constexpr std::uint32_t kSpillVersion = 1;
/// Header: magic 4 | version u32 | tripletCount u64.
constexpr std::uint64_t kSpillHeaderBytes = 4 + 4 + 8;
constexpr std::size_t kTripletBytes = sizeof(AdjacencyTriplet);
static_assert(sizeof(AdjacencyTriplet) == kTripletBytes &&
                  offsetof(AdjacencyTriplet, j) == 4 &&
                  offsetof(AdjacencyTriplet, weight) == 8,
              "a spill row is read straight into an AdjacencyTriplet");

/// Floor for spill/flush thresholds so pathological tiny budgets still
/// terminate: a threshold below one minimal hash table would spill on
/// every insert.
constexpr std::uint64_t kMinSpillThresholdBytes = 4096;

/// The accumulator's own runs are named run.<n>.spl.
constexpr std::string_view kRunPrefix = "run.";

}  // namespace

// ---------------------------------------------------------------- writer

SpillRunWriter::SpillRunWriter(std::filesystem::path path,
                               std::uint64_t frameTriplets)
    : path_(std::move(path)),
      tmp_(path_.string() + ".tmp"),
      frameTriplets_(frameTriplets) {
  CHISIM_REQUIRE(frameTriplets_ >= 1 && frameTriplets_ <= kSpillFrameTriplets,
                 "spill frames hold 1 to kSpillFrameTriplets rows");
  if (path_.has_parent_path()) {
    std::filesystem::create_directories(path_.parent_path());
  }
  out_.open(tmp_, std::ios::binary | std::ios::trunc);
  CHISIM_CHECK(out_.good(),
               "cannot open spill run for writing: " + tmp_.string());
  out_.write(kSpillMagic, 4);
  util::writeU32(out_, kSpillVersion);
  util::writeU64(out_, 0);  // triplet count, patched by finish()
}

SpillRunWriter::~SpillRunWriter() {
  if (!finished_) {
    out_.close();
    std::error_code ignored;
    std::filesystem::remove(tmp_, ignored);
  }
}

void SpillRunWriter::append(const AdjacencyTriplet& triplet) {
  const std::uint64_t key = packPair(triplet.i, triplet.j);
  CHISIM_CHECK(!any_ || key > lastKey_,
               "spill run rows must be strictly key-ascending: " +
                   path_.string());
  if (!any_) {
    firstKey_ = key;
  }
  lastKey_ = key;
  any_ = true;
  frame_.push_back(triplet);
  if (frame_.size() >= frameTriplets_) {
    flushFrame();
  }
}

void SpillRunWriter::append(std::span<const AdjacencyTriplet> sorted) {
  for (const AdjacencyTriplet& triplet : sorted) {
    append(triplet);
  }
}

void SpillRunWriter::flushFrame() {
  if (frame_.empty()) {
    return;
  }
  // A spill row is an AdjacencyTriplet's bytes on little-endian hosts;
  // elsewhere each row is stored little-endian first.
  std::span<const std::byte> payload = std::as_bytes(std::span(frame_));
  std::vector<std::byte> portable;
  if constexpr (std::endian::native != std::endian::little) {
    portable.resize(payload.size());
    std::byte* out = portable.data();
    for (const AdjacencyTriplet& row : frame_) {
      for (const std::uint64_t word :
           {std::uint64_t{row.i}, std::uint64_t{row.j},
            row.weight & 0xffffffffu, row.weight >> 32}) {
        for (int shift = 0; shift < 32; shift += 8) {
          *out++ = static_cast<std::byte>(word >> shift);
        }
      }
    }
    payload = portable;
  }
  util::writeU32(out_, static_cast<std::uint32_t>(frame_.size()));
  util::writeU32(out_, util::crc32(payload));
  util::writeBytes(out_, payload);
  total_ += frame_.size();
  frame_.clear();
}

SpillRunInfo SpillRunWriter::finish() {
  CHISIM_REQUIRE(!finished_, "spill run already finished");
  flushFrame();
  out_.seekp(8);
  util::writeU64(out_, total_);
  out_.flush();
  CHISIM_CHECK(out_.good(), "spill run write failed: " + tmp_.string());
  out_.close();
  // A kThrow here models dying mid-spill: the complete .tmp is on disk but
  // never renamed, so resume-side GC sees only an orphan.
  runtime::fault::hit("spill.write");
  std::filesystem::rename(tmp_, path_);
  finished_ = true;
  SpillRunInfo info;
  info.file = path_;
  info.triplets = total_;
  info.bytes = static_cast<std::uint64_t>(std::filesystem::file_size(path_));
  info.frameTriplets = frameTriplets_;
  info.hasKeyRange = any_;
  info.firstKey = firstKey_;
  info.lastKey = lastKey_;
  return info;
}

// ---------------------------------------------------------------- reader

SpillRunReader::SpillRunReader(std::filesystem::path path)
    : path_(std::move(path)), in_(path_, std::ios::binary) {
  CHISIM_CHECK(in_.good(), "cannot open spill run: " + path_.string());
  char magic[4];
  in_.read(magic, 4);
  CHISIM_CHECK(in_.gcount() == 4 && std::equal(magic, magic + 4, kSpillMagic),
               "not a CSPL spill run: " + path_.string());
  CHISIM_CHECK(util::readU32(in_) == kSpillVersion,
               "unsupported spill run version: " + path_.string());
  total_ = util::readU64(in_);
}

void SpillRunReader::fail(const std::string& what,
                          std::uint64_t offset) const {
  CHISIM_CHECK(false, "spill run " + path_.string() + " at byte offset " +
                          std::to_string(offset) + ": " + what);
}

bool SpillRunReader::readFrame() {
  const std::uint64_t frameOffset =
      static_cast<std::uint64_t>(in_.tellg());
  std::byte header[8];
  in_.read(reinterpret_cast<char*>(header), 8);
  if (in_.gcount() == 0 && in_.eof()) {
    // Clean end of file at a frame boundary: the header count must agree.
    if (decoded_ != total_) {
      fail("truncated: header declares " + std::to_string(total_) +
               " triplets but only " + std::to_string(decoded_) +
               " are present",
           frameOffset);
    }
    return false;
  }
  if (in_.gcount() != 8) {
    fail("truncated frame header", frameOffset);
  }
  const std::uint32_t count = util::loadLe32(header);
  const std::uint32_t storedCrc = util::loadLe32(header + 4);
  if (count == 0 || count > kSpillFrameTriplets) {
    fail("corrupt frame header: implausible row count " +
             std::to_string(count),
         frameOffset);
  }
  // The frame is read straight into frame_: a spill row has
  // AdjacencyTriplet's layout on little-endian hosts, so the buffer holds
  // one frame and nothing else.
  frame_.resize(count);
  cursor_ = 0;
  const std::span<std::byte> payload =
      std::as_writable_bytes(std::span(frame_));
  in_.read(reinterpret_cast<char*>(payload.data()),
           static_cast<std::streamsize>(payload.size()));
  if (in_.gcount() != static_cast<std::streamsize>(payload.size())) {
    fail("truncated frame payload (wanted " + std::to_string(payload.size()) +
             " bytes, got " + std::to_string(in_.gcount()) + ")",
         frameOffset);
  }
  const std::uint32_t actualCrc = util::crc32(payload);
  if (actualCrc != storedCrc) {
    fail("frame CRC mismatch (stored " + std::to_string(storedCrc) +
             ", computed " + std::to_string(actualCrc) + ")",
         frameOffset);
  }
  decoded_ += count;
  if (decoded_ > total_) {
    fail("more triplets than the header declares (" + std::to_string(total_) +
             ")",
         frameOffset);
  }
  if constexpr (std::endian::native != std::endian::little) {
    for (AdjacencyTriplet& row : frame_) {
      std::byte bytes[kTripletBytes];
      std::memcpy(bytes, &row, kTripletBytes);
      row.i = util::loadLe32(bytes);
      row.j = util::loadLe32(bytes + 4);
      row.weight = util::loadLe64(bytes + 8);
    }
  }
  return true;
}

bool SpillRunReader::next(AdjacencyTriplet& out) {
  if (cursor_ >= frame_.size()) {
    if (exhausted_ || !readFrame()) {
      exhausted_ = true;
      return false;
    }
  }
  out = frame_[cursor_++];
  return true;
}

// ---------------------------------------------------------- accumulator

SpillingAccumulator::SpillingAccumulator(Options options)
    : options_(std::move(options)) {
  CHISIM_REQUIRE(!options_.dir.empty(),
                 "a spilling accumulator needs a run directory");
  CHISIM_REQUIRE(options_.rowsPerShard >= 1, "rowsPerShard must be >= 1");
  std::filesystem::create_directories(options_.dir);
  if (options_.budgetBytes > 0) {
    spillThreshold_ =
        std::max(options_.budgetBytes / 2, kMinSpillThresholdBytes);
  }
  // Resume-safe run numbering: start above any run file of this prefix
  // already in the directory (adopted checkpoint runs keep their names).
  for (const auto& entry : std::filesystem::directory_iterator(options_.dir)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(kRunPrefix)) {
      continue;
    }
    if (name.ends_with(".spl.tmp")) {
      // A SIGKILL during spill-write in a previous non-checkpoint run leaves
      // a complete-but-unrenamed .tmp behind; it is unreachable state and
      // would otherwise accumulate across fresh starts.
      std::error_code ignored;
      std::filesystem::remove(entry.path(), ignored);
      continue;
    }
    if (!name.ends_with(".spl")) {
      continue;
    }
    const std::string middle = name.substr(
        kRunPrefix.size(), name.size() - kRunPrefix.size() - 4);
    std::uint64_t index = 0;
    const auto [ptr, ec] =
        std::from_chars(middle.data(), middle.data() + middle.size(), index);
    if (ec == std::errc{} && ptr == middle.data() + middle.size()) {
      nextRunIndex_ = std::max(nextRunIndex_, index + 1);
    }
  }
}

std::filesystem::path SpillingAccumulator::nextRunPath() {
  return options_.dir /
         (std::string(kRunPrefix) + std::to_string(nextRunIndex_++) + ".spl");
}

void SpillingAccumulator::notePeak(std::uint64_t extraBytes) noexcept {
  stats_.peakResidentBytes =
      std::max(stats_.peakResidentBytes, residentBytes_ + extraBytes);
}

void SpillingAccumulator::noteWorkerPeak(std::uint64_t extraBytes) noexcept {
  stats_.peakWorkerBytes = std::max(stats_.peakWorkerBytes, extraBytes);
}

void SpillingAccumulator::add(std::uint32_t i, std::uint32_t j,
                              std::uint64_t weight) {
  CHISIM_REQUIRE(i != j, "self-collocation is not an edge");
  if (weight == 0) {
    return;
  }
  const std::uint32_t lo = i < j ? i : j;
  const std::uint32_t shard = lo / options_.rowsPerShard;
  auto found = shards_.find(shard);
  if (found == shards_.end()) {
    found = shards_.emplace(shard, PairCountMap(16)).first;
    residentBytes_ += found->second.memoryBytes();
  }
  PairCountMap* pairs = &found->second;
  if (spillThreshold_ > 0 && pairs->growthImminent() &&
      residentBytes_ + pairs->memoryBytes() > spillThreshold_) {
    // The next insert would double this shard past the budget line: spill
    // everything resident first, then insert into a fresh minimal shard.
    spillAll();
    found = shards_.emplace(shard, PairCountMap(16)).first;
    residentBytes_ += found->second.memoryBytes();
    pairs = &found->second;
  }
  const std::size_t before = pairs->memoryBytes();
  pairs->add(packPair(i, j), weight);
  residentBytes_ += pairs->memoryBytes() - before;
  notePeak(0);
}

void SpillingAccumulator::addSortedRun(std::span<const AdjacencyTriplet> run) {
  for (const AdjacencyTriplet& triplet : run) {
    add(triplet.i, triplet.j, triplet.weight);
  }
}

void SpillingAccumulator::adoptRunFile(const SpillRunInfo& info) {
  CHISIM_CHECK(std::filesystem::exists(info.file),
               "cannot adopt a missing spill run: " + info.file.string());
  SpillRunInfo owned = info;
  owned.file = nextRunPath();
  std::filesystem::rename(info.file, owned.file);
  runs_.push_back(std::move(owned));
  ++stats_.runsWritten;
  stats_.spilledTriplets += info.triplets;
  stats_.spilledBytes += info.bytes;
}

void SpillingAccumulator::restoreRunFile(const SpillRunInfo& info) {
  CHISIM_CHECK(std::filesystem::exists(info.file),
               "checkpoint manifest references a missing spill run: " +
                   info.file.string());
  // Restored runs are prior-life state, not this run's spill activity:
  // they count toward the live set but not the written/spilled counters.
  runs_.push_back(info);
}

void SpillingAccumulator::spillShard(PairCountMap& pairs) {
  if (pairs.empty()) {
    return;
  }
  std::vector<AdjacencyTriplet> triplets;
  triplets.reserve(pairs.size());
  pairs.forEach([&triplets](std::uint64_t key, std::uint64_t count) {
    triplets.push_back(
        AdjacencyTriplet{pairLow(key), pairHigh(key), count});
  });
  std::sort(triplets.begin(), triplets.end());
  // The sort buffer is the spill transient: it lives beside the resident
  // shards, which is why the spill threshold is half the budget.
  notePeak(triplets.size() * kTripletBytes);
  // Release the shard table before the file write so the transient and the
  // table never both count twice against the budget.
  residentBytes_ -= pairs.memoryBytes();
  pairs = PairCountMap(16);
  residentBytes_ += pairs.memoryBytes();

  SpillRunWriter writer(nextRunPath(), options_.frameTriplets);
  writer.append(std::span<const AdjacencyTriplet>(triplets));
  const SpillRunInfo info = writer.finish();
  runs_.push_back(info);
  ++stats_.runsWritten;
  stats_.spilledTriplets += info.triplets;
  stats_.spilledBytes += info.bytes;
}

void SpillingAccumulator::spillAll() {
  for (auto& [shard, pairs] : shards_) {
    spillShard(pairs);
    residentBytes_ -= pairs.memoryBytes();
  }
  shards_.clear();
}

void SpillingAccumulator::retireRunFile(std::filesystem::path file) {
  if (options_.deferDeletes) {
    retired_.push_back(std::move(file));
  } else {
    std::error_code ignored;
    std::filesystem::remove(file, ignored);
  }
}

void SpillingAccumulator::splitRun(const SpillRunInfo& run,
                                   std::vector<SpillRunInfo>& out) {
  SpillRunReader reader(run.file);
  std::unique_ptr<SpillRunWriter> writer;
  std::int64_t currentShard = -1;
  AdjacencyTriplet triplet;
  const auto finishPart = [this, &writer, &out] {
    if (!writer) {
      return;
    }
    const SpillRunInfo part = writer->finish();
    writer.reset();
    out.push_back(part);
    ++stats_.runsWritten;
    stats_.spilledTriplets += part.triplets;
    stats_.spilledBytes += part.bytes;
  };
  while (reader.next(triplet)) {
    const std::int64_t shard =
        static_cast<std::int64_t>(triplet.i / options_.rowsPerShard);
    if (shard != currentShard) {
      finishPart();
      writer = std::make_unique<SpillRunWriter>(nextRunPath(),
                                                options_.frameTriplets);
      currentShard = shard;
    }
    writer->append(triplet);
  }
  finishPart();
  ++stats_.runsSplit;
  retireRunFile(run.file);
}

std::vector<SpillingAccumulator::ShardRunGroup>
SpillingAccumulator::buildShardMergePlan() {
  spillAll();
  std::vector<SpillRunInfo> pure;
  std::vector<SpillRunInfo> straddlers;
  pure.reserve(runs_.size());
  for (SpillRunInfo& run : runs_) {
    if (run.triplets == 0) {
      retireRunFile(std::move(run.file));
      continue;
    }
    if (run.shardOf(options_.rowsPerShard) >= 0) {
      pure.push_back(std::move(run));
    } else {
      straddlers.push_back(std::move(run));
    }
  }
  for (const SpillRunInfo& straddler : straddlers) {
    splitRun(straddler, pure);
  }
  runs_ = std::move(pure);
  std::map<std::uint32_t, std::vector<SpillRunInfo>> byShard;
  for (const SpillRunInfo& run : runs_) {
    const std::int64_t shard = run.shardOf(options_.rowsPerShard);
    CHISIM_CHECK(shard >= 0, "split left a straddling run: " +
                                 run.file.string());
    byShard[static_cast<std::uint32_t>(shard)].push_back(run);
  }
  std::vector<ShardRunGroup> plan;
  plan.reserve(byShard.size());
  for (auto& [shard, runs] : byShard) {
    plan.push_back(ShardRunGroup{shard, std::move(runs)});
  }
  return plan;
}

std::vector<std::filesystem::path> SpillingAccumulator::takeRetiredFiles() {
  return std::exchange(retired_, {});
}

// ---------------------------------------------------------- worker sum

SpillingSum::SpillingSum(std::filesystem::path dir, std::string filePrefix,
                         std::uint64_t flushThresholdBytes,
                         std::uint32_t splitRows, std::uint64_t frameTriplets)
    : dir_(std::move(dir)),
      filePrefix_(std::move(filePrefix)),
      splitRows_(splitRows),
      frameTriplets_(frameTriplets) {
  CHISIM_REQUIRE(splitRows_ >= 1, "splitRows must be >= 1");
  if (flushThresholdBytes > 0) {
    flushEntries_ = PairCountMap::maxEntriesWithin(
        std::max(flushThresholdBytes, kMinSpillThresholdBytes));
    CHISIM_REQUIRE(!dir_.empty(),
                   "a flushing stage-5 sum needs a spill directory");
  }
}

void SpillingSum::addCollocation(const CollocationMatrix& matrix) {
  sum_.addCollocation(matrix);
  peakBytes_ = std::max<std::uint64_t>(peakBytes_, sum_.memoryBytes());
  if (flushEntries_ > 0 && sum_.edgeCount() > flushEntries_) {
    flush();
  }
}

void SpillingSum::flush() {
  if (sum_.edgeCount() == 0) {
    return;
  }
  const std::vector<AdjacencyTriplet> triplets = drainInMemory();
  // The sorted flush is partitioned at reduce-shard boundaries into
  // shard-pure runs, so the sink can route each run straight to its shard
  // owner without a split-and-rewrite pass.
  std::size_t begin = 0;
  while (begin < triplets.size()) {
    const std::uint32_t shard = triplets[begin].i / splitRows_;
    std::size_t end = begin + 1;
    while (end < triplets.size() && triplets[end].i / splitRows_ == shard) {
      ++end;
    }
    SpillRunWriter writer(
        dir_ / (filePrefix_ + std::to_string(nextRunIndex_++) + ".spl"),
        frameTriplets_);
    writer.append(std::span<const AdjacencyTriplet>(triplets.data() + begin,
                                                    end - begin));
    runs_.push_back(writer.finish());
    begin = end;
  }
}

const AdjacencyKernelStats& SpillingSum::kernelStats() const noexcept {
  return sum_.kernelStats();
}

std::vector<AdjacencyTriplet> SpillingSum::drainInMemory() {
  // One thread: stage-5 sums drain inside the worker (or rank) that owns
  // them, which already runs one per core.
  std::vector<AdjacencyTriplet> triplets = sum_.toTriplets(1);
  peakBytes_ = std::max<std::uint64_t>(
      peakBytes_, sum_.memoryBytes() + triplets.size() * kTripletBytes);
  const AdjacencyKernelStats stats = sum_.kernelStats();
  sum_ = SymmetricAdjacency();
  sum_.addKernelStats(stats);  // counters survive the drain
  return triplets;
}

// -------------------------------------------------------- shard merge

std::uint64_t spillReaderBytes(const SpillRunInfo& run) noexcept {
  return std::min(run.triplets, run.frameTriplets) * kTripletBytes;
}

std::uint64_t spillFrameTripletsWithin(std::uint64_t readerBudget) noexcept {
  return std::clamp<std::uint64_t>(readerBudget / (16 * kTripletBytes), 1,
                                   kSpillFrameTriplets);
}

void SpillStats::addSegment(const ShardSegment& segment) noexcept {
  runsWritten += segment.passes;
  spilledTriplets += segment.passTriplets;
  spilledBytes += segment.passBytes;
  compactions += segment.passes;
  peakMergeReaderBytes =
      std::max(peakMergeReaderBytes, segment.peakReaderBytes);
}

namespace {

/// The next intermediate pass of an owner's merge: the smallest runs (by
/// reader bytes, then rows) whose readers fit in `readerBudget`, stopping
/// as soon as merging them into a run of `passFrame`-row frames frees
/// enough reader bytes for the rest to fit. At least two runs; indices
/// into `runs`.
std::vector<std::size_t> pickPass(const std::vector<SpillRunInfo>& runs,
                                  std::uint64_t openBytes,
                                  std::uint64_t readerBudget,
                                  std::uint64_t passFrame) {
  std::vector<std::size_t> order(runs.size());
  for (std::size_t at = 0; at < order.size(); ++at) {
    order[at] = at;
  }
  std::sort(order.begin(), order.end(), [&runs](std::size_t a, std::size_t b) {
    const std::uint64_t bytesA = spillReaderBytes(runs[a]);
    const std::uint64_t bytesB = spillReaderBytes(runs[b]);
    return bytesA != bytesB ? bytesA < bytesB
                            : runs[a].triplets < runs[b].triplets;
  });
  const std::uint64_t excess = openBytes - readerBudget;
  std::vector<std::size_t> pass;
  std::uint64_t passBytes = 0;
  std::uint64_t passTriplets = 0;
  for (const std::size_t at : order) {
    const std::uint64_t bytes = spillReaderBytes(runs[at]);
    if (pass.size() >= 2 && passBytes + bytes > readerBudget) {
      break;
    }
    pass.push_back(at);
    passBytes += bytes;
    passTriplets += runs[at].triplets;
    // The merged run's reader holds at most one frame of the summed rows.
    const std::uint64_t merged =
        std::min(passTriplets, passFrame) * kTripletBytes;
    if (pass.size() >= 2 && passBytes - merged >= excess) {
      break;
    }
  }
  return pass;
}

std::vector<std::unique_ptr<TripletSource>> openRuns(
    std::span<const SpillRunInfo> runs) {
  std::vector<std::unique_ptr<TripletSource>> readers;
  readers.reserve(runs.size());
  for (const SpillRunInfo& run : runs) {
    readers.push_back(std::make_unique<SpillRunReader>(run.file));
  }
  return readers;
}

}  // namespace

ShardSegment mergeShardRuns(std::uint32_t shard,
                            std::span<const SpillRunInfo> runs,
                            const std::filesystem::path& segmentFile,
                            std::uint64_t readerBudget) {
  util::ThreadCpuTimer timer;
  ShardSegment segment;
  segment.shard = shard;
  segment.file = segmentFile;
  std::vector<SpillRunInfo> live(runs.begin(), runs.end());
  // Intermediate runs are this merge's own files: deleted once consumed,
  // or on failure.
  std::vector<std::filesystem::path> intermediates;
  const auto isIntermediate = [&intermediates](const SpillRunInfo& run) {
    return std::find(intermediates.begin(), intermediates.end(), run.file) !=
           intermediates.end();
  };
  const std::uint64_t passFrame = spillFrameTripletsWithin(readerBudget);
  try {
    std::uint64_t openBytes = 0;
    for (const SpillRunInfo& run : live) {
      openBytes += spillReaderBytes(run);
    }
    while (live.size() > 2 && openBytes > readerBudget) {
      runtime::fault::hit("spill.merge");
      const std::vector<std::size_t> pick =
          pickPass(live, openBytes, readerBudget, passFrame);
      std::vector<SpillRunInfo> inputs;
      std::vector<SpillRunInfo> rest;
      std::uint64_t passBytes = 0;
      for (std::size_t at = 0; at < live.size(); ++at) {
        if (std::find(pick.begin(), pick.end(), at) != pick.end()) {
          passBytes += spillReaderBytes(live[at]);
          inputs.push_back(std::move(live[at]));
        } else {
          rest.push_back(std::move(live[at]));
        }
      }
      segment.peakReaderBytes = std::max(segment.peakReaderBytes, passBytes);
      TripletMerger merger(openRuns(inputs));
      SpillRunWriter writer(
          segmentFile.string() + ".p" + std::to_string(segment.passes) +
              ".spl",
          passFrame);
      AdjacencyTriplet triplet;
      while (merger.next(triplet)) {
        writer.append(triplet);
      }
      const SpillRunInfo merged = writer.finish();
      intermediates.push_back(merged.file);
      ++segment.passes;
      segment.passTriplets += merged.triplets;
      segment.passBytes += merged.bytes;
      for (const SpillRunInfo& input : inputs) {
        if (isIntermediate(input)) {
          std::filesystem::remove(input.file);
        }
      }
      openBytes = openBytes - passBytes + spillReaderBytes(merged);
      rest.push_back(merged);
      live = std::move(rest);
    }
    segment.peakReaderBytes = std::max(segment.peakReaderBytes, openBytes);
    TripletMerger merger(openRuns(live));
    TripletSegmentWriter writer(segmentFile);
    AdjacencyTriplet triplet;
    while (merger.next(triplet)) {
      writer.append(triplet);
    }
    const TripletSegmentInfo info = writer.finish();
    segment.triplets = info.triplets;
    segment.bytes = info.bytes;
    segment.crc = info.crc;
  } catch (...) {
    for (const std::filesystem::path& file : intermediates) {
      std::error_code ignored;
      std::filesystem::remove(file, ignored);
    }
    throw;
  }
  for (const std::filesystem::path& file : intermediates) {
    std::error_code ignored;
    std::filesystem::remove(file, ignored);
  }
  segment.mergeSeconds = timer.seconds();
  return segment;
}

}  // namespace chisimnet::sparse
