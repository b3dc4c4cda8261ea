#pragma once

/// Shared plumbing for the benchmark harnesses: scaled workload setup
/// (population -> ABM -> logs), and uniform "paper vs measured" reporting.
///
/// Every harness honors CHISIMNET_SCALE (default 1.0) as a multiplier on
/// its default population so the same binaries serve quick smoke runs
/// (CHISIMNET_SCALE=0.1) and long reproductions (CHISIMNET_SCALE=4).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "chisimnet/chisimnet.hpp"
#include "chisimnet/stats/plot.hpp"

namespace chisimnet::bench {

/// Paper-scale constants used in extrapolation rows.
inline constexpr double kPaperPersons = 2.9e6;
inline constexpr std::uint64_t kPaperVertices = 2'927'761;
inline constexpr std::uint64_t kPaperEdges = 830'328'649;
inline constexpr double kPaperEntryBytes = 20.0;
inline constexpr double kPaperChangesPerDay = 5.0;

/// Directory where benches drop regenerated figures (SVG) and data series;
/// override with CHISIMNET_RESULTS.
inline std::filesystem::path resultsDir() {
  const char* env = std::getenv("CHISIMNET_RESULTS");
  const std::filesystem::path dir = env != nullptr ? env : "chisimnet_results";
  std::filesystem::create_directories(dir);
  return dir;
}

inline std::uint32_t scaledPersons(std::uint32_t defaultPersons) {
  const double scaled = util::benchScale() * defaultPersons;
  return scaled < 1000.0 ? 1000u : static_cast<std::uint32_t>(scaled);
}

inline pop::SyntheticPopulation makePopulation(std::uint32_t persons,
                                               std::uint64_t seed = 20170517) {
  pop::PopulationConfig config;
  config.personCount = persons;
  config.seed = seed;
  return pop::SyntheticPopulation::generate(config);
}

struct SimulatedLogs {
  std::filesystem::path directory;
  std::vector<std::filesystem::path> files;
  abm::ModelStats stats;

  ~SimulatedLogs() {
    std::error_code ignored;
    std::filesystem::remove_all(directory, ignored);
  }
};

/// Runs the ABM into a temp directory and returns the produced log files.
inline SimulatedLogs simulate(const pop::SyntheticPopulation& population,
                              int ranks = 8, std::uint32_t weeks = 1,
                              abm::PartitionStrategy strategy =
                                  abm::PartitionStrategy::kNeighborhood) {
  SimulatedLogs logs;
  logs.directory = std::filesystem::temp_directory_path() /
                   ("chisimnet_bench_" + std::to_string(::getpid()) + "_" +
                    std::to_string(population.persons().size()));
  std::filesystem::remove_all(logs.directory);
  abm::ModelConfig config;
  config.logDirectory = logs.directory;
  config.rankCount = ranks;
  config.weeks = weeks;
  config.strategy = strategy;
  logs.stats = abm::runModel(population, config);
  logs.files = elog::listLogFiles(logs.directory);
  return logs;
}

inline void printHeader(const std::string& experiment,
                        const std::string& paperArtifact) {
  std::cout << "==============================================================\n"
            << "experiment: " << experiment << "\n"
            << "paper:      " << paperArtifact << "\n"
            << "scale:      CHISIMNET_SCALE=" << util::benchScale() << "\n"
            << "==============================================================\n";
}

inline void printRow(const std::string& metric, const std::string& paper,
                     const std::string& measured,
                     const std::string& note = "") {
  std::cout << "  " << metric;
  for (std::size_t i = metric.size(); i < 34; ++i) {
    std::cout << ' ';
  }
  std::cout << "paper: ";
  std::cout << paper;
  for (std::size_t i = paper.size(); i < 22; ++i) {
    std::cout << ' ';
  }
  std::cout << "measured: " << measured;
  if (!note.empty()) {
    std::cout << "   (" << note << ")";
  }
  std::cout << "\n";
}

inline std::string fmt(double value, int precision = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

/// Best and worst wall seconds over the repeats of a timed run.
struct Timing {
  double best = 0.0;
  double worst = 0.0;

  /// Run-to-run spread, (worst - best) / best, as a percentage.
  std::string spread() const {
    return fmt(100.0 * (worst - best) / best, 0) + "%";
  }
};

/// Min-of-N wall seconds of `run`, keeping the last result in `out`.
template <class Out, class Run>
Timing timeRepeated(int repeats, Out& out, Run&& run) {
  Timing timing;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    util::WallTimer timer;
    out = run();
    const double seconds = timer.seconds();
    timing.best = repeat == 0 ? seconds : std::min(timing.best, seconds);
    timing.worst = std::max(timing.worst, seconds);
  }
  return timing;
}

/// Flat machine-readable metrics dump. Benches collect (key, value) pairs
/// and write `resultsDir()/BENCH_<name>.json` so CI can archive per-run
/// numbers (per-stage seconds, kernel variant, edges/sec) without scraping
/// stdout. Keys are emitted in insertion order; duplicate keys overwrite.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void put(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    putRaw(key, buffer);
  }
  void put(const std::string& key, std::uint64_t value) {
    putRaw(key, std::to_string(value));
  }
  void put(const std::string& key, int value) {
    putRaw(key, std::to_string(value));
  }
  void put(const std::string& key, bool value) {
    putRaw(key, value ? "true" : "false");
  }
  void put(const std::string& key, const std::string& value) {
    putRaw(key, "\"" + escape(value) + "\"");
  }
  void put(const std::string& key, const char* value) {
    put(key, std::string(value));
  }

  /// Writes BENCH_<name>.json into resultsDir() and returns its path.
  std::filesystem::path write() const {
    const std::filesystem::path path = resultsDir() / ("BENCH_" + name_ + ".json");
    std::ofstream out(path);
    out << "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out << "  \"" << escape(fields_[i].first) << "\": " << fields_[i].second
          << (i + 1 < fields_.size() ? "," : "") << "\n";
    }
    out << "}\n";
    return path;
  }

 private:
  static std::string escape(const std::string& text) {
    std::string out;
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
      }
      out.push_back(c);
    }
    return out;
  }

  void putRaw(const std::string& key, std::string value) {
    for (auto& field : fields_) {
      if (field.first == key) {
        field.second = std::move(value);
        return;
      }
    }
    fields_.emplace_back(key, std::move(value));
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

inline std::string fmtCount(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  int counter = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (counter != 0 && counter % 3 == 0) {
      out.push_back(',');
    }
    out.push_back(*it);
    ++counter;
  }
  return std::string(out.rbegin(), out.rend());
}

}  // namespace chisimnet::bench
