/// FIG4 — histogram of the local vertex clustering coefficient for the
/// full-population collocation network over one week (paper Fig 4).
///
/// The paper's histogram has a dominant spike at coefficient 1.0 ("many of
/// the person nodes have a clustering coefficient of 1, which indicates a
/// high degree of local clustering"), characteristic of scale-free and
/// small-world networks versus random graphs.
///
/// It also gates the clustering kernel's wall time: the forward triangle
/// listing (min-of-3, spread printed) must beat the merge-intersection
/// reference it replaced by >= 10x on this network, with bit-identical
/// coefficients. Writes BENCH_fig4_clustering.json.

#include <algorithm>
#include <thread>

#include "bench_common.hpp"
#include "clustering_oracle.hpp"

namespace {

constexpr int kKernelRepeats = 3;
constexpr double kGateSpeedup = 10.0;

}  // namespace

int main() {
  using namespace chisimnet;
  using namespace chisimnet::bench;

  printHeader("FIG4 clustering histogram",
              "Fig 4: local clustering coefficient histogram, full network");

  const auto population = makePopulation(scaledPersons(30'000));
  const SimulatedLogs logs = simulate(population);

  net::SynthesisConfig config;
  config.windowEnd = pop::kHoursPerWeek;
  config.workers = 8;
  net::NetworkSynthesizer synthesizer(config);
  const graph::Graph network = synthesizer.synthesizeGraph(logs.files);
  std::cout << "network: " << fmtCount(network.vertexCount()) << " vertices, "
            << fmtCount(network.edgeCount()) << " edges\n";

  JsonReport report("fig4_clustering");
  report.put("vertices", std::uint64_t{network.vertexCount()});
  report.put("edges", network.edgeCount());

  // ---- kernel timing and the gate ------------------------------------------
  const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> coefficients;
  const Timing kernel = timeRepeated(kKernelRepeats, coefficients, [&] {
    return graph::localClusteringCoefficients(network, workers);
  });
  std::vector<double> serialCoefficients;
  const Timing serial = timeRepeated(kKernelRepeats, serialCoefficients, [&] {
    return graph::localClusteringCoefficients(network, 1);
  });
  // The reference runs once: at ~24 s on a 4-core host it dominates the
  // bench, and the measured margin (~50x against the 10x bar) dwarfs its
  // run-to-run spread.
  std::vector<double> referenceCoefficients;
  const Timing reference = timeRepeated(1, referenceCoefficients, [&] {
    return graph::oracle::mergeIntersectionClustering(network);
  });
  const bool identical = coefficients == referenceCoefficients &&
                         serialCoefficients == referenceCoefficients;
  const double speedup = reference.best / kernel.best;
  std::cout << "clustering kernel (min-of-" << kKernelRepeats << "): "
            << fmt(kernel.best, 3) << " s at " << workers << " workers (spread "
            << kernel.spread() << "), " << fmt(serial.best, 3)
            << " s at 1 worker (spread " << serial.spread() << ")\n"
            << "merge-intersection reference: " << fmt(reference.best, 3)
            << " s\n\n";
  printRow("kernel speedup vs reference", ">= 10x required",
           fmt(speedup, 1) + "x", std::to_string(workers) + " workers");
  printRow("kernel speedup, 1 worker", "", fmt(reference.best / serial.best, 1) + "x");
  printRow("coefficients vs reference", "bit-identical",
           identical ? "bit-identical" : "DIFFER");
  report.put("workers", static_cast<int>(workers));
  report.put("kernel_s", kernel.best);
  report.put("kernel_spread_s", kernel.worst - kernel.best);
  report.put("kernel_w1_s", serial.best);
  report.put("kernel_w1_spread_s", serial.worst - serial.best);
  report.put("reference_s", reference.best);
  report.put("speedup", speedup);
  report.put("bit_identical", identical);
  std::cout << "\n";

  stats::Histogram histogram(0.0, 1.0, 20);
  histogram.addAll(coefficients);

  std::cout << "histogram (bin : count):\n";
  for (std::size_t bin = 0; bin < histogram.binCount(); ++bin) {
    const auto [lo, hi] = histogram.binEdges(bin);
    std::cout << "  [" << fmt(lo, 2) << "," << fmt(hi, 2) << ") : "
              << fmtCount(histogram.count(bin)) << "\n";
  }

  // Regenerate the figure: the paper's Fig 4 histogram.
  const auto figurePath = resultsDir() / "fig4_clustering_histogram.svg";
  stats::writeHistogramSvg(histogram,
                           "Fig 4 — local clustering coefficient histogram",
                           "local clustering coefficient", figurePath);
  std::cout << "wrote " << figurePath.string() << "\n\n";

  std::uint64_t atOne = 0;
  double sum = 0.0;
  for (double c : coefficients) {
    atOne += c >= 0.999 ? 1 : 0;
    sum += c;
  }
  const double meanCoefficient = sum / static_cast<double>(coefficients.size());
  printRow("mass at coefficient 1.0",
           "dominant spike at 1.0",
           fmt(100.0 * atOne / coefficients.size(), 1) + "% of vertices");
  printRow("mean local clustering", "high vs random graph",
           fmt(meanCoefficient, 3));

  // Random-graph comparison at matched size (the paper cites small-world /
  // scale-free networks as having much larger clustering than random).
  util::Rng rng(1);
  const std::uint64_t sampleEdges =
      std::min<std::uint64_t>(network.edgeCount(), 500'000);
  const double keep =
      static_cast<double>(sampleEdges) / static_cast<double>(network.edgeCount());
  const auto sampleVertices =
      static_cast<graph::Vertex>(network.vertexCount() * keep) + 2;
  const graph::Graph random = graph::erdosRenyi(
      std::max<graph::Vertex>(sampleVertices, 100),
      std::min<std::uint64_t>(sampleEdges,
                              static_cast<std::uint64_t>(sampleVertices) *
                                  (sampleVertices - 1) / 2),
      rng);
  const auto randomCoefficients = graph::localClusteringCoefficients(random);
  double randomSum = 0.0;
  for (double c : randomCoefficients) {
    randomSum += c;
  }
  const double randomMean =
      randomSum / static_cast<double>(randomCoefficients.size());
  printRow("mean clustering, ER random graph", "far below collocation net",
           fmt(randomMean, 4), "matched mean degree");

  const bool spike = atOne * 5 > coefficients.size() / 10;  // > 2% at 1.0
  const bool beatsRandom = meanCoefficient > 5.0 * randomMean;
  const bool fastEnough = speedup >= kGateSpeedup;
  report.put("gate_pass", fastEnough && identical);
  std::cout << "\nshape check: spike at 1.0 present: "
            << (spike ? "YES" : "NO")
            << "; clustering >> random graph: "
            << (beatsRandom ? "YES (matches paper)" : "NO")
            << "\nkernel gate: >= " << fmt(kGateSpeedup, 0)
            << "x over the reference, bit-identical: "
            << (fastEnough && identical ? "PASS" : "FAIL") << "\n";
  std::cout << "wrote " << report.write().string() << "\n";
  return spike && beatsRandom && fastEnough && identical ? 0 : 1;
}
