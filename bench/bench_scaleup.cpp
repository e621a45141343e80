// Future-work projection (paper §VIII: "scaling-up to clusters of
// larger FPGA boards"): re-run the system generator against bigger
// devices and a multi-board cluster.
//
// Device resource envelopes (public datasheets):
//   zu7ev  (ZCU106, the paper) :  230K LUT,  461K FF, 1,728 DSP,  312 BRAM36
//   zu9eg  (ZCU102)            :  274K LUT,  548K FF, 2,520 DSP,  912 BRAM36
//   vu9p   (Alveo U250 class)  : 1,182K LUT, 2,364K FF, 6,840 DSP, 2,160 BRAM36
//
// Elements are independent, so a cluster of B boards partitions the
// 50,000-element simulation; per-board transfers ride separate host
// links (the EVEREST platform vision the paper is embedded in).
#include "BenchCommon.h"

int main() {
  using namespace cfd;
  using namespace cfd::bench;

  struct Board {
    const char* name;
    hls::DeviceResources device;
  };
  const Board boards[] = {
      {"zu7ev (ZCU106)", {230400, 460800, 1728, 312}},
      {"zu9eg (ZCU102)", {274080, 548160, 2520, 912}},
      {"vu9p  (Alveo)", {1182240, 2364480, 6840, 2160}},
  };

  printHeader("Scale-up projection: bigger boards and clusters "
              "(50,000 elements, sharing)");
  std::cout << "  board            max m=k   binding resource   total ms   "
               "speedup vs ZCU106 m=16\n";

  // One Explorer sweep over the device envelope: the board variants
  // compile in parallel through the session's FlowCache and each row
  // carries its platform simulation. The auto-tune below shares the
  // same session.
  Session session;
  std::vector<FlowOptions> variants;
  for (const Board& board : boards) {
    FlowOptions options;
    options.system.device = board.device;
    variants.push_back(options);
  }
  ExplorerOptions explorerOptions;
  explorerOptions.simulateElements = kNumElements;
  const ExplorationResult sweep =
      explore(session, kInverseHelmholtz, variants, explorerOptions);

  double reference = 0.0;
  for (std::size_t i = 0; i < sweep.rows.size(); ++i) {
    const ExplorationRow& row = sweep.rows[i];
    const Board& board = boards[i];
    if (!row.ok()) {
      std::cout << "  " << padRight(board.name, 16) << "  infeasible: "
                << row.error << "\n";
      continue;
    }
    if (reference == 0.0)
      reference = row.sim.totalTimeUs();
    // Which resource stops the next doubling?
    const auto& total = row.flow->systemDesign().total;
    const int m = row.flow->systemDesign().m;
    const char* binding = "BRAM";
    if (2 * total.lut > board.device.lut)
      binding = "LUT";
    else if (2 * total.dsp > board.device.dsp)
      binding = "DSP";
    else if (2 * (total.bram36) <= board.device.bram36 - 8)
      binding = "transfer";
    std::cout << "  " << padRight(board.name, 16)
              << padLeft(std::to_string(m), 8)
              << padLeft(binding, 19)
              << padLeft(formatFixed(row.sim.totalTimeUs() / 1e3, 1), 11)
              << padLeft(formatFixed(reference / row.sim.totalTimeUs(), 2),
                         12)
              << "\n";
  }
  std::cout << "  (swept " << sweep.rows.size() << " boards on "
            << sweep.workers
            << (sweep.workers == 1 ? " worker in " : " workers in ")
            << formatFixed(sweep.wallMillis, 1) << " ms)\n";

  // Cluster of ZCU106 boards: elements partition evenly; each board has
  // its own host link, so both compute and transfers scale.
  std::cout << "\n  cluster of ZCU106 boards (m = k = 16 each):\n";
  std::cout << "  boards   elements/board   total ms   scaling\n";
  const Flow flow = compileHelmholtz(true, 16, 16);
  double oneBoard = 0.0;
  for (int b : {1, 2, 4, 8}) {
    const auto result =
        flow.simulate({.numElements = (kNumElements + b - 1) / b});
    if (b == 1)
      oneBoard = result.totalTimeUs();
    std::cout << padLeft(std::to_string(b), 8)
              << padLeft(formatThousands((kNumElements + b - 1) / b), 17)
              << padLeft(formatFixed(result.totalTimeUs() / 1e3, 1), 11)
              << padLeft(formatFixed(oneBoard / result.totalTimeUs(), 2), 10)
              << "\n";
  }
  std::cout << "\n  Element independence makes multi-board scaling linear "
               "up to the host\n  distribution bandwidth — the premise of "
               "the paper's cluster outlook.\n";

  // Auto-tune the replication degree on the ZCU106 (m with k = m, plus
  // sharing) and report the latency/BRAM Pareto frontier; the Tuner
  // prunes non-power-of-two m/k combinations before compiling and
  // $CFD_TUNE_REPORT captures the JSON report (DESIGN.md §7-§8).
  TuneSpace space;
  space.axes.push_back(TuneAxis{"m", {"4", "8", "16"}});
  space.axes.push_back(TuneAxis{"sharing", {"0", "1"}});
  TunerOptions tunerOptions;
  tunerOptions.simulateElements = kNumElements;
  const TuningReport tuned =
      tune(session, kInverseHelmholtz, space, tunerOptions);
  std::cout << "\n  auto-tuned m x sharing (latency, BRAM), Pareto "
               "frontier:\n";
  for (std::size_t index : tuned.frontier) {
    const TunedPoint& point = tuned.points[index];
    std::cout << "  " << padRight(point.label(), 18)
              << padLeft(formatFixed(point.scores[0], 2), 10) << " us/elem"
              << padLeft(formatFixed(point.scores[1], 0), 7) << " BRAM\n";
  }
  maybeWriteTuningReport(tuned);
  return 0;
}
