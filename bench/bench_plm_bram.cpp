// Reproduces the in-text PLM BRAM numbers of §VI:
//   "The PLM units for one kernel require 31 BRAMs ..."
//   "... when enabling compatibilities obtained from liveness analysis,
//    the PLM units for one kernel now require only 18 BRAMs."
//   "... the memory system used 9 BRAMs and the accelerator used 24, for
//    a total of 33 BRAMs" (temporaries left inside the HLS accelerator).
//
// Known delta (DESIGN.md §6): Vivado's exact BRAM packing is not public;
// our exact-depth Mnemosyne packing yields slightly fewer BRAMs in the
// dedicated-buffer cases, with the same sharing ratio and the same
// feasibility conclusions (m <= 8 without sharing, m = 16 with).
#include "BenchCommon.h"

int main() {
  using namespace cfd;
  using namespace cfd::bench;

  const Flow noSharing = compileHelmholtz(/*sharing=*/false);
  const Flow sharing = compileHelmholtz(/*sharing=*/true);

  FlowOptions inHlsOptions;
  inHlsOptions.memory.decoupled = false;
  const Flow inHls = Flow::compile(kInverseHelmholtz, inHlsOptions);

  printHeader("In-text: PLM BRAM36 per kernel");
  printCountRow("no sharing", 31, noSharing.memoryPlan().plmBram36());
  printCountRow("with sharing", 18, sharing.memoryPlan().plmBram36());

  printHeader("In-text: temporaries inside the HLS accelerator");
  printCountRow("memory system", 9, inHls.memoryPlan().plmBram36());
  printCountRow("accelerator", 24,
                inHls.memoryPlan().acceleratorBram36());
  printCountRow("total", 33, inHls.memoryPlan().totalBram36());

  std::cout << "\nSharing classes (with sharing):\n"
            << sharing.memoryPlan().str(sharing.program());
  std::cout << "\nCompatibility graph (paper Fig. 5):\n"
            << sharing.compatibilityDot();

  return 0;
}
