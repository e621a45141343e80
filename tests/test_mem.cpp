#include "core/Flow.h"
#include "mem/Bram.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace cfd::mem {
namespace {

Flow compileHelmholtz(FlowOptions options = {}) {
  return Flow::compile(test::kInverseHelmholtz, options);
}

TEST(LivenessTest, InputsAndOutputsUseVirtualStatements) {
  const Flow flow = compileHelmholtz();
  const LivenessInfo& liveness = flow.liveness();
  const ir::Program& program = flow.program();
  const int last = liveness.numStatements;
  // Inputs are defined by the virtual `first` statement.
  EXPECT_EQ(liveness.of(program.findTensor("S")->id).begin, -1);
  EXPECT_EQ(liveness.of(program.findTensor("u")->id).begin, -1);
  // Outputs are read by the virtual `last` statement.
  EXPECT_EQ(liveness.of(program.findTensor("v")->id).end, last);
}

TEST(LivenessTest, ChainedTemporariesHaveShortIntervals) {
  const Flow flow = compileHelmholtz();
  const LivenessInfo& liveness = flow.liveness();
  const ir::Program& program = flow.program();
  // Each transient lives exactly from its defining statement to the next.
  for (const char* name : {"t0", "t1", "t2", "t3"}) {
    const LiveInterval& interval =
        liveness.of(program.findTensor(name)->id);
    EXPECT_EQ(interval.length(), 2) << name;
  }
  // S is read by all six contractions: live across the whole kernel.
  const LiveInterval& s = liveness.of(program.findTensor("S")->id);
  EXPECT_EQ(s.begin, -1);
  EXPECT_GE(s.end, 5);
}

TEST(LivenessTest, IntervalOverlapSemantics) {
  EXPECT_TRUE((LiveInterval{0, 3}).overlaps({3, 5}));
  EXPECT_FALSE((LiveInterval{0, 2}).overlaps({3, 5}));
  EXPECT_TRUE((LiveInterval{-1, 7}).overlaps({2, 2}));
}

TEST(CompatibilityTest, DisjointLifetimesAreAddressSpaceCompatible) {
  const Flow flow = compileHelmholtz();
  const CompatibilityGraph& graph = flow.compatibilityGraph();
  const ir::Program& program = flow.program();
  const auto id = [&](const char* name) {
    return program.findTensor(name)->id;
  };
  // The producer/consumer chain makes alternating members compatible.
  EXPECT_TRUE(graph.addressSpaceCompatible(id("t0"), id("t")));
  EXPECT_TRUE(graph.addressSpaceCompatible(id("t"), id("t2")));
  EXPECT_TRUE(graph.addressSpaceCompatible(id("u"), id("t1")));
  // Adjacent producer/consumer pairs conflict.
  EXPECT_FALSE(graph.addressSpaceCompatible(id("t0"), id("t1")));
  EXPECT_FALSE(graph.addressSpaceCompatible(id("u"), id("t0")));
  // Inputs overlap each other (both live from `first`).
  EXPECT_FALSE(graph.addressSpaceCompatible(id("S"), id("D")));
}

TEST(CompatibilityTest, InterfaceCompatibilityMatchesFig5Grouping) {
  const Flow flow = compileHelmholtz();
  const CompatibilityGraph& graph = flow.compatibilityGraph();
  const ir::Program& program = flow.program();
  const auto id = [&](const char* name) {
    return program.findTensor(name)->id;
  };
  // S and D are never read by the same statement -> interface compatible
  // (the paper's Fig. 5 connects them in the interface group).
  EXPECT_TRUE(graph.interfaceCompatible(id("S"), id("D")));
  // S and u are read together by the first contraction.
  EXPECT_FALSE(graph.interfaceCompatible(id("S"), id("u")));
  // D and t are read together by the Hadamard product.
  EXPECT_FALSE(graph.interfaceCompatible(id("D"), id("t")));
}

TEST(CompatibilityTest, DotOutputContainsAllNodes) {
  const Flow flow = compileHelmholtz();
  const std::string dot = flow.compatibilityDot();
  for (const char* name :
       {"S", "D", "u", "v", "t", "r", "t0", "t1", "t2", "t3"})
    EXPECT_NE(dot.find(name), std::string::npos) << name;
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

/// Both relations built pair by pair from the header's definition:
/// address-space compatible = disjoint live intervals; interface
/// compatible = no statement reads both arrays, where a read-modify-write
/// accumulation also reads its target.
struct BruteForceGraph {
  std::vector<CompatibilityGraph::Edge> addressSpace;
  std::vector<CompatibilityGraph::Edge> interface;
};

BruteForceGraph bruteForceGraph(const Flow& flow) {
  const auto& tensors = flow.program().tensors();
  const auto& statements = flow.schedule().statements;
  const LivenessInfo& liveness = flow.liveness();
  const auto readsBoth = [&](const sched::ScheduledStatement& stmt,
                             ir::TensorId a, ir::TensorId b) {
    std::vector<ir::TensorId> reads;
    for (const auto& read : stmt.reads)
      reads.push_back(read.tensor);
    if (stmt.needsInit && !stmt.innermostIsReduction())
      reads.push_back(stmt.write.tensor);
    const auto has = [&](ir::TensorId id) {
      return std::find(reads.begin(), reads.end(), id) != reads.end();
    };
    return has(a) && has(b);
  };
  BruteForceGraph graph;
  for (std::size_t i = 0; i < tensors.size(); ++i)
    for (std::size_t j = i + 1; j < tensors.size(); ++j) {
      const ir::TensorId a = tensors[i].id;
      const ir::TensorId b = tensors[j].id;
      if (!liveness.of(a).overlaps(liveness.of(b)))
        graph.addressSpace.emplace_back(a, b);
      if (std::none_of(statements.begin(), statements.end(),
                       [&](const sched::ScheduledStatement& stmt) {
                         return readsBoth(stmt, a, b);
                       }))
        graph.interface.emplace_back(a, b);
    }
  return graph;
}

TEST(CompatibilityTest, GraphMatchesItsDefinitionOnEveryPair) {
  for (const std::string& source :
       {std::string(test::kInverseHelmholtz), std::string(test::kRedundantSem),
        test::contractionChainSource(12)}) {
    const Flow flow = Flow::compile(source);
    const CompatibilityGraph& graph = flow.compatibilityGraph();
    const BruteForceGraph expected = bruteForceGraph(flow);
    const auto& tensors = flow.program().tensors();
    const auto contains = [](const std::vector<CompatibilityGraph::Edge>& edges,
                             ir::TensorId a, ir::TensorId b) {
      return std::find(edges.begin(), edges.end(),
                       CompatibilityGraph::Edge(std::min(a, b),
                                                std::max(a, b))) !=
             edges.end();
    };
    ASSERT_EQ(graph.nodes().size(), tensors.size());
    for (std::size_t i = 0; i < tensors.size(); ++i) {
      EXPECT_EQ(graph.nodes()[i], tensors[i].id);
      for (std::size_t j = 0; j < tensors.size(); ++j) {
        if (i == j)
          continue;
        const ir::TensorId a = tensors[i].id;
        const ir::TensorId b = tensors[j].id;
        EXPECT_EQ(graph.addressSpaceCompatible(a, b),
                  contains(expected.addressSpace, a, b))
            << tensors[i].name << " " << tensors[j].name;
        EXPECT_EQ(graph.interfaceCompatible(a, b),
                  contains(expected.interface, a, b))
            << tensors[i].name << " " << tensors[j].name;
      }
    }
    // Counts feed StageCache's byte estimate; the ascending enumeration
    // is what the store serializes.
    EXPECT_EQ(graph.numAddressSpaceEdges(), expected.addressSpace.size());
    EXPECT_EQ(graph.numInterfaceEdges(), expected.interface.size());
    EXPECT_EQ(graph.addressSpaceEdges(), expected.addressSpace);
    EXPECT_EQ(graph.interfaceEdges(), expected.interface);
  }
}

TEST(BramTest, GeometryChoices) {
  // 1331 x 64b: best is 512x72 mode -> 3 BRAM36.
  EXPECT_EQ(bram36For(1331, 64, BramPacking::ExactDepth), 3);
  // Power-of-two padding: 1331 -> 2048 -> 4 BRAM36.
  EXPECT_EQ(bram36For(1331, 64, BramPacking::Pow2Depth), 4);
  // 121 x 64b fits one BRAM36.
  EXPECT_EQ(bram36For(121, 64, BramPacking::ExactDepth), 1);
  // Narrow deep arrays prefer narrow modes: 4096 x 9b -> 1 BRAM36.
  EXPECT_EQ(bram36For(4096, 9, BramPacking::ExactDepth), 1);
  // 1024 x 36b -> 1 BRAM36.
  EXPECT_EQ(bram36For(1024, 36, BramPacking::ExactDepth), 1);
}

TEST(BramTest, NextPow2) {
  EXPECT_EQ(nextPow2(1), 1);
  EXPECT_EQ(nextPow2(2), 2);
  EXPECT_EQ(nextPow2(3), 4);
  EXPECT_EQ(nextPow2(1331), 2048);
  EXPECT_THROW(nextPow2(0), InternalError);
}

TEST(MnemosyneTest, SharingMergesTemporariesIntoTwoBuffers) {
  const Flow flow = compileHelmholtz();
  const MemoryPlan& plan = flow.memoryPlan();
  // 4 dedicated interface buffers + 2 shared temporary buffers.
  EXPECT_EQ(plan.buffers.size(), 6u);
  EXPECT_EQ(plan.plmBram36(), 16);
  EXPECT_EQ(plan.acceleratorBram36(), 0);
  // The two shared buffers carry 3 arrays each.
  int sharedBuffers = 0;
  for (const auto& buffer : plan.buffers)
    if (buffer.arrays.size() > 1) {
      ++sharedBuffers;
      EXPECT_EQ(buffer.arrays.size(), 3u);
      EXPECT_EQ(buffer.depth, 1331);
    }
  EXPECT_EQ(sharedBuffers, 2);
}

TEST(MnemosyneTest, SharedBuffersAreConflictFree) {
  const Flow flow = compileHelmholtz();
  const MemoryPlan& plan = flow.memoryPlan();
  const CompatibilityGraph& graph = flow.compatibilityGraph();
  for (const auto& buffer : plan.buffers)
    for (std::size_t i = 0; i < buffer.arrays.size(); ++i)
      for (std::size_t j = i + 1; j < buffer.arrays.size(); ++j)
        EXPECT_TRUE(graph.addressSpaceCompatible(buffer.arrays[i],
                                                 buffer.arrays[j]));
}

TEST(MnemosyneTest, NoSharingGivesDedicatedBuffers) {
  FlowOptions options;
  options.memory.enableSharing = false;
  const Flow flow = compileHelmholtz(options);
  const MemoryPlan& plan = flow.memoryPlan();
  EXPECT_EQ(plan.buffers.size(), 10u); // one per array (Fig. 6)
  EXPECT_EQ(plan.plmBram36(), 28);     // 1 + 9 * 3
  for (const auto& buffer : plan.buffers)
    EXPECT_EQ(buffer.arrays.size(), 1u);
}

TEST(MnemosyneTest, NonDecoupledKeepsTemporariesInside) {
  FlowOptions options;
  options.memory.decoupled = false;
  const Flow flow = compileHelmholtz(options);
  const MemoryPlan& plan = flow.memoryPlan();
  // Interface PLMs outside; t, r, t0..t3 inside with pow2 padding.
  EXPECT_EQ(plan.plmBram36(), 10);
  EXPECT_EQ(plan.acceleratorBram36(), 24); // 6 arrays * 4 BRAM36
  EXPECT_EQ(plan.totalBram36(), 34);
}

TEST(MnemosyneTest, BufferLookupByTensor) {
  const Flow flow = compileHelmholtz();
  const MemoryPlan& plan = flow.memoryPlan();
  const ir::Program& program = flow.program();
  for (const auto& tensor : program.tensors()) {
    const int index = plan.bufferIndexOf(tensor.id);
    ASSERT_GE(index, 0);
    const PlmBuffer& buffer =
        plan.buffers[static_cast<std::size_t>(index)];
    EXPECT_NE(std::find(buffer.arrays.begin(), buffer.arrays.end(),
                        tensor.id),
              buffer.arrays.end());
    EXPECT_GE(buffer.depth, tensor.type.numElements());
  }
}

TEST(MnemosyneTest, ConfigContainsAllSections) {
  const Flow flow = compileHelmholtz();
  const std::string config = flow.mnemosyneConfig();
  EXPECT_NE(config.find("[arrays]"), std::string::npos);
  EXPECT_NE(config.find("[access_patterns]"), std::string::npos);
  EXPECT_NE(config.find("[address_space_compatible]"), std::string::npos);
  EXPECT_NE(config.find("[interface_compatible]"), std::string::npos);
  EXPECT_NE(config.find("t0 depth=1331"), std::string::npos);
}

TEST(MnemosynePackingTest, SmallDegreePacksInterfaceCompatible) {
  // At extent 5 every array fits well under one 512-word bank, so the
  // interface-compatible interface arrays (e.g. S, D, v — never read by
  // the same statement) pack into shared physical BRAMs.
  FlowOptions packed;
  FlowOptions unpacked;
  unpacked.memory.packInterfaceCompatible = false;
  const Flow with = Flow::compile(test::inverseHelmholtzSource(5), packed);
  const Flow without =
      Flow::compile(test::inverseHelmholtzSource(5), unpacked);
  EXPECT_LT(with.memoryPlan().buffers.size(),
            without.memoryPlan().buffers.size());
  EXPECT_LE(with.memoryPlan().plmBram36(),
            without.memoryPlan().plmBram36());
  // Members of a packed buffer occupy disjoint address ranges.
  for (const auto& buffer : with.memoryPlan().buffers) {
    std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
    for (ir::TensorId id : buffer.arrays) {
      const std::int64_t base = with.memoryPlan().baseOffsetOf(id);
      const std::int64_t size =
          with.program().tensor(id).type.numElements();
      // Overlay members share base 0; packed members must not overlap
      // overlay groups from *other* source buffers.
      ranges.emplace_back(base, base + size);
    }
    for (std::size_t a = 0; a < ranges.size(); ++a)
      for (std::size_t b = a + 1; b < ranges.size(); ++b) {
        const bool disjoint = ranges[a].second <= ranges[b].first ||
                              ranges[b].second <= ranges[a].first;
        const bool overlaySharing =
            ranges[a].first == ranges[b].first; // same color class
        EXPECT_TRUE(disjoint || overlaySharing);
      }
  }
  EXPECT_LE(with.validate(), 1e-9);
}

TEST(MnemosynePackingTest, NoEffectAtPaperDegree) {
  // At p = 11 the arrays are 1,331 words: nothing fits a 512-word bank
  // together, so the paper's numbers are unaffected.
  FlowOptions packed;
  FlowOptions unpacked;
  unpacked.memory.packInterfaceCompatible = false;
  const Flow with = Flow::compile(test::kInverseHelmholtz, packed);
  const Flow without = Flow::compile(test::kInverseHelmholtz, unpacked);
  EXPECT_EQ(with.memoryPlan().plmBram36(),
            without.memoryPlan().plmBram36());
  EXPECT_EQ(with.memoryPlan().buffers.size(),
            without.memoryPlan().buffers.size());
}

// Property sweep: sharing never increases the BRAM count, across
// polynomial degrees.
class SharingProperty : public ::testing::TestWithParam<int> {};

TEST_P(SharingProperty, SharingNeverIncreasesBram) {
  const std::string source = test::inverseHelmholtzSource(GetParam());
  FlowOptions off;
  off.memory.enableSharing = false;
  const Flow with = Flow::compile(source);
  const Flow without = Flow::compile(source, off);
  EXPECT_LE(with.memoryPlan().plmBram36(),
            without.memoryPlan().plmBram36());
  // Sharing is transparent to correctness.
  EXPECT_LE(with.validate(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Degrees, SharingProperty,
                         ::testing::Values(3, 5, 7, 9, 11, 13));

} // namespace
} // namespace cfd::mem
