// Memory compatibility graph (paper Fig. 5 and §IV-F).
//
// Two compatibility relations between arrays drive Mnemosyne's sharing:
//
//  * address-space compatible: lifetimes never overlap over the entire
//    accelerator execution, so both arrays may occupy the *same* storage;
//  * memory-interface compatible: a total temporal ordering of their
//    memory operations exists in which the same operation type (read or
//    write) never occurs on both at the same time, so both arrays may
//    share physical ports/banks while keeping disjoint address ranges.
//
// At statement granularity (statements execute one after another), the
// interface relation reduces to: no single statement reads both arrays in
// its steady state, and no single statement writes both. Read-modify-
// write accumulation makes the target both read and written.
#pragma once

#include "mem/Liveness.h"
#include "support/Error.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cfd::mem {

/// Both relations over tensor ids [0, numTensors), stored as one dense
/// symmetric matrix so a pair lookup is a single load.
class CompatibilityGraph {
public:
  using Edge = std::pair<ir::TensorId, ir::TensorId>;

  CompatibilityGraph() = default;

  const std::vector<ir::TensorId>& nodes() const { return nodes_; }

  bool addressSpaceCompatible(ir::TensorId a, ir::TensorId b) const {
    return (relations(a, b) & kAddressSpace) != 0;
  }
  bool interfaceCompatible(ir::TensorId a, ir::TensorId b) const {
    return (relations(a, b) & kInterface) != 0;
  }

  std::size_t numAddressSpaceEdges() const { return numAddressSpaceEdges_; }
  std::size_t numInterfaceEdges() const { return numInterfaceEdges_; }

  /// Edge enumeration, each pair smaller-id-first, in ascending order.
  std::vector<Edge> addressSpaceEdges() const { return edges(kAddressSpace); }
  std::vector<Edge> interfaceEdges() const { return edges(kInterface); }

  /// Graphviz rendering (solid = address-space, dashed = interface).
  std::string dot(const ir::Program& program) const;

private:
  /// The only way to fill a graph, compiled or decoded from the store.
  friend CompatibilityGraph buildCompatibilityGraph(
      const sched::Schedule& schedule, const LivenessInfo& liveness);

  /// A graph with no nodes and no edges over tensor ids [0, numTensors).
  explicit CompatibilityGraph(std::size_t numTensors);

  void addNode(ir::TensorId id) { nodes_.push_back(id); }
  /// `a` and `b` must be distinct ids of the graph; adding an
  /// existing edge is a no-op.
  void addAddressSpaceEdge(ir::TensorId a, ir::TensorId b) {
    addEdge(a, b, kAddressSpace, numAddressSpaceEdges_);
  }
  void addInterfaceEdge(ir::TensorId a, ir::TensorId b) {
    addEdge(a, b, kInterface, numInterfaceEdges_);
  }

  static constexpr std::uint8_t kAddressSpace = 1;
  static constexpr std::uint8_t kInterface = 2;

  std::uint8_t relations(ir::TensorId a, ir::TensorId b) const {
    CFD_ASSERT(contains(a) && contains(b), "tensor id outside the graph");
    return matrix_[static_cast<std::size_t>(a) * numTensors_ +
                   static_cast<std::size_t>(b)];
  }
  bool contains(ir::TensorId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < numTensors_;
  }
  void addEdge(ir::TensorId a, ir::TensorId b, std::uint8_t relation,
               std::size_t& count);
  std::vector<Edge> edges(std::uint8_t relation) const;

  std::size_t numTensors_ = 0;
  std::vector<ir::TensorId> nodes_;
  /// numTensors_ x numTensors_ relation bits, row-major, symmetric.
  std::vector<std::uint8_t> matrix_;
  std::size_t numAddressSpaceEdges_ = 0;
  std::size_t numInterfaceEdges_ = 0;
};

/// Builds the compatibility graph of `schedule` from liveness and the
/// per-statement access sets. Every tensor id the schedule's accesses
/// name must index its program; the store codec checks that before it
/// rebuilds a decoded prefix's graph with this call (the graph itself
/// is not stored).
CompatibilityGraph buildCompatibilityGraph(const sched::Schedule& schedule,
                                           const LivenessInfo& liveness);

} // namespace cfd::mem
