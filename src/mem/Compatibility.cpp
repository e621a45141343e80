#include "mem/Compatibility.h"

#include "support/Error.h"

#include <sstream>

namespace cfd::mem {

CompatibilityGraph::CompatibilityGraph(std::size_t numTensors)
    : numTensors_(numTensors), matrix_(numTensors * numTensors, 0) {}

void CompatibilityGraph::addEdge(ir::TensorId a, ir::TensorId b,
                                 std::uint8_t relation, std::size_t& count) {
  CFD_ASSERT(contains(a) && contains(b) && a != b,
             "compatibility edge needs two distinct tensors of the graph");
  const std::size_t ab = static_cast<std::size_t>(a) * numTensors_ +
                         static_cast<std::size_t>(b);
  const std::size_t ba = static_cast<std::size_t>(b) * numTensors_ +
                         static_cast<std::size_t>(a);
  if (matrix_[ab] & relation)
    return;
  matrix_[ab] |= relation;
  matrix_[ba] |= relation;
  ++count;
}

std::vector<CompatibilityGraph::Edge>
CompatibilityGraph::edges(std::uint8_t relation) const {
  std::vector<Edge> result;
  for (std::size_t a = 0; a < numTensors_; ++a)
    for (std::size_t b = a + 1; b < numTensors_; ++b)
      if (matrix_[a * numTensors_ + b] & relation)
        result.emplace_back(static_cast<ir::TensorId>(a),
                            static_cast<ir::TensorId>(b));
  return result;
}

std::string CompatibilityGraph::dot(const ir::Program& program) const {
  std::ostringstream os;
  os << "graph compatibility {\n";
  for (ir::TensorId id : nodes_) {
    const ir::Tensor& tensor = program.tensor(id);
    os << "  " << tensor.name;
    if (tensor.isInterface())
      os << " [shape=box]";
    os << ";\n";
  }
  for (const auto& [a, b] : addressSpaceEdges())
    os << "  " << program.tensor(a).name << " -- " << program.tensor(b).name
       << ";\n";
  for (const auto& [a, b] : interfaceEdges())
    os << "  " << program.tensor(a).name << " -- " << program.tensor(b).name
       << " [style=dashed];\n";
  os << "}\n";
  return os.str();
}

CompatibilityGraph buildCompatibilityGraph(const sched::Schedule& schedule,
                                           const LivenessInfo& liveness) {
  CFD_ASSERT(schedule.program != nullptr, "schedule without program");
  const ir::Program& program = *schedule.program;
  const std::size_t n = program.tensors().size();
  CompatibilityGraph graph(n);
  std::vector<LiveInterval> live;
  live.reserve(n);
  for (const auto& tensor : program.tensors()) {
    graph.addNode(tensor.id);
    live.push_back(liveness.of(tensor.id));
  }

  // Interface conflicts: pairs that one statement reads in its steady
  // state. Read-modify-write accumulation (no register accumulator) also
  // reads the target each iteration. Every statement writes a single
  // array, so no statement writes two.
  std::vector<bool> coRead(n * n, false);
  std::vector<ir::TensorId> reads;
  for (const auto& stmt : schedule.statements) {
    reads.clear();
    for (const auto& read : stmt.reads)
      reads.push_back(read.tensor);
    if (stmt.needsInit && !stmt.innermostIsReduction())
      reads.push_back(stmt.write.tensor);
    for (ir::TensorId a : reads)
      for (ir::TensorId b : reads)
        coRead[static_cast<std::size_t>(a) * n +
               static_cast<std::size_t>(b)] = true;
  }

  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const auto ida = static_cast<ir::TensorId>(a);
      const auto idb = static_cast<ir::TensorId>(b);
      if (!live[a].overlaps(live[b]))
        graph.addAddressSpaceEdge(ida, idb);
      if (!coRead[a * n + b])
        graph.addInterfaceEdge(ida, idb);
    }
  }
  return graph;
}

} // namespace cfd::mem
