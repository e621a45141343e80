#include "mem/Mnemosyne.h"

#include "support/Error.h"
#include "support/Format.h"
#include "support/Hash.h"
#include "support/TextBuilder.h"

#include <algorithm>
#include <sstream>

namespace cfd::mem {

std::uint64_t MemoryPlanOptions::fingerprint() const {
  Fnv1aHasher h;
  h.mix(std::string_view("mem::MemoryPlanOptions"));
  h.mix(enableSharing);
  h.mix(decoupled);
  h.mix(wordBits);
  h.mix(banks);
  h.mix(packInterfaceCompatible);
  return h.value();
}

int MemoryPlan::totalBram36() const {
  int total = 0;
  for (const auto& buffer : buffers)
    total += buffer.bram36;
  return total;
}

int MemoryPlan::plmBram36() const {
  int total = 0;
  for (const auto& buffer : buffers)
    if (!buffer.insideAccelerator)
      total += buffer.bram36;
  return total;
}

int MemoryPlan::acceleratorBram36() const {
  int total = 0;
  for (const auto& buffer : buffers)
    if (buffer.insideAccelerator)
      total += buffer.bram36;
  return total;
}

int MemoryPlan::bufferIndexOf(ir::TensorId id) const {
  CFD_ASSERT(id >= 0 && id < static_cast<int>(bufferOf.size()),
             "tensor id out of range");
  return bufferOf[static_cast<std::size_t>(id)];
}

std::int64_t MemoryPlan::baseOffsetOf(ir::TensorId id) const {
  CFD_ASSERT(id >= 0 && id < static_cast<int>(baseOffsets.size()),
             "tensor id out of range");
  return baseOffsets[static_cast<std::size_t>(id)];
}

std::string MemoryPlan::str(const ir::Program& program) const {
  std::ostringstream os;
  for (const auto& buffer : buffers) {
    os << buffer.name << ": depth=" << buffer.depth << " width="
       << buffer.widthBits << "b ";
    if (buffer.lutram)
      os << "LUTRAM";
    else
      os << buffer.bram36 << " BRAM36";
    if (buffer.insideAccelerator)
      os << " (inside accelerator)";
    os << " <-";
    for (ir::TensorId id : buffer.arrays)
      os << " " << program.tensor(id).name;
    os << "\n";
  }
  os << "total: " << totalBram36() << " BRAM36 (PLM " << plmBram36()
     << ", accelerator " << acceleratorBram36() << ")\n";
  return os.str();
}

namespace {

/// Steady-state port requirements of each tensor: maximum simultaneous
/// reads/writes any pipelined statement issues per cycle.
struct PortNeeds {
  int reads = 1;
  int writes = 1;
};

PortNeeds portNeedsOf(const sched::Schedule& schedule, ir::TensorId id) {
  PortNeeds needs;
  for (const auto& stmt : schedule.statements) {
    int reads = 0;
    for (const auto& read : stmt.reads)
      if (read.tensor == id)
        ++reads;
    if (stmt.needsInit && !stmt.innermostIsReduction() &&
        stmt.write.tensor == id)
      ++reads; // read-modify-write accumulation
    needs.reads = std::max(needs.reads, reads);
  }
  return needs;
}

} // namespace

MemoryPlan planMemory(const sched::Schedule& schedule,
                      const CompatibilityGraph& graph,
                      const MemoryPlanOptions& options) {
  CFD_ASSERT(schedule.program != nullptr, "schedule without program");
  const ir::Program& program = *schedule.program;
  MemoryPlan plan;
  plan.bufferOf.assign(program.tensors().size(), -1);
  plan.baseOffsets.assign(program.tensors().size(), 0);

  // Partition tensors into interface arrays, shareable exported arrays,
  // and (when not decoupled) accelerator-internal temporaries.
  std::vector<ir::TensorId> interfaceArrays;
  std::vector<ir::TensorId> exported;
  std::vector<ir::TensorId> internal;
  for (const auto& tensor : program.tensors()) {
    if (tensor.isInterface())
      interfaceArrays.push_back(tensor.id);
    else if (options.decoupled)
      exported.push_back(tensor.id);
    else
      internal.push_back(tensor.id);
  }

  CFD_ASSERT(options.banks >= 1 &&
                 (options.banks & (options.banks - 1)) == 0,
             "bank count must be a power of two");

  // Cyclic banking: each bank holds ceil(depth / banks) words.
  const auto bankedBram36 = [&](std::int64_t depth, BramPacking packing) {
    const std::int64_t perBank =
        (depth + options.banks - 1) / options.banks;
    return options.banks * bram36For(perBank, options.wordBits, packing);
  };

  const auto addDedicated = [&](ir::TensorId id, bool inside) {
    const ir::Tensor& tensor = program.tensor(id);
    PlmBuffer buffer;
    buffer.name = tensor.name;
    buffer.arrays = {id};
    buffer.depth = tensor.type.numElements();
    buffer.widthBits = options.wordBits;
    buffer.insideAccelerator = inside;
    buffer.banks = options.banks;
    if (inside && buffer.depth <= kLutramElementThreshold) {
      buffer.lutram = true;
      buffer.bram36 = 0;
    } else {
      buffer.bram36 = bankedBram36(
          buffer.depth,
          inside ? BramPacking::Pow2Depth : BramPacking::ExactDepth);
    }
    const PortNeeds needs = portNeedsOf(schedule, id);
    buffer.readPorts = needs.reads;
    buffer.writePorts = needs.writes;
    plan.bufferOf[static_cast<std::size_t>(id)] =
        static_cast<int>(plan.buffers.size());
    plan.buffers.push_back(std::move(buffer));
  };

  // Interface arrays always get dedicated, externally addressable PLMs.
  for (ir::TensorId id : interfaceArrays)
    addDedicated(id, /*inside=*/false);

  if (options.enableSharing && !exported.empty()) {
    // Greedy coloring of the conflict graph (complement of address-space
    // compatibility), largest arrays first so each color class is sized
    // by its first member.
    std::vector<ir::TensorId> order = exported;
    std::sort(order.begin(), order.end(), [&](ir::TensorId a,
                                              ir::TensorId b) {
      const std::int64_t sa = program.tensor(a).type.numElements();
      const std::int64_t sb = program.tensor(b).type.numElements();
      return sa != sb ? sa > sb : a < b;
    });
    std::vector<std::vector<ir::TensorId>> classes;
    for (ir::TensorId id : order) {
      bool placed = false;
      for (auto& cls : classes) {
        const bool compatible = std::all_of(
            cls.begin(), cls.end(), [&](ir::TensorId member) {
              return graph.addressSpaceCompatible(id, member);
            });
        if (compatible) {
          cls.push_back(id);
          placed = true;
          break;
        }
      }
      if (!placed)
        classes.push_back({id});
    }
    int index = 0;
    for (const auto& cls : classes) {
      PlmBuffer buffer;
      buffer.name = "plm" + std::to_string(index++);
      buffer.arrays = cls;
      buffer.widthBits = options.wordBits;
      buffer.banks = options.banks;
      for (ir::TensorId id : cls) {
        buffer.depth = std::max(buffer.depth,
                                program.tensor(id).type.numElements());
        const PortNeeds needs = portNeedsOf(schedule, id);
        buffer.readPorts = std::max(buffer.readPorts, needs.reads);
        buffer.writePorts = std::max(buffer.writePorts, needs.writes);
        plan.bufferOf[static_cast<std::size_t>(id)] =
            static_cast<int>(plan.buffers.size());
      }
      buffer.bram36 = bankedBram36(buffer.depth, BramPacking::ExactDepth);
      plan.buffers.push_back(std::move(buffer));
    }
  } else {
    for (ir::TensorId id : exported)
      addDedicated(id, /*inside=*/false);
  }

  for (ir::TensorId id : internal)
    addDedicated(id, /*inside=*/true);

  // ---- Interface packing: merge whole buffers whose members are all
  // pairwise memory-interface compatible into one physical bank when the
  // combined footprint stays within a single 512-word BRAM36 row.
  if (options.packInterfaceCompatible && options.banks == 1) {
    constexpr std::int64_t kBankDepth = 512;
    for (std::size_t i = 0; i < plan.buffers.size(); ++i) {
      PlmBuffer& host = plan.buffers[i];
      if (host.insideAccelerator || host.lutram)
        continue;
      for (std::size_t j = i + 1; j < plan.buffers.size();) {
        PlmBuffer& candidate = plan.buffers[j];
        const bool mergeable =
            !candidate.insideAccelerator && !candidate.lutram &&
            host.depth + candidate.depth <= kBankDepth &&
            std::all_of(host.arrays.begin(), host.arrays.end(),
                        [&](ir::TensorId a) {
                          return std::all_of(
                              candidate.arrays.begin(),
                              candidate.arrays.end(), [&](ir::TensorId b) {
                                return graph.interfaceCompatible(a, b);
                              });
                        });
        if (!mergeable) {
          ++j;
          continue;
        }
        // Candidate arrays move behind the host's current range.
        for (ir::TensorId id : candidate.arrays) {
          plan.baseOffsets[static_cast<std::size_t>(id)] += host.depth;
          plan.bufferOf[static_cast<std::size_t>(id)] =
              static_cast<int>(i);
          host.arrays.push_back(id);
        }
        host.depth += candidate.depth;
        host.readPorts = std::max(host.readPorts, candidate.readPorts);
        host.writePorts = std::max(host.writePorts, candidate.writePorts);
        host.bram36 = bram36For(host.depth, host.widthBits,
                                BramPacking::ExactDepth);
        plan.buffers.erase(plan.buffers.begin() +
                           static_cast<std::ptrdiff_t>(j));
        // Renumber bufferOf entries past the erased buffer.
        for (auto& index : plan.bufferOf)
          if (index > static_cast<int>(j))
            --index;
      }
    }
  }

  return plan;
}

std::string emitMnemosyneConfig(const sched::Schedule& schedule,
                                const CompatibilityGraph& graph,
                                const LivenessInfo& liveness) {
  CFD_ASSERT(schedule.program != nullptr, "schedule without program");
  const ir::Program& program = *schedule.program;
  const auto& nodes = graph.nodes();
  TextBuilder out(256 + 80 * program.tensors().size() +
                  48 * schedule.statements.size() +
                  8 * nodes.size() * nodes.size());
  out << "# Mnemosyne configuration generated by the CFDlang compiler\n"
      << "# (array definitions, access patterns, compatibilities)\n"
      << "[arrays]\n";
  for (const auto& tensor : program.tensors()) {
    const auto& interval = liveness.of(tensor.id);
    out << tensor.name << " depth=" << tensor.type.numElements()
        << " width=64 kind=" << ir::tensorKindName(tensor.kind) << " live=["
        << interval.begin << ',' << interval.end << "]\n";
  }
  out << "[access_patterns]\n";
  for (const auto& stmt : schedule.statements) {
    out << stmt.name << " writes " << program.tensor(stmt.write.tensor).name
        << " reads";
    for (const auto& read : stmt.reads)
      out << ' ' << program.tensor(read.tensor).name;
    if (stmt.needsInit && !stmt.innermostIsReduction())
      out << " rmw";
    out << '\n';
  }
  const auto appendPairs = [&](bool addressSpace) {
    for (std::size_t i = 0; i < nodes.size(); ++i)
      for (std::size_t j = i + 1; j < nodes.size(); ++j)
        if (addressSpace
                ? graph.addressSpaceCompatible(nodes[i], nodes[j])
                : graph.interfaceCompatible(nodes[i], nodes[j]))
          out << program.tensor(nodes[i]).name << ' '
              << program.tensor(nodes[j]).name << '\n';
  };
  out << "[address_space_compatible]\n";
  appendPairs(/*addressSpace=*/true);
  out << "[interface_compatible]\n";
  appendPairs(/*addressSpace=*/false);
  return out.take();
}

} // namespace cfd::mem
