#include "sched/Layout.h"

#include "support/Error.h"
#include "support/Hash.h"

namespace cfd::sched {

std::uint64_t LayoutOptions::fingerprint() const {
  Fnv1aHasher h;
  h.mix(std::string_view("sched::LayoutOptions"));
  h.mix(defaultLayout);
  h.mix(static_cast<std::uint64_t>(perTensor.size()));
  for (const auto& [name, kind] : perTensor) {
    h.mix(std::string_view(name));
    h.mix(kind);
  }
  h.mix(static_cast<std::uint64_t>(partitions.size()));
  for (const auto& [name, spec] : partitions) {
    h.mix(std::string_view(name));
    h.mix(spec.kind);
    h.mix(spec.dim);
    h.mix(spec.factor);
  }
  return h.value();
}

LayoutAssignment LayoutAssignment::materialize(const ir::Program& program,
                                               const LayoutOptions& options) {
  LayoutAssignment assignment;
  assignment.layouts_.reserve(program.tensors().size());
  for (const auto& tensor : program.tensors()) {
    // Tensor ids are their positions (ir::Program::addTensor).
    CFD_ASSERT(tensor.id == static_cast<ir::TensorId>(
                                assignment.layouts_.size()),
               "tensor ids must be dense");
    LayoutKind kind = options.defaultLayout;
    if (const auto it = options.perTensor.find(tensor.name);
        it != options.perTensor.end())
      kind = it->second;
    Layout layout;
    layout.map = kind == LayoutKind::RowMajor
                     ? poly::AffineMap::rowMajorLayout(tensor.type.shape)
                     : poly::AffineMap::columnMajorLayout(tensor.type.shape);
    layout.sizeInElements = tensor.type.numElements();
    if (const auto it = options.partitions.find(tensor.name);
        it != options.partitions.end()) {
      const PartitionSpec& spec = it->second;
      CFD_ASSERT(spec.factor >= 1, "partition factor must be >= 1");
      CFD_ASSERT(spec.kind == PartitionSpec::Kind::None ||
                     (spec.dim >= 0 && spec.dim < tensor.type.rank()),
                 "partition dim out of range for " + tensor.name);
      layout.partition = spec;
    }
    assignment.layouts_.push_back(std::move(layout));
  }
  return assignment;
}

const Layout& LayoutAssignment::layoutOf(ir::TensorId id) const {
  CFD_ASSERT(has(id), "no layout for tensor");
  return layouts_[static_cast<std::size_t>(id)];
}

poly::AffineExpr LayoutAssignment::flatOffset(const ir::Access& access) const {
  const poly::AffineMap& layout = layoutOf(access.tensor).map;
  CFD_ASSERT(layout.numResults() == 1, "layout must be one-dimensional");
  return layout.result(0).substitute(access.map.results(),
                                     access.map.numDims());
}

std::int64_t LayoutAssignment::strideOf(const ir::Access& access,
                                        int domainDim) const {
  // The coefficient of the domain dim in the flat offset expression.
  return flatOffset(access).coefficient(domainDim);
}

} // namespace cfd::sched
