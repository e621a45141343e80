// Layout materialization (paper §IV-D, step ii).
//
// Every tensor is mapped to a one-dimensional array through an affine
// layout expression. Layouts are model-driven (selected through options
// rather than derived from the schedule), which lets the flow adapt to
// external constraints such as the host memory layout, and lets later
// stages reason about partitions.
#pragma once

#include "ir/TensorIR.h"
#include "poly/AffineMap.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cfd::sched {

enum class LayoutKind {
  RowMajor,    // C99 innermost-last (the paper's default)
  ColumnMajor, // Fortran innermost-first (host-interface reshaping)
};

/// How an array is split into physical banks for parallel port access.
/// None keeps a single bank. Cyclic(dim, factor) interleaves consecutive
/// indices of `dim` across `factor` banks (HLS ARRAY_PARTITION cyclic).
struct PartitionSpec {
  enum class Kind { None, Cyclic, Block } kind = Kind::None;
  int dim = 0;
  int factor = 1;

  friend bool operator==(const PartitionSpec&,
                         const PartitionSpec&) = default;
};

struct LayoutOptions {
  LayoutKind defaultLayout = LayoutKind::RowMajor;
  std::map<std::string, LayoutKind> perTensor;
  std::map<std::string, PartitionSpec> partitions;

  /// Stable 64-bit structural hash (DESIGN.md §9): maps are mixed in
  /// their sorted iteration order, so insertion order never leaks into
  /// the value. Feeds the per-stage cache keys of core/Pipeline.
  std::uint64_t fingerprint() const;
  friend bool operator==(const LayoutOptions&,
                         const LayoutOptions&) = default;
};

/// The materialized layout of one tensor.
struct Layout {
  poly::AffineMap map;          // tensor index space -> flat offset
  std::int64_t sizeInElements = 0;
  PartitionSpec partition;
};

/// Layouts for every tensor in a program, indexed by tensor id.
class LayoutAssignment {
public:
  static LayoutAssignment materialize(const ir::Program& program,
                                      const LayoutOptions& options = {});

  const Layout& layoutOf(ir::TensorId id) const;
  bool has(ir::TensorId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < layouts_.size();
  }

  /// The flat offset `access` reads or writes, over the access's own
  /// domain: its tensor's layout composed with the access map.
  poly::AffineExpr flatOffset(const ir::Access& access) const;

  /// Element stride of `access` along `domainDim` under this assignment:
  /// how far the flat offset moves when the domain dim advances by one.
  std::int64_t strideOf(const ir::Access& access, int domainDim) const;

private:
  std::vector<Layout> layouts_;
};

} // namespace cfd::sched
