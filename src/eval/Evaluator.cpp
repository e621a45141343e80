#include "eval/Evaluator.h"

#include "support/Error.h"

#include <algorithm>
#include <cmath>

namespace cfd::eval {

DenseTensor DenseTensor::zeros(std::vector<std::int64_t> shape) {
  DenseTensor tensor;
  tensor.shape = std::move(shape);
  tensor.data.assign(static_cast<std::size_t>(tensor.numElements()), 0.0);
  return tensor;
}

std::int64_t DenseTensor::numElements() const {
  std::int64_t n = 1;
  for (std::int64_t extent : shape)
    n *= extent;
  return n;
}

namespace {
std::int64_t rowMajorOffset(std::span<const std::int64_t> shape,
                            std::span<const std::int64_t> index) {
  CFD_ASSERT(shape.size() == index.size(), "index rank mismatch");
  std::int64_t offset = 0;
  for (std::size_t d = 0; d < shape.size(); ++d)
    offset = offset * shape[d] + index[d];
  return offset;
}
} // namespace

double& DenseTensor::at(std::span<const std::int64_t> index) {
  return data[static_cast<std::size_t>(rowMajorOffset(shape, index))];
}

double DenseTensor::at(std::span<const std::int64_t> index) const {
  return data[static_cast<std::size_t>(rowMajorOffset(shape, index))];
}

TensorStore::TensorStore(const ir::Program& program,
                         const sched::LayoutAssignment& layouts)
    : program_(&program), layouts_(&layouts) {
  for (const auto& tensor : program.tensors()) {
    const auto& layout = layouts.layoutOf(tensor.id);
    buffers_[tensor.id].assign(
        static_cast<std::size_t>(layout.sizeInElements), 0.0);
  }
}

std::vector<double>& TensorStore::buffer(ir::TensorId id) {
  const auto it = buffers_.find(id);
  CFD_ASSERT(it != buffers_.end(), "no buffer for tensor");
  return it->second;
}

const std::vector<double>& TensorStore::buffer(ir::TensorId id) const {
  const auto it = buffers_.find(id);
  CFD_ASSERT(it != buffers_.end(), "no buffer for tensor");
  return it->second;
}

double TensorStore::load(ir::TensorId id, std::int64_t flatOffset) const {
  const auto& buf = buffer(id);
  CFD_ASSERT(flatOffset >= 0 &&
                 flatOffset < static_cast<std::int64_t>(buf.size()),
             "load out of bounds");
  return buf[static_cast<std::size_t>(flatOffset)];
}

void TensorStore::store(ir::TensorId id, std::int64_t flatOffset,
                        double value) {
  auto& buf = buffer(id);
  CFD_ASSERT(flatOffset >= 0 &&
                 flatOffset < static_cast<std::int64_t>(buf.size()),
             "store out of bounds");
  buf[static_cast<std::size_t>(flatOffset)] = value;
}

void TensorStore::import(ir::TensorId id, const DenseTensor& value) {
  const ir::Tensor& tensor = program_->tensor(id);
  CFD_ASSERT(tensor.type.shape == value.shape,
             "import shape mismatch on " + tensor.name);
  const poly::AffineExpr& offset = layouts_->layoutOf(id).map.result(0);
  poly::Box::fromShape(tensor.type.shape)
      .forEachPoint([&](std::span<const std::int64_t> index) {
        store(id, offset.evaluate(index), value.at(index));
      });
}

DenseTensor TensorStore::exportTensor(ir::TensorId id) const {
  const ir::Tensor& tensor = program_->tensor(id);
  DenseTensor out = DenseTensor::zeros(tensor.type.shape);
  const poly::AffineExpr& offset = layouts_->layoutOf(id).map.result(0);
  poly::Box::fromShape(tensor.type.shape)
      .forEachPoint([&](std::span<const std::int64_t> index) {
        out.at(index) = load(id, offset.evaluate(index));
      });
  return out;
}

OpCounts& OpCounts::operator+=(const OpCounts& other) {
  fmul += other.fmul;
  fadd += other.fadd;
  fdiv += other.fdiv;
  loads += other.loads;
  stores += other.stores;
  loopIterations += other.loopIterations;
  statements += other.statements;
  return *this;
}

namespace {

/// An access bound once per statement: its flat offset over the loop
/// space, which evaluates per point without allocating.
struct BoundAccess {
  ir::TensorId tensor;
  poly::AffineExpr flat; // loop space -> flat offset
};

BoundAccess bind(const sched::LayoutAssignment& layouts,
                 const ir::Access& access) {
  return {access.tensor, layouts.flatOffset(access)};
}

} // namespace

OpCounts execute(const sched::Schedule& schedule, TensorStore& store) {
  CFD_ASSERT(schedule.program != nullptr, "schedule without program");
  OpCounts counts;

  for (const auto& stmt : schedule.statements) {
    ++counts.statements;
    const BoundAccess write = bind(schedule.layouts, stmt.write);
    std::vector<BoundAccess> reads;
    reads.reserve(stmt.reads.size());
    for (const auto& read : stmt.reads)
      reads.push_back(bind(schedule.layouts, read));

    // Zero-initialize accumulation targets over their index space.
    if (stmt.needsInit) {
      const auto& target = schedule.program->tensor(stmt.write.tensor);
      const poly::AffineExpr& offset =
          schedule.layouts.layoutOf(stmt.write.tensor).map.result(0);
      target.type.indexSpace().forEachPoint(
          [&](std::span<const std::int64_t> index) {
            store.store(stmt.write.tensor, offset.evaluate(index), 0.0);
            ++counts.stores;
          });
    }

    std::vector<std::int64_t> extents;
    extents.reserve(stmt.loops.size());
    for (const auto& loop : stmt.loops)
      extents.push_back(loop.extent);
    const poly::Box loopBox = poly::Box::fromShape(extents);

    const bool registerAccumulator =
        stmt.kind == ir::OpKind::Contract && stmt.needsInit &&
        stmt.innermostIsReduction();

    double accumulator = 0.0;
    std::int64_t accumulatorOffset = -1;

    loopBox.forEachPoint([&](std::span<const std::int64_t> point) {
      ++counts.loopIterations;
      switch (stmt.kind) {
      case ir::OpKind::Contract: {
        const double a = store.load(reads[0].tensor,
                                    reads[0].flat.evaluate(point));
        const double b = store.load(reads[1].tensor,
                                    reads[1].flat.evaluate(point));
        counts.loads += 2;
        const double product = a * b;
        ++counts.fmul;
        if (!stmt.needsInit) {
          // Pure outer product: direct store.
          store.store(write.tensor, write.flat.evaluate(point), product);
          ++counts.stores;
          break;
        }
        const std::int64_t offset = write.flat.evaluate(point);
        if (registerAccumulator) {
          // Innermost loop is the (single innermost) reduction: keep the
          // partial sum in a register as compiled CPU code would.
          if (offset != accumulatorOffset) {
            if (accumulatorOffset >= 0) {
              store.store(write.tensor, accumulatorOffset, accumulator);
              ++counts.stores;
            }
            accumulator = store.load(write.tensor, offset);
            ++counts.loads;
            accumulatorOffset = offset;
          }
          accumulator += product;
          ++counts.fadd;
        } else {
          // Read-modify-write through the target array (the PLM-style
          // accumulation of the hardware schedule).
          const double current = store.load(write.tensor, offset);
          ++counts.loads;
          store.store(write.tensor, offset, current + product);
          ++counts.fadd;
          ++counts.stores;
        }
        break;
      }
      case ir::OpKind::EntryWise: {
        const double a = store.load(reads[0].tensor,
                                    reads[0].flat.evaluate(point));
        const double b = store.load(reads[1].tensor,
                                    reads[1].flat.evaluate(point));
        counts.loads += 2;
        double value = 0.0;
        switch (stmt.entryWise) {
        case ir::EntryWiseKind::Add:
          value = a + b;
          ++counts.fadd;
          break;
        case ir::EntryWiseKind::Sub:
          value = a - b;
          ++counts.fadd;
          break;
        case ir::EntryWiseKind::Mul:
          value = a * b;
          ++counts.fmul;
          break;
        case ir::EntryWiseKind::Div:
          value = a / b;
          ++counts.fdiv;
          break;
        }
        store.store(write.tensor, write.flat.evaluate(point), value);
        ++counts.stores;
        break;
      }
      case ir::OpKind::Copy: {
        const double value = store.load(reads[0].tensor,
                                        reads[0].flat.evaluate(point));
        ++counts.loads;
        store.store(write.tensor, write.flat.evaluate(point), value);
        ++counts.stores;
        break;
      }
      case ir::OpKind::Fill: {
        store.store(write.tensor, write.flat.evaluate(point),
                    stmt.scalar);
        ++counts.stores;
        break;
      }
      }
    });
    if (registerAccumulator && accumulatorOffset >= 0) {
      store.store(write.tensor, accumulatorOffset, accumulator);
      ++counts.stores;
    }
  }
  return counts;
}

namespace {

DenseTensor evaluateExpr(const dsl::Expr& expr,
                         std::map<std::string, DenseTensor>& values);

DenseTensor evaluateEntryWise(const dsl::Expr& expr,
                              std::map<std::string, DenseTensor>& values) {
  DenseTensor lhs = evaluateExpr(*expr.operands[0], values);
  DenseTensor rhs = evaluateExpr(*expr.operands[1], values);
  // Broadcast scalars.
  const bool lhsScalar = lhs.shape.empty();
  const bool rhsScalar = rhs.shape.empty();
  DenseTensor out = DenseTensor::zeros(lhsScalar ? rhs.shape : lhs.shape);
  for (std::size_t i = 0; i < out.data.size(); ++i) {
    const double a = lhsScalar ? lhs.data[0] : lhs.data[i];
    const double b = rhsScalar ? rhs.data[0] : rhs.data[i];
    switch (expr.kind) {
    case dsl::ExprKind::Add:
      out.data[i] = a + b;
      break;
    case dsl::ExprKind::Sub:
      out.data[i] = a - b;
      break;
    case dsl::ExprKind::Mul:
      out.data[i] = a * b;
      break;
    case dsl::ExprKind::Div:
      out.data[i] = a / b;
      break;
    default:
      CFD_UNREACHABLE("not an entry-wise op");
    }
  }
  return out;
}

/// Direct contraction semantics: iterate output dims x reduced dims,
/// evaluating the factor product at each point (no factorization).
DenseTensor evaluateContraction(const dsl::Expr& product,
                                const std::vector<dsl::IndexPair>& pairs,
                                std::map<std::string, DenseTensor>& values) {
  std::vector<DenseTensor> factors;
  std::vector<std::int64_t> globalShape;
  for (const auto& operand : product.operands) {
    factors.push_back(evaluateExpr(*operand, values));
    globalShape.insert(globalShape.end(), factors.back().shape.begin(),
                       factors.back().shape.end());
  }
  const int globalRank = static_cast<int>(globalShape.size());

  std::vector<bool> reduced(static_cast<std::size_t>(globalRank), false);
  for (const auto& pair : pairs) {
    reduced[static_cast<std::size_t>(pair.first)] = true;
    reduced[static_cast<std::size_t>(pair.second)] = true;
  }
  std::vector<int> freeDims, redDims;
  for (int d = 0; d < globalRank; ++d)
    (reduced[static_cast<std::size_t>(d)] ? redDims : freeDims).push_back(d);

  std::vector<std::int64_t> outShape, redShape;
  for (int d : freeDims)
    outShape.push_back(globalShape[static_cast<std::size_t>(d)]);
  // One reduction index per *pair*; both pair ends share it.
  for (const auto& pair : pairs)
    redShape.push_back(globalShape[static_cast<std::size_t>(pair.first)]);

  DenseTensor out = DenseTensor::zeros(outShape);

  std::vector<std::int64_t> globalIndex(
      static_cast<std::size_t>(globalRank), 0);
  poly::Box::fromShape(outShape).forEachPoint(
      [&](std::span<const std::int64_t> freeIndex) {
        for (std::size_t p = 0; p < freeDims.size(); ++p)
          globalIndex[static_cast<std::size_t>(freeDims[p])] = freeIndex[p];
        double sum = 0.0;
        poly::Box::fromShape(redShape).forEachPoint(
            [&](std::span<const std::int64_t> redIndex) {
              for (std::size_t q = 0; q < pairs.size(); ++q) {
                globalIndex[static_cast<std::size_t>(pairs[q].first)] =
                    redIndex[q];
                globalIndex[static_cast<std::size_t>(pairs[q].second)] =
                    redIndex[q];
              }
              double term = 1.0;
              std::size_t base = 0;
              for (const auto& factor : factors) {
                term *= factor.at(std::span<const std::int64_t>(
                    globalIndex.data() + base, factor.shape.size()));
                base += factor.shape.size();
              }
              sum += term;
            });
        out.at(freeIndex) = sum;
      });
  return out;
}

DenseTensor evaluateExpr(const dsl::Expr& expr,
                         std::map<std::string, DenseTensor>& values) {
  switch (expr.kind) {
  case dsl::ExprKind::Ident: {
    const auto it = values.find(expr.name);
    CFD_ASSERT(it != values.end(), "missing value for " + expr.name);
    return it->second;
  }
  case dsl::ExprKind::Number: {
    DenseTensor scalar = DenseTensor::zeros({});
    scalar.data[0] = expr.value;
    return scalar;
  }
  case dsl::ExprKind::Add:
  case dsl::ExprKind::Sub:
  case dsl::ExprKind::Mul:
  case dsl::ExprKind::Div:
    return evaluateEntryWise(expr, values);
  case dsl::ExprKind::Product:
    return evaluateContraction(expr, {}, values);
  case dsl::ExprKind::Contraction: {
    const dsl::Expr& operand = *expr.operands[0];
    CFD_ASSERT(operand.kind == dsl::ExprKind::Product,
               "contraction of non-products is unsupported");
    return evaluateContraction(operand, expr.pairs, values);
  }
  }
  CFD_UNREACHABLE("bad expression kind");
}

} // namespace

void evaluateReference(const dsl::Program& ast,
                       std::map<std::string, DenseTensor>& values) {
  for (const auto& assignment : ast.assignments)
    values[assignment.target] = evaluateExpr(*assignment.value, values);
}

DenseTensor makeTestInput(const std::vector<std::int64_t>& shape,
                          std::uint64_t seed) {
  DenseTensor tensor = DenseTensor::zeros(shape);
  std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (auto& value : tensor.data) {
    // xorshift64*
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    const std::uint64_t bits = state * 2685821657736338717ULL;
    value = (static_cast<double>(bits >> 11) /
             static_cast<double>(1ULL << 53)) *
                2.0 -
            1.0;
  }
  return tensor;
}

double maxAbsDifference(const DenseTensor& a, const DenseTensor& b) {
  CFD_ASSERT(a.shape == b.shape, "shape mismatch in comparison");
  double maxDiff = 0.0;
  for (std::size_t i = 0; i < a.data.size(); ++i)
    maxDiff = std::max(maxDiff, std::abs(a.data[i] - b.data[i]));
  return maxDiff;
}

} // namespace cfd::eval
