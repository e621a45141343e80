#include "ir/TensorIR.h"

#include "support/Format.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <sstream>

namespace cfd::ir {

std::int64_t TensorType::numElements() const {
  std::int64_t n = 1;
  for (std::int64_t extent : shape)
    n *= extent;
  return n;
}

std::string TensorType::str() const { return formatShape(shape); }

const char* tensorKindName(TensorKind kind) {
  switch (kind) {
  case TensorKind::Input:
    return "input";
  case TensorKind::Output:
    return "output";
  case TensorKind::Local:
    return "local";
  case TensorKind::Transient:
    return "transient";
  }
  return "unknown";
}

const char* entryWiseKindName(EntryWiseKind kind) {
  switch (kind) {
  case EntryWiseKind::Add:
    return "+";
  case EntryWiseKind::Sub:
    return "-";
  case EntryWiseKind::Mul:
    return "*";
  case EntryWiseKind::Div:
    return "/";
  }
  return "?";
}

TensorId Program::addTensor(std::string name, TensorKind kind,
                            TensorType type) {
  const auto id = static_cast<TensorId>(tensors_.size());
  const bool fresh = names_.insert(name, id, tensorName());
  CFD_ASSERT(fresh, "duplicate tensor name " + name);
  Tensor tensor;
  tensor.id = id;
  tensor.name = std::move(name);
  tensor.kind = kind;
  tensor.type = std::move(type);
  tensors_.push_back(std::move(tensor));
  return tensors_.back().id;
}

TensorId Program::addTransient(TensorType type) {
  char buffer[16] = {'t'};
  std::string_view name;
  do {
    const char* end =
        std::to_chars(buffer + 1, buffer + sizeof buffer, nextTransient_++)
            .ptr;
    name = std::string_view(buffer, static_cast<std::size_t>(end - buffer));
  } while (findTensor(name) != nullptr);
  return addTensor(std::string(name), TensorKind::Transient,
                   std::move(type));
}

void Program::addOperation(Operation op) {
  operations_.push_back(std::move(op));
}

const Tensor& Program::tensor(TensorId id) const {
  CFD_ASSERT(id >= 0 && id < static_cast<TensorId>(tensors_.size()),
             "tensor id out of range");
  return tensors_[static_cast<std::size_t>(id)];
}

const Tensor* Program::findTensor(std::string_view name) const {
  const int id = names_.find(name, tensorName());
  return id < 0 ? nullptr : &tensors_[static_cast<std::size_t>(id)];
}

std::vector<TensorId> Program::interfaceOrder() const {
  std::vector<TensorId> order;
  for (TensorKind kind : {TensorKind::Input, TensorKind::Output,
                          TensorKind::Local, TensorKind::Transient})
    for (const auto& tensor : tensors_)
      if (tensor.kind == kind)
        order.push_back(tensor.id);
  return order;
}

void Program::dropUnusedTensors() {
  // Ids are stable, so only the unused tensors past the highest
  // referenced id can go; interface tensors are always part of the
  // kernel contract.
  TensorId lastUsed = -1;
  for (const auto& op : operations_) {
    lastUsed = std::max(lastUsed, op.target);
    if (op.kind != OpKind::Fill)
      lastUsed = std::max(lastUsed, op.lhs);
    if (op.kind == OpKind::Contract || op.kind == OpKind::EntryWise)
      lastUsed = std::max(lastUsed, op.rhs);
  }
  const std::size_t count = tensors_.size();
  while (!tensors_.empty() && !tensors_.back().isInterface() &&
         tensors_.back().id > lastUsed)
    tensors_.pop_back();
  if (tensors_.size() != count)
    names_.reset(tensors_.size(), tensorName());
}

namespace {

/// Bit d is set when operand dim d is bound by a contraction pair: the
/// lhs dims (first of each pair) or the rhs dims (second). verify()
/// keeps pair dims inside the operand ranks, which kMaxDims bounds.
std::uint32_t boundDims(const Operation& op, bool lhs) {
  std::uint32_t bound = 0;
  for (const auto& [l, r] : op.pairs)
    bound |= std::uint32_t{1} << (lhs ? l : r);
  return bound;
}

int countFree(int rank, std::uint32_t bound) {
  return rank - std::popcount(bound);
}

/// Number of domain dims of `op` with `outDims` output dims: one more
/// per pair for a contraction.
int domainRank(const Operation& op, int outDims) {
  return op.kind == OpKind::Contract
             ? outDims + static_cast<int>(op.pairs.size())
             : outDims;
}

} // namespace

poly::Box Program::domain(const Operation& op) const {
  if (op.kind != OpKind::Contract)
    return tensor(op.target).type.indexSpace();
  const auto& lhsShape = tensor(op.lhs).type.shape;
  const auto& rhsShape = tensor(op.rhs).type.shape;
  const std::uint32_t boundL = boundDims(op, true);
  const std::uint32_t boundR = boundDims(op, false);
  std::vector<std::int64_t> extents;
  extents.reserve(lhsShape.size() + rhsShape.size());
  for (std::size_t d = 0; d < lhsShape.size(); ++d)
    if (!(boundL >> d & 1))
      extents.push_back(lhsShape[d]);
  for (std::size_t d = 0; d < rhsShape.size(); ++d)
    if (!(boundR >> d & 1))
      extents.push_back(rhsShape[d]);
  for (const auto& [l, r] : op.pairs)
    extents.push_back(lhsShape[static_cast<std::size_t>(l)]);
  return poly::Box::fromShape(extents);
}

int Program::numOutputDims(const Operation& op) const {
  if (op.kind != OpKind::Contract)
    return tensor(op.target).type.rank();
  return countFree(tensor(op.lhs).type.rank(), boundDims(op, true)) +
         countFree(tensor(op.rhs).type.rank(), boundDims(op, false));
}

Access Program::writeAccess(const Operation& op) const {
  const int outDims = numOutputDims(op);
  const int rank = domainRank(op, outDims);
  const bool permuted = op.kind == OpKind::Contract && !op.resultPerm.empty();
  CFD_ASSERT(!permuted || static_cast<int>(op.resultPerm.size()) == outDims,
             "resultPerm arity mismatch");
  std::vector<poly::AffineExpr> results;
  results.reserve(static_cast<std::size_t>(outDims));
  for (int j = 0; j < outDims; ++j)
    results.push_back(poly::AffineExpr::dim(
        rank, permuted ? op.resultPerm[static_cast<std::size_t>(j)] : j));
  return Access{op.target, poly::AffineMap(rank, std::move(results))};
}

std::vector<Access> Program::readAccesses(const Operation& op) const {
  const int outDims = numOutputDims(op);
  const int rank = domainRank(op, outDims);
  std::vector<Access> reads;
  switch (op.kind) {
  case OpKind::Contract: {
    reads.reserve(2);
    // Free operand dims read the domain's output dims in order (lhs ones
    // first, from position `next`); paired dim q of either operand reads
    // domain dim outDims + q.
    int next = 0;
    for (const bool lhs : {true, false}) {
      const TensorId operand = lhs ? op.lhs : op.rhs;
      const int operandRank = tensor(operand).type.rank();
      const std::uint32_t bound = boundDims(op, lhs);
      std::vector<poly::AffineExpr> results;
      results.reserve(static_cast<std::size_t>(operandRank));
      for (int d = 0; d < operandRank; ++d)
        results.push_back(bound >> d & 1 ? poly::AffineExpr::constant(rank, 0)
                                         : poly::AffineExpr::dim(rank, next++));
      for (std::size_t q = 0; q < op.pairs.size(); ++q)
        results[static_cast<std::size_t>(lhs ? op.pairs[q].first
                                             : op.pairs[q].second)] =
            poly::AffineExpr::dim(rank, outDims + static_cast<int>(q));
      reads.push_back({operand, poly::AffineMap(rank, std::move(results))});
    }
    return reads;
  }
  case OpKind::EntryWise: {
    reads.reserve(2);
    for (TensorId operand : {op.lhs, op.rhs}) {
      const int operandRank = tensor(operand).type.rank();
      if (operandRank == 0) {
        reads.push_back({operand, poly::AffineMap(rank, {})});
      } else {
        CFD_ASSERT(operandRank == rank, "entry-wise operand rank mismatch");
        reads.push_back({operand, poly::AffineMap::identity(rank)});
      }
    }
    return reads;
  }
  case OpKind::Copy: {
    CFD_ASSERT(tensor(op.lhs).type.rank() == rank, "copy rank mismatch");
    if (op.perm.empty()) {
      reads.push_back({op.lhs, poly::AffineMap::identity(rank)});
      return reads;
    }
    // target[i...] = source[j...] with j[perm[t]] = i[t].
    std::vector<poly::AffineExpr> results(
        static_cast<std::size_t>(rank), poly::AffineExpr::constant(rank, 0));
    for (int t = 0; t < rank; ++t)
      results[static_cast<std::size_t>(op.perm[static_cast<std::size_t>(t)])] =
          poly::AffineExpr::dim(rank, t);
    reads.push_back({op.lhs, poly::AffineMap(rank, std::move(results))});
    return reads;
  }
  case OpKind::Fill:
    return reads;
  }
  CFD_UNREACHABLE("bad op kind");
}

const Program& Program::verify() const {
  for (const auto& tensor : tensors_)
    CFD_ASSERT(isBoundedShape(tensor.type.shape),
               "tensor " + tensor.name + ": " +
                   shapeBoundMessage(tensor.type.shape));
  // written[id]: the tensor has been assigned. A target counts as
  // written before its own operands are checked.
  std::vector<bool> written(tensors_.size(), false);
  // Contraction scratch, reused across ops: the operand dims a pair
  // binds (lhs dims, then rhs dims) and the domain extents.
  std::vector<bool> bound;
  std::vector<std::int64_t> extents;
  const auto checkRead = [&](TensorId id) {
    const Tensor& source = tensors_[static_cast<std::size_t>(id)];
    CFD_ASSERT(source.kind == TensorKind::Input || written[source.id],
               "tensor " + source.name + " read before definition");
  };
  for (const auto& op : operations_) {
    const Tensor& target = tensor(op.target);
    CFD_ASSERT(target.kind != TensorKind::Input,
               "input tensor " + target.name + " is written");
    CFD_ASSERT(!written[target.id],
               "tensor " + target.name + " violates single assignment");
    written[target.id] = true;
    const int rank = target.type.rank();
    switch (op.kind) {
    case OpKind::Contract: {
      const auto& lhsShape = tensor(op.lhs).type.shape;
      const auto& rhsShape = tensor(op.rhs).type.shape;
      const int lhsRank = static_cast<int>(lhsShape.size());
      const int rhsRank = static_cast<int>(rhsShape.size());
      bound.assign(lhsShape.size() + rhsShape.size(), false);
      for (const auto& [l, r] : op.pairs) {
        CFD_ASSERT(l >= 0 && l < lhsRank && r >= 0 && r < rhsRank,
                   "contraction pair dimension out of range");
        bound[static_cast<std::size_t>(l)] = true;
        bound[static_cast<std::size_t>(lhsRank + r)] = true;
      }
      checkRead(op.lhs);
      checkRead(op.rhs);
      // Domain: free lhs dims, free rhs dims, then one dim per pair.
      extents.clear();
      for (int d = 0; d < lhsRank; ++d)
        if (!bound[static_cast<std::size_t>(d)])
          extents.push_back(lhsShape[static_cast<std::size_t>(d)]);
      for (int d = 0; d < rhsRank; ++d)
        if (!bound[static_cast<std::size_t>(lhsRank + d)])
          extents.push_back(rhsShape[static_cast<std::size_t>(d)]);
      const int numFree = static_cast<int>(extents.size());
      for (const auto& [l, r] : op.pairs)
        extents.push_back(lhsShape[static_cast<std::size_t>(l)]);
      const int domainRank = static_cast<int>(extents.size());
      CFD_ASSERT(domainRank <= kMaxDims,
                 "contraction domain of " + std::to_string(domainRank) +
                     " loops on " + target.name + " exceeds the bound of " +
                     std::to_string(kMaxDims) + " loops per statement");
      if (!op.resultPerm.empty()) {
        CFD_ASSERT(static_cast<int>(op.resultPerm.size()) == numFree,
                   "resultPerm arity mismatch");
        for (int k : op.resultPerm)
          CFD_ASSERT(k >= 0 && k < domainRank,
                     "dimension index out of range");
      }
      CFD_ASSERT(numFree == rank, "write rank mismatch on " + target.name);
      // Target dim j is written by domain dim resultPerm[j] (j when
      // empty); extents are positive, so that dim's extent must fit.
      for (int j = 0; j < rank; ++j) {
        const int k = op.resultPerm.empty()
                          ? j
                          : op.resultPerm[static_cast<std::size_t>(j)];
        CFD_ASSERT(extents[static_cast<std::size_t>(k)] <=
                       target.type.shape[static_cast<std::size_t>(j)],
                   "write out of bounds on " + target.name);
      }
      break;
    }
    case OpKind::EntryWise:
      // Rank-0 operands broadcast; the others are read at the identity.
      for (TensorId operand : {op.lhs, op.rhs}) {
        const int operandRank = tensor(operand).type.rank();
        CFD_ASSERT(operandRank == 0 || operandRank == rank,
                   "entry-wise operand rank mismatch");
      }
      checkRead(op.lhs);
      checkRead(op.rhs);
      break;
    case OpKind::Copy:
      CFD_ASSERT(tensor(op.lhs).type.rank() == rank, "copy rank mismatch");
      if (!op.perm.empty()) {
        CFD_ASSERT(static_cast<int>(op.perm.size()) >= rank,
                   "copy perm shorter than target rank");
        for (int j = 0; j < rank; ++j) {
          const int d = op.perm[static_cast<std::size_t>(j)];
          CFD_ASSERT(d >= 0 && d < rank, "copy perm entry out of range");
        }
      }
      checkRead(op.lhs);
      break;
    case OpKind::Fill:
      break;
    }
  }
  // Every output must be written.
  for (const auto& tensor : tensors_)
    if (tensor.kind == TensorKind::Output)
      CFD_ASSERT(written[tensor.id],
                 "output " + tensor.name + " is never written");
  return *this;
}

std::string Program::str() const {
  std::ostringstream os;
  for (const auto& tensor : tensors_)
    os << tensorKindName(tensor.kind) << " " << tensor.name << " : "
       << tensor.type.str() << "\n";
  for (const auto& op : operations_) {
    os << tensor(op.target).name << " = ";
    switch (op.kind) {
    case OpKind::Contract: {
      os << "contract(" << tensor(op.lhs).name << ", " << tensor(op.rhs).name
         << ", pairs={";
      for (std::size_t i = 0; i < op.pairs.size(); ++i) {
        if (i != 0)
          os << ", ";
        os << "(" << op.pairs[i].first << "," << op.pairs[i].second << ")";
      }
      os << "}";
      if (!op.resultPerm.empty()) {
        os << ", perm=[";
        for (std::size_t i = 0; i < op.resultPerm.size(); ++i) {
          if (i != 0)
            os << " ";
          os << op.resultPerm[i];
        }
        os << "]";
      }
      os << ")";
      break;
    }
    case OpKind::EntryWise:
      os << tensor(op.lhs).name << " " << entryWiseKindName(op.entryWise)
         << " " << tensor(op.rhs).name;
      break;
    case OpKind::Copy:
      os << "copy(" << tensor(op.lhs).name;
      if (!op.perm.empty()) {
        os << ", perm=[";
        for (std::size_t i = 0; i < op.perm.size(); ++i) {
          if (i != 0)
            os << " ";
          os << op.perm[i];
        }
        os << "]";
      }
      os << ")";
      break;
    case OpKind::Fill:
      os << "fill(" << op.scalar << ")";
      break;
    }
    os << "\n";
  }
  return os.str();
}

} // namespace cfd::ir
