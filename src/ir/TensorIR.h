// Value-based tensor IR (paper §IV-B).
//
// After lowering from the AST, a program is a straight-line sequence of
// single-operation assignments in pseudo-SSA form: every tensor is written
// by exactly one statement. Compiler-introduced transients (t0, t1, ...)
// materialize the intermediate results of split contractions, mirroring
// the arrays that appear in the paper's Fig. 6 kernel prototype.
//
// Each operation exposes its *inner domain* (output dims x reduction dims,
// §IV-B) and affine accesses (operand maps), which is all downstream
// stages (scheduling, liveness, HLS) consume.
#pragma once

#include "poly/AffineMap.h"
#include "poly/Box.h"
#include "support/Error.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cfd::ir {

/// Statically shaped tensor type; rank 0 denotes a scalar.
struct TensorType {
  std::vector<std::int64_t> shape;

  int rank() const { return static_cast<int>(shape.size()); }
  std::int64_t numElements() const;
  poly::Box indexSpace() const { return poly::Box::fromShape(shape); }

  friend bool operator==(const TensorType&, const TensorType&) = default;
  std::string str() const;
};

/// Role of a tensor in the kernel interface.
enum class TensorKind {
  Input,     // host -> PLM before execution
  Output,    // PLM -> host after execution
  Local,     // named temporary from the DSL (t, r in Fig. 1)
  Transient, // compiler-introduced temporary (t0..t3)
};

const char* tensorKindName(TensorKind kind);

using TensorId = int;

struct Tensor {
  TensorId id = -1;
  std::string name;
  TensorKind kind = TensorKind::Transient;
  TensorType type;

  bool isInterface() const {
    return kind == TensorKind::Input || kind == TensorKind::Output;
  }
};

enum class OpKind {
  Contract,  // binary contraction / outer product (pairs may be empty)
  EntryWise, // +, -, *, / applied element-wise (rank-0 broadcasts)
  Copy,      // permuted copy (covers transpose / plain copy)
  Fill,      // broadcast a scalar literal
};

enum class EntryWiseKind { Add, Sub, Mul, Div };

const char* entryWiseKindName(EntryWiseKind kind);

/// A read or write access of a statement: array tensor + affine map from
/// the statement's inner domain to the tensor's index space.
struct Access {
  TensorId tensor = -1;
  poly::AffineMap map;
};

/// One single-operation statement in pseudo-SSA form.
///
/// Semantics by kind:
///  * Contract: domain = [free(lhs), free(rhs), reductions]; the target
///    index tuple is a permutation (resultPerm) of the free dims;
///    target[..] = sum over reductions of lhs[..] * rhs[..].
///  * EntryWise: domain = target index space; both operands are read at
///    the identity map (rank-0 operands broadcast).
///  * Copy: target[i..] = source[perm(i..)].
///  * Fill: target[i..] = scalar.
struct Operation {
  OpKind kind = OpKind::Copy;
  TensorId target = -1;

  // Contract
  TensorId lhs = -1;
  TensorId rhs = -1;
  /// Contracted pairs as (lhs dim, rhs dim), using operand-local dims.
  std::vector<std::pair<int, int>> pairs;
  /// resultPerm[j] = position in [free(lhs) ++ free(rhs)] that feeds
  /// target dimension j. Identity when empty.
  std::vector<int> resultPerm;

  // EntryWise
  EntryWiseKind entryWise = EntryWiseKind::Add;

  // Copy: source = lhs; perm[j] = source dim read for target dim j.
  std::vector<int> perm;

  // Fill
  double scalar = 0.0;

  bool isReduction() const {
    return kind == OpKind::Contract && !pairs.empty();
  }
};

/// A straight-line tensor program in pseudo-SSA form.
class Program {
public:
  /// Declares a tensor; names must be unique.
  TensorId addTensor(std::string name, TensorKind kind, TensorType type);
  /// Creates a fresh transient t<n> avoiding name collisions.
  TensorId addTransient(TensorType type);

  void addOperation(Operation op);

  const std::vector<Tensor>& tensors() const { return tensors_; }
  const std::vector<Operation>& operations() const { return operations_; }
  std::vector<Operation>& operations() { return operations_; }

  const Tensor& tensor(TensorId id) const;
  const Tensor* findTensor(const std::string& name) const;

  /// Tensors in interface order: inputs, outputs, then locals/transients —
  /// the argument order of the generated kernel_body (Fig. 6).
  std::vector<TensorId> interfaceOrder() const;

  /// Removes the trailing transient/local tensors that no op reads or
  /// writes; renumbers nothing (ids are stable).
  void dropUnusedTensors();

  /// Validates pseudo-SSA form and access sanity from each op's own
  /// fields, in O(total operand rank) per op; throws InternalError on the
  /// first violation. Returns *this for chaining. First, every tensor's
  /// shape has at most kMaxDims positive extents and at most
  /// kMaxTensorElements elements (support/Format.h). Then, per op:
  ///  * target, lhs and rhs ids are in range;
  ///  * the target is not an input and is written once;
  ///  * Contract: each pair names a dim inside both operands' ranks;
  ///    the domain has at most kMaxDims loops; resultPerm is empty or
  ///    has one entry per free dim, each inside the domain; the free
  ///    dims match the target rank, and each written dim's extent fits
  ///    the target's;
  ///  * EntryWise: each operand is rank 0 or has the target's rank;
  ///  * Copy: the source has the target's rank; a non-empty perm has at
  ///    least one entry per target dim, each inside the source rank;
  ///  * every operand is an input or written by an earlier op (or by
  ///    this op: the target counts as written before its operands).
  /// Finally, every output is written.
  const Program& verify() const;

  std::string str() const;

  // ---- Inner domains and operand maps (paper §IV-B) ----
  //
  // Ranks come straight from the op's fields (operand ranks minus the
  // dims its pairs bind), so only domain() builds a domain box.

  /// The statement's inner domain: output dims then reduction dims.
  poly::Box domain(const Operation& op) const;
  /// Number of leading domain dims that index the target.
  int numOutputDims(const Operation& op) const;
  /// Write access of the statement over its inner domain.
  Access writeAccess(const Operation& op) const;
  /// All read accesses of the statement over its inner domain.
  std::vector<Access> readAccesses(const Operation& op) const;

private:
  std::vector<Tensor> tensors_;
  std::vector<Operation> operations_;
  int nextTransient_ = 0;
};

} // namespace cfd::ir
