#include "codegen/CEmitter.h"

#include "support/Error.h"
#include "support/Hash.h"
#include "support/TextBuilder.h"

#include <array>
#include <string_view>

namespace cfd::codegen {

std::uint64_t CEmitterOptions::fingerprint() const {
  Fnv1aHasher h;
  h.mix(std::string_view("codegen::CEmitterOptions"));
  h.mix(std::string_view(functionName));
  h.mix(hlsPragmas);
  h.mix(pipelineII);
  h.mix(unrollFactor);
  h.mix(restrictPointers);
  h.mix(emitTestMain);
  return h.value();
}

namespace {

/// Loop iterator names: loop p of a nest (or dim p of a tensor's index
/// space) is i<p>. kMaxDims bounds both.
constexpr std::array<std::string_view, kMaxDims> kIterators = {
    "i0", "i1", "i2", "i3", "i4", "i5", "i6", "i7"};

/// Bytes to reserve for one artifact: enough for the common kernels in
/// one allocation, so the buffer rarely grows.
constexpr std::size_t kHeaderBytes = 512;
constexpr std::size_t kStatementBytes = 640;

class CEmitter {
public:
  CEmitter(const sched::Schedule& schedule, const CEmitterOptions& options)
      : schedule_(schedule), options_(options), program_(*schedule.program),
        interface_(program_.interfaceOrder()) {}

  std::string prototype() const {
    TextBuilder out(kHeaderBytes);
    appendPrototype(out);
    return out.take();
  }

  std::string emit() const {
    TextBuilder out(kHeaderBytes +
                    kStatementBytes * schedule_.statements.size());
    out << "/* Generated by cfdlang-fpga. Kernel: " << options_.functionName
        << " */\n"
        << "/* Arrays are PLM images; the memory subsystem is generated\n"
        << "   separately by the Mnemosyne-side flow (paper Sec. V-A). */\n\n";
    appendPrototype(out);
    out << "\n{\n";
    if (options_.hlsPragmas) {
      for (ir::TensorId id : interface_)
        out << "#pragma HLS INTERFACE ap_memory port="
            << program_.tensor(id).name << '\n';
      if (options_.unrollFactor > 1)
        for (ir::TensorId id : interface_)
          out << "#pragma HLS ARRAY_PARTITION variable="
              << program_.tensor(id).name
              << " cyclic factor=" << options_.unrollFactor << '\n';
      out << '\n';
    }
    for (const sched::ScheduledStatement& stmt : schedule_.statements)
      emitStatement(out, stmt);
    out << "}\n";
    if (options_.emitTestMain)
      emitTestMain(out);
    return out.take();
  }

private:
  void appendPrototype(TextBuilder& out) const {
    out << "void " << options_.functionName << '(';
    bool first = true;
    for (ir::TensorId id : interface_) {
      const ir::Tensor& tensor = program_.tensor(id);
      if (!first)
        out << ", ";
      first = false;
      // Inputs are const; every array is a flattened 1-D PLM image.
      if (tensor.kind == ir::TensorKind::Input)
        out << "const ";
      out << "double " << tensor.name
          << (options_.restrictPointers ? "[restrict static " : "[")
          << schedule_.layouts.layoutOf(id).sizeInElements << ']';
    }
    out << ')';
  }

  /// `array[<affine offset>]` for an access bound to its layout.
  void appendAccess(TextBuilder& out, const ir::Access& access) const {
    out << program_.tensor(access.tensor).name << '[';
    schedule_.layouts.flatOffset(access).print(out, kIterators);
    out << ']';
  }

  /// `[<layout offset>]` over a tensor's own index space.
  static void appendIndex(TextBuilder& out, const poly::AffineMap& layout) {
    out << '[';
    layout.result(0).print(out, kIterators);
    out << ']';
  }

  /// `for (int i<d> = 0; i<d> < extent; ++i<d>)`, unbraced, one line per
  /// dimension of `shape` from indentation level `level` on; returns the
  /// level of the body.
  static int appendDenseLoops(TextBuilder& out,
                              const std::vector<std::int64_t>& shape,
                              int level) {
    for (std::size_t d = 0; d < shape.size(); ++d) {
      indent(out, level++);
      appendLoopHeader(out, kIterators[d], shape[d]);
      out << '\n';
    }
    return level;
  }

  static void appendLoopHeader(TextBuilder& out, std::string_view iterator,
                               std::int64_t extent) {
    out << "for (int " << iterator << " = 0; " << iterator << " < "
        << extent << "; ++" << iterator << ')';
  }

  static void indent(TextBuilder& out, int level) {
    out.spaces(static_cast<std::size_t>(2 * level));
  }

  void appendPipeline(TextBuilder& out) const {
    out << "#pragma HLS PIPELINE II=" << options_.pipelineII << '\n';
  }

  void emitStatement(TextBuilder& out,
                     const sched::ScheduledStatement& stmt) const {
    const ir::Tensor& target = program_.tensor(stmt.write.tensor);
    indent(out, 1);
    out << "/* " << stmt.name << ": " << target.name;
    switch (stmt.kind) {
    case ir::OpKind::Contract:
      out << (stmt.needsInit ? " (contraction)" : " (outer product)");
      break;
    case ir::OpKind::EntryWise:
      out << " (entry-wise " << ir::entryWiseKindName(stmt.entryWise) << ')';
      break;
    case ir::OpKind::Copy:
      out << " (copy)";
      break;
    case ir::OpKind::Fill:
      out << " (fill)";
      break;
    }
    out << " */\n";

    // Zero-initialization loop for accumulation targets.
    if (stmt.needsInit) {
      const int level = appendDenseLoops(out, target.type.shape, 1);
      if (options_.hlsPragmas)
        appendPipeline(out);
      indent(out, level);
      out << target.name;
      appendIndex(out, schedule_.layouts.layoutOf(stmt.write.tensor).map);
      out << " = 0.0;\n";
    }

    const bool registerAccumulator =
        stmt.kind == ir::OpKind::Contract && stmt.needsInit &&
        stmt.innermostIsReduction();
    const std::size_t bodyLoops =
        registerAccumulator ? stmt.loops.size() - 1 : stmt.loops.size();

    int level = 1;
    for (std::size_t p = 0; p < bodyLoops; ++p) {
      indent(out, level++);
      appendLoopHeader(out, kIterators[p], stmt.loops[p].extent);
      out << " {\n";
    }
    if (options_.hlsPragmas && !registerAccumulator) {
      appendPipeline(out);
      if (options_.unrollFactor > 1)
        out << "#pragma HLS UNROLL factor=" << options_.unrollFactor << '\n';
    }

    indent(out, level);
    switch (stmt.kind) {
    case ir::OpKind::Contract:
      if (!stmt.needsInit) {
        appendAccess(out, stmt.write);
        out << " = ";
        appendProduct(out, stmt);
        out << ";\n";
      } else if (registerAccumulator) {
        out << "double acc = ";
        appendAccess(out, stmt.write);
        out << ";\n";
        indent(out, level);
        appendLoopHeader(out, kIterators[stmt.loops.size() - 1],
                         stmt.loops.back().extent);
        out << " {\n";
        if (options_.hlsPragmas)
          appendPipeline(out);
        indent(out, level + 1);
        out << "acc += ";
        appendProduct(out, stmt);
        out << ";\n";
        indent(out, level);
        out << "}\n";
        indent(out, level);
        appendAccess(out, stmt.write);
        out << " = acc;\n";
      } else {
        appendAccess(out, stmt.write);
        out << " += ";
        appendProduct(out, stmt);
        out << ";\n";
      }
      break;
    case ir::OpKind::EntryWise:
      appendAccess(out, stmt.write);
      out << " = ";
      appendAccess(out, stmt.reads[0]);
      out << ' ' << ir::entryWiseKindName(stmt.entryWise) << ' ';
      appendAccess(out, stmt.reads[1]);
      out << ";\n";
      break;
    case ir::OpKind::Copy:
      appendAccess(out, stmt.write);
      out << " = ";
      appendAccess(out, stmt.reads[0]);
      out << ";\n";
      break;
    case ir::OpKind::Fill:
      appendAccess(out, stmt.write);
      out << " = ";
      out.real(stmt.scalar);
      out << ";\n";
      break;
    }

    for (std::size_t p = bodyLoops; p > 0; --p) {
      indent(out, --level);
      out << "}\n";
    }
    out << '\n';
  }

  /// `lhs[..] * rhs[..]` of a contraction.
  void appendProduct(TextBuilder& out,
                     const sched::ScheduledStatement& stmt) const {
    appendAccess(out, stmt.reads[0]);
    out << " * ";
    appendAccess(out, stmt.reads[1]);
  }

  void emitTestMain(TextBuilder& out) const {
    out << R"(
#include <stdio.h>
#include <stdint.h>

/* Shared deterministic generator (matches eval::makeTestInput). */
static void fill_input(double* data, long n, uint64_t seed) {
  uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (long i = 0; i < n; ++i) {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    uint64_t bits = state * 2685821657736338717ULL;
    data[i] = ((double)(bits >> 11) / (double)(1ULL << 53)) * 2.0 - 1.0;
  }
}

int main(void) {
)";
    // Declare buffers.
    for (ir::TensorId id : interface_)
      out << "  static double " << program_.tensor(id).name << "_buf["
          << schedule_.layouts.layoutOf(id).sizeInElements << "];\n";
    // Inputs are filled in interface order with seeds 1, 2, ... to match
    // the integration test driver. The generator writes the *dense
    // row-major* image; import through the layout map.
    std::uint64_t seed = 1;
    for (ir::TensorId id : interface_) {
      const ir::Tensor& tensor = program_.tensor(id);
      if (tensor.kind != ir::TensorKind::Input)
        continue;
      out << "  {\n"
          << "    static double dense[" << tensor.type.numElements()
          << "];\n"
          << "    fill_input(dense, " << tensor.type.numElements() << ", "
          << seed++ << "ULL);\n";
      // Scatter through the layout map.
      const int level = appendDenseLoops(out, tensor.type.shape, 2);
      indent(out, level);
      out << tensor.name << "_buf";
      appendIndex(out, schedule_.layouts.layoutOf(id).map);
      out << " = dense";
      appendIndex(out, poly::AffineMap::rowMajorLayout(tensor.type.shape));
      out << ";\n  }\n";
    }
    // Call the kernel.
    out << "  " << options_.functionName << '(';
    bool first = true;
    for (ir::TensorId id : interface_) {
      if (!first)
        out << ", ";
      first = false;
      out << program_.tensor(id).name << "_buf";
    }
    out << ");\n";
    // Print outputs in dense row-major order.
    for (ir::TensorId id : interface_) {
      const ir::Tensor& tensor = program_.tensor(id);
      if (tensor.kind != ir::TensorKind::Output)
        continue;
      const int level = appendDenseLoops(out, tensor.type.shape, 1);
      indent(out, level);
      out << "printf(\"%.17g\\n\", " << tensor.name << "_buf";
      appendIndex(out, schedule_.layouts.layoutOf(id).map);
      out << ");\n";
    }
    out << "  return 0;\n}\n";
  }

  const sched::Schedule& schedule_;
  CEmitterOptions options_;
  const ir::Program& program_;
  /// Tensors in kernel argument order (ir::Program::interfaceOrder).
  const std::vector<ir::TensorId> interface_;
};

} // namespace

std::string emitC(const sched::Schedule& schedule,
                  const CEmitterOptions& options) {
  CFD_ASSERT(schedule.program != nullptr, "schedule without program");
  return CEmitter(schedule, options).emit();
}

std::string emitPrototype(const sched::Schedule& schedule,
                          const CEmitterOptions& options) {
  CFD_ASSERT(schedule.program != nullptr, "schedule without program");
  return CEmitter(schedule, options).prototype();
}

} // namespace cfd::codegen
