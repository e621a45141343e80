#include "store/ArtifactCodec.h"

#include "mem/Compatibility.h"
#include "support/Format.h"

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace cfd::store {

namespace {

// ---- Shared small structures -------------------------------------------

/// Runs `check` over decoded data, turning an invariant it asserts
/// (InternalError) into the CodecError of the bytes that broke it.
template <typename Check> decltype(auto) asCodecError(Check&& check) {
  try {
    return check();
  } catch (const InternalError& e) {
    throw CodecError(std::string("artifact codec: ") + e.what());
  }
}

/// Reads an id that must index one of the `count` tensors or ops of the
/// prefix's decoded program.
int readIndex(ByteReader& r, std::size_t count, const char* what) {
  const int id = r.i32();
  if (id < 0 || static_cast<std::size_t>(id) >= count)
    throw CodecError(std::string("artifact codec: ") + what +
                     " out of range");
  return id;
}

void writeI64Vec(ByteWriter& w, const std::vector<std::int64_t>& values) {
  w.u64(values.size());
  for (std::int64_t value : values)
    w.i64(value);
}

std::vector<std::int64_t> readI64Vec(ByteReader& r) {
  const std::size_t size = r.count();
  std::vector<std::int64_t> values;
  values.reserve(size);
  for (std::size_t i = 0; i < size; ++i)
    values.push_back(r.i64());
  return values;
}

void writeIntVec(ByteWriter& w, const std::vector<int>& values) {
  w.u64(values.size());
  for (int value : values)
    w.i32(value);
}

std::vector<int> readIntVec(ByteReader& r) {
  const std::size_t size = r.count();
  std::vector<int> values;
  values.reserve(size);
  for (std::size_t i = 0; i < size; ++i)
    values.push_back(r.i32());
  return values;
}

/// A shape under the element bound dsl::Sema enforces, checked before
/// anything downstream multiplies its extents.
std::vector<std::int64_t> readShape(ByteReader& r) {
  std::vector<std::int64_t> shape = readI64Vec(r);
  if (!isBoundedShape(shape))
    throw CodecError("artifact codec: " + shapeBoundMessage(shape));
  return shape;
}

void writeLocation(ByteWriter& w, const SourceLocation& location) {
  w.i32(location.line);
  w.i32(location.column);
}

SourceLocation readLocation(ByteReader& r) {
  SourceLocation location;
  location.line = r.i32();
  location.column = r.i32();
  return location;
}

void writeDiagnostics(ByteWriter& w, const DiagnosticList& diagnostics) {
  w.u64(diagnostics.size());
  for (const Diagnostic& diagnostic : diagnostics) {
    w.enumeration(diagnostic.severity);
    writeLocation(w, diagnostic.location);
    w.str(diagnostic.message);
    w.str(diagnostic.stage);
  }
}

DiagnosticList readDiagnostics(ByteReader& r) {
  DiagnosticList diagnostics;
  const std::size_t size = r.count();
  for (std::size_t i = 0; i < size; ++i) {
    Diagnostic diagnostic;
    diagnostic.severity = r.enumeration<Severity>(3);
    diagnostic.location = readLocation(r);
    diagnostic.message = r.str();
    diagnostic.stage = r.str();
    diagnostics.add(std::move(diagnostic));
  }
  return diagnostics;
}

void writeAffineMap(ByteWriter& w, const poly::AffineMap& map) {
  w.i32(map.numDims());
  w.u64(static_cast<std::uint64_t>(map.numResults()));
  for (const poly::AffineExpr& expr : map.results()) {
    w.u64(static_cast<std::uint64_t>(expr.numDims()));
    for (const std::int64_t coefficient : expr.coefficients())
      w.i64(coefficient);
    w.i64(expr.constantTerm());
  }
}

/// Both counts are checked against kMaxDims before any expression is
/// built: poly::AffineExpr holds that many coefficients inline, and an
/// access map has one result per dim of its tensor.
poly::AffineMap readAffineMap(ByteReader& r) {
  const int numDims = r.i32();
  if (numDims < 0)
    throw CodecError("artifact codec: negative affine dimension count");
  if (numDims > kMaxDims)
    throw CodecError("artifact codec: affine map over " +
                     std::to_string(numDims) +
                     " dimensions exceeds the bound of " +
                     std::to_string(kMaxDims));
  const std::size_t numResults = r.count();
  if (numResults > static_cast<std::size_t>(kMaxDims))
    throw CodecError("artifact codec: affine map with " +
                     std::to_string(numResults) +
                     " results exceeds the bound of " +
                     std::to_string(kMaxDims));
  std::vector<poly::AffineExpr> results;
  results.reserve(numResults);
  std::array<std::int64_t, kMaxDims> coefficients{};
  for (std::size_t i = 0; i < numResults; ++i) {
    if (r.count() != static_cast<std::size_t>(numDims))
      throw CodecError("artifact codec: affine expr dims mismatch");
    for (int dim = 0; dim < numDims; ++dim)
      coefficients[static_cast<std::size_t>(dim)] = r.i64();
    const std::int64_t constant = r.i64();
    results.push_back(poly::AffineExpr::fromCoefficients(
        {coefficients.data(), static_cast<std::size_t>(numDims)}, constant));
  }
  return poly::AffineMap(numDims, std::move(results));
}

void writeAccess(ByteWriter& w, const ir::Access& access) {
  w.i32(access.tensor);
  writeAffineMap(w, access.map);
}

ir::Access readAccess(ByteReader& r, std::size_t numTensors) {
  ir::Access access;
  access.tensor = readIndex(r, numTensors, "access tensor id");
  access.map = readAffineMap(r);
  return access;
}

// ---- dsl::Program (parse) ----------------------------------------------

void writeExpr(ByteWriter& w, const dsl::Expr& expr) {
  w.enumeration(expr.kind);
  writeLocation(w, expr.location);
  w.str(expr.name);
  w.f64(expr.value);
  w.u64(expr.operands.size());
  for (const dsl::ExprPtr& operand : expr.operands)
    writeExpr(w, *operand);
  w.u64(expr.pairs.size());
  for (const dsl::IndexPair& pair : expr.pairs) {
    w.i32(pair.first);
    w.i32(pair.second);
  }
  writeI64Vec(w, expr.shape);
}

/// `formed` is false for the operand of a contraction: a product there
/// is never formed whole, so, as in dsl::Sema, its shape is not bounded.
dsl::ExprPtr readExpr(ByteReader& r, int depth, bool formed) {
  if (depth > dsl::kMaxExprDepth)
    throw CodecError("artifact codec: expression nesting too deep");
  auto expr = std::make_unique<dsl::Expr>();
  expr->kind = r.enumeration<dsl::ExprKind>(8);
  expr->location = readLocation(r);
  expr->name = r.str();
  expr->value = r.f64();
  const std::size_t numOperands = r.count();
  expr->operands.reserve(numOperands);
  for (std::size_t i = 0; i < numOperands; ++i)
    expr->operands.push_back(readExpr(
        r, depth + 1, expr->kind != dsl::ExprKind::Contraction));
  const std::size_t numPairs = r.count();
  expr->pairs.reserve(numPairs);
  for (std::size_t i = 0; i < numPairs; ++i) {
    dsl::IndexPair pair;
    pair.first = r.i32();
    pair.second = r.i32();
    expr->pairs.push_back(pair);
  }
  expr->shape = formed || expr->kind != dsl::ExprKind::Product
                    ? readShape(r)
                    : readI64Vec(r);
  return expr;
}

void writeAst(ByteWriter& w, const dsl::Program& program) {
  w.u64(program.types.size());
  for (const dsl::TypeDecl& type : program.types) {
    w.str(type.name);
    writeI64Vec(w, type.shape);
    writeLocation(w, type.location);
  }
  w.u64(program.declarations.size());
  for (const dsl::VarDecl& decl : program.declarations) {
    w.enumeration(decl.kind);
    w.str(decl.name);
    writeI64Vec(w, decl.shape);
    writeLocation(w, decl.location);
  }
  w.u64(program.assignments.size());
  for (const dsl::Assignment& assignment : program.assignments) {
    w.str(assignment.target);
    writeExpr(w, *assignment.value);
    writeLocation(w, assignment.location);
  }
  writeDiagnostics(w, program.frontendWarnings);
}

dsl::Program readAst(ByteReader& r) {
  dsl::Program program;
  const std::size_t numTypes = r.count();
  program.types.reserve(numTypes);
  for (std::size_t i = 0; i < numTypes; ++i) {
    dsl::TypeDecl type;
    type.name = r.str();
    type.shape = readShape(r);
    type.location = readLocation(r);
    program.types.push_back(std::move(type));
  }
  const std::size_t numDecls = r.count();
  program.declarations.reserve(numDecls);
  for (std::size_t i = 0; i < numDecls; ++i) {
    dsl::VarDecl decl;
    decl.kind = r.enumeration<dsl::VarKind>(3);
    decl.name = r.str();
    decl.shape = readShape(r);
    decl.location = readLocation(r);
    program.declarations.push_back(std::move(decl));
  }
  const std::size_t numAssignments = r.count();
  program.assignments.reserve(numAssignments);
  for (std::size_t i = 0; i < numAssignments; ++i) {
    dsl::Assignment assignment;
    assignment.target = r.str();
    assignment.value = readExpr(r, 0, true);
    assignment.location = readLocation(r);
    program.assignments.push_back(std::move(assignment));
  }
  program.frontendWarnings = readDiagnostics(r);
  return program;
}

// ---- ir::Program (lower / optimize) ------------------------------------

void writeProgram(ByteWriter& w, const ir::Program& program) {
  w.u64(program.tensors().size());
  for (const ir::Tensor& tensor : program.tensors()) {
    w.str(tensor.name);
    w.enumeration(tensor.kind);
    writeI64Vec(w, tensor.type.shape);
  }
  w.u64(program.operations().size());
  for (const ir::Operation& op : program.operations()) {
    w.enumeration(op.kind);
    w.i32(op.target);
    w.i32(op.lhs);
    w.i32(op.rhs);
    w.u64(op.pairs.size());
    for (const auto& [lhsDim, rhsDim] : op.pairs) {
      w.i32(lhsDim);
      w.i32(rhsDim);
    }
    writeIntVec(w, op.resultPerm);
    w.enumeration(op.entryWise);
    writeIntVec(w, op.perm);
    w.f64(op.scalar);
  }
}

ir::Program readProgram(ByteReader& r) {
  ir::Program program;
  const std::size_t numTensors = r.count();
  for (std::size_t i = 0; i < numTensors; ++i) {
    std::string name = r.str();
    const auto kind = r.enumeration<ir::TensorKind>(4);
    ir::TensorType type;
    type.shape = readI64Vec(r);
    // addTensor assigns sequential ids, so writing tensors in id order
    // reproduces every id; it asserts on duplicate names, which the
    // store's catch-all treats as a verification miss.
    program.addTensor(std::move(name), kind, std::move(type));
  }
  const std::size_t numOps = r.count();
  for (std::size_t i = 0; i < numOps; ++i) {
    ir::Operation op;
    op.kind = r.enumeration<ir::OpKind>(4);
    op.target = r.i32();
    op.lhs = r.i32();
    op.rhs = r.i32();
    const std::size_t numPairs = r.count();
    op.pairs.reserve(numPairs);
    for (std::size_t pair = 0; pair < numPairs; ++pair) {
      const int lhsDim = r.i32();
      const int rhsDim = r.i32();
      op.pairs.emplace_back(lhsDim, rhsDim);
    }
    op.resultPerm = readIntVec(r);
    op.entryWise = r.enumeration<ir::EntryWiseKind>(4);
    op.perm = readIntVec(r);
    op.scalar = r.f64();
    program.addOperation(std::move(op));
  }
  // The passes and readSchedule index by these ids and dims without
  // checks, so a decoded program must pass the same verify() as a
  // freshly lowered or optimized one.
  asCodecError([&] { program.verify(); });
  return program;
}

void writeOptimizeReport(ByteWriter& w, const ir::OptimizeReport& report) {
  w.u64(report.passes.size());
  for (const ir::PassResult& pass : report.passes) {
    w.str(pass.name);
    w.i32(pass.opsBefore);
    w.i32(pass.opsAfter);
    w.i32(pass.rewrites);
    w.f64(pass.millis);
  }
  w.i32(report.iterations);
  w.i32(report.opsBefore);
  w.i32(report.opsAfter);
}

ir::OptimizeReport readOptimizeReport(ByteReader& r) {
  ir::OptimizeReport report;
  const std::size_t numPasses = r.count();
  report.passes.reserve(numPasses);
  for (std::size_t i = 0; i < numPasses; ++i) {
    ir::PassResult pass;
    pass.name = r.str();
    pass.opsBefore = r.i32();
    pass.opsAfter = r.i32();
    pass.rewrites = r.i32();
    pass.millis = r.f64();
    report.passes.push_back(std::move(pass));
  }
  report.iterations = r.i32();
  report.opsBefore = r.i32();
  report.opsAfter = r.i32();
  return report;
}

// ---- sched::Schedule (schedule / reschedule) ---------------------------

void writeSchedule(ByteWriter& w, const sched::Schedule& schedule) {
  // Neither Schedule::program (a pointer into the optimize artifact)
  // nor Schedule::layouts (deterministically re-materialized) is
  // serialized — see the header.
  w.u64(schedule.statements.size());
  for (const sched::ScheduledStatement& stmt : schedule.statements) {
    w.i32(stmt.opIndex);
    w.str(stmt.name);
    w.u64(stmt.loops.size());
    for (const sched::LoopDim& loop : stmt.loops) {
      w.i32(loop.domainDim);
      w.i64(loop.extent);
      w.boolean(loop.isReduction);
    }
    writeAccess(w, stmt.write);
    w.u64(stmt.reads.size());
    for (const ir::Access& read : stmt.reads)
      writeAccess(w, read);
    w.enumeration(stmt.kind);
    w.enumeration(stmt.entryWise);
    w.f64(stmt.scalar);
    w.boolean(stmt.needsInit);
  }
}

/// Every op index and access tensor id is checked against `program`:
/// the memory-plan stage indexes an n x n matrix by those tensor ids.
sched::Schedule readSchedule(ByteReader& r, const ir::Program& program,
                             const FlowOptions& options) {
  sched::Schedule schedule;
  schedule.program = &program;
  schedule.layouts = sched::LayoutAssignment::materialize(program,
                                                          options.layouts);
  const std::size_t numOps = program.operations().size();
  const std::size_t numTensors = program.tensors().size();
  const std::size_t numStatements = r.count();
  schedule.statements.reserve(numStatements);
  for (std::size_t i = 0; i < numStatements; ++i) {
    sched::ScheduledStatement stmt;
    stmt.opIndex = readIndex(r, numOps, "op index");
    stmt.name = r.str();
    // Rescheduling a decoded Schedule prefix rebuilds accesses over the
    // loops, indexing by each loop's domain dim.
    const std::size_t numLoops = r.count();
    if (numLoops > static_cast<std::size_t>(kMaxDims))
      throw CodecError("artifact codec: loop nest of " +
                       std::to_string(numLoops) +
                       " loops exceeds the bound of " +
                       std::to_string(kMaxDims));
    stmt.loops.reserve(numLoops);
    for (std::size_t loop = 0; loop < numLoops; ++loop) {
      sched::LoopDim dim;
      dim.domainDim = readIndex(r, numLoops, "loop domain dim");
      dim.extent = r.i64();
      dim.isReduction = r.boolean();
      stmt.loops.push_back(dim);
    }
    stmt.write = readAccess(r, numTensors);
    const std::size_t numReads = r.count();
    stmt.reads.reserve(numReads);
    for (std::size_t read = 0; read < numReads; ++read)
      stmt.reads.push_back(readAccess(r, numTensors));
    stmt.kind = r.enumeration<ir::OpKind>(4);
    stmt.entryWise = r.enumeration<ir::EntryWiseKind>(4);
    stmt.scalar = r.f64();
    stmt.needsInit = r.boolean();
    schedule.statements.push_back(std::move(stmt));
  }
  return schedule;
}

// ---- mem / hls / sysgen artifacts --------------------------------------

void writeLiveness(ByteWriter& w, const mem::LivenessInfo& liveness) {
  w.u64(liveness.intervals.size());
  for (const auto& [id, interval] : liveness.intervals) {
    w.i32(id);
    w.i32(interval.begin);
    w.i32(interval.end);
  }
  w.i32(liveness.numStatements);
}

mem::LivenessInfo readLiveness(ByteReader& r) {
  mem::LivenessInfo liveness;
  const std::size_t numIntervals = r.count();
  for (std::size_t i = 0; i < numIntervals; ++i) {
    const ir::TensorId id = r.i32();
    mem::LiveInterval interval;
    interval.begin = r.i32();
    interval.end = r.i32();
    liveness.intervals.emplace(id, interval);
  }
  liveness.numStatements = r.i32();
  return liveness;
}

// The compatibility graph is not stored: decodePrefix rebuilds it from
// the decoded schedule and liveness, faster than it would decode.
void writePlan(ByteWriter& w, const mem::MemoryPlan& plan) {
  w.u64(plan.buffers.size());
  for (const mem::PlmBuffer& buffer : plan.buffers) {
    w.str(buffer.name);
    writeIntVec(w, buffer.arrays);
    w.i64(buffer.depth);
    w.i32(buffer.widthBits);
    w.boolean(buffer.insideAccelerator);
    w.boolean(buffer.lutram);
    w.i32(buffer.banks);
    w.i32(buffer.bram36);
    w.i32(buffer.readPorts);
    w.i32(buffer.writePorts);
  }
  writeIntVec(w, plan.bufferOf);
  writeI64Vec(w, plan.baseOffsets);
}

mem::MemoryPlan readPlan(ByteReader& r) {
  mem::MemoryPlan plan;
  const std::size_t numBuffers = r.count();
  plan.buffers.reserve(numBuffers);
  for (std::size_t i = 0; i < numBuffers; ++i) {
    mem::PlmBuffer buffer;
    buffer.name = r.str();
    buffer.arrays = readIntVec(r);
    buffer.depth = r.i64();
    buffer.widthBits = r.i32();
    buffer.insideAccelerator = r.boolean();
    buffer.lutram = r.boolean();
    buffer.banks = r.i32();
    buffer.bram36 = r.i32();
    buffer.readPorts = r.i32();
    buffer.writePorts = r.i32();
    plan.buffers.push_back(std::move(buffer));
  }
  plan.bufferOf = readIntVec(r);
  plan.baseOffsets = readI64Vec(r);
  return plan;
}

void writeKernel(ByteWriter& w, const hls::KernelReport& kernel) {
  w.i32(kernel.resources.lut);
  w.i32(kernel.resources.ff);
  w.i32(kernel.resources.dsp);
  w.i32(kernel.resources.bram36);
  w.u64(kernel.statements.size());
  for (const hls::StatementTiming& timing : kernel.statements) {
    w.str(timing.name);
    w.i64(timing.tripCount);
    w.i32(timing.ii);
    w.i32(timing.pipelineDepth);
    w.i64(timing.cycles);
    w.i64(timing.initCycles);
  }
  w.i64(kernel.totalCycles);
  w.f64(kernel.clockMHz);
}

hls::KernelReport readKernel(ByteReader& r) {
  hls::KernelReport kernel;
  kernel.resources.lut = r.i32();
  kernel.resources.ff = r.i32();
  kernel.resources.dsp = r.i32();
  kernel.resources.bram36 = r.i32();
  const std::size_t numStatements = r.count();
  kernel.statements.reserve(numStatements);
  for (std::size_t i = 0; i < numStatements; ++i) {
    hls::StatementTiming timing;
    timing.name = r.str();
    timing.tripCount = r.i64();
    timing.ii = r.i32();
    timing.pipelineDepth = r.i32();
    timing.cycles = r.i64();
    timing.initCycles = r.i64();
    kernel.statements.push_back(std::move(timing));
  }
  kernel.totalCycles = r.i64();
  kernel.clockMHz = r.f64();
  return kernel;
}

void writeSystem(ByteWriter& w, const sysgen::SystemDesign& system) {
  w.i32(system.m);
  w.i32(system.k);
  w.i32(system.batch);
  w.enumeration(system.variant);
  const auto writeResources = [&w](const hls::Resources& resources) {
    w.i32(resources.lut);
    w.i32(resources.ff);
    w.i32(resources.dsp);
    w.i32(resources.bram36);
  };
  writeResources(system.perKernel);
  w.i32(system.plmBram36PerUnit);
  writeResources(system.total);
  w.i64(system.inputBytesPerElement);
  w.i64(system.outputBytesPerElement);
  w.i64(system.plmWindowBytes);
  w.u64(system.addressMap.size());
  for (const sysgen::AddressMapEntry& entry : system.addressMap) {
    w.str(entry.array);
    w.i64(entry.byteOffset);
    w.i64(entry.byteSize);
    w.i64(entry.windowBytes);
  }
}

sysgen::SystemDesign readSystem(ByteReader& r) {
  sysgen::SystemDesign system;
  system.m = r.i32();
  system.k = r.i32();
  system.batch = r.i32();
  system.variant = r.enumeration<sysgen::ArchitectureVariant>(3);
  const auto readResources = [&r]() {
    hls::Resources resources;
    resources.lut = r.i32();
    resources.ff = r.i32();
    resources.dsp = r.i32();
    resources.bram36 = r.i32();
    return resources;
  };
  system.perKernel = readResources();
  system.plmBram36PerUnit = r.i32();
  system.total = readResources();
  system.inputBytesPerElement = r.i64();
  system.outputBytesPerElement = r.i64();
  system.plmWindowBytes = r.i64();
  const std::size_t numEntries = r.count();
  system.addressMap.reserve(numEntries);
  for (std::size_t i = 0; i < numEntries; ++i) {
    sysgen::AddressMapEntry entry;
    entry.array = r.str();
    entry.byteOffset = r.i64();
    entry.byteSize = r.i64();
    entry.windowBytes = r.i64();
    system.addressMap.push_back(std::move(entry));
  }
  return system;
}

} // namespace

std::string encodePrefix(Stage stage, const StageArtifacts& artifacts) {
  ByteWriter w;
  const int last = static_cast<int>(stage);
  for (int i = 0; i <= last; ++i) {
    // One marker byte per stage section: free sanity for decode, and it
    // keeps a stage whose artifact encodes to zero bytes distinguishable
    // in the payload.
    w.u8(static_cast<std::uint8_t>(i));
    switch (static_cast<Stage>(i)) {
    case Stage::Parse:
      writeAst(w, *artifacts.ast);
      break;
    case Stage::Lower:
      writeProgram(w, *artifacts.program);
      break;
    case Stage::Optimize:
      writeProgram(w, artifacts.optimized->program);
      writeOptimizeReport(w, artifacts.optimized->report);
      break;
    case Stage::Schedule:
      writeSchedule(w, *artifacts.referenceSchedule);
      break;
    case Stage::Reschedule:
      writeSchedule(w, *artifacts.schedule);
      break;
    case Stage::Liveness:
      writeLiveness(w, *artifacts.liveness);
      break;
    case Stage::MemoryPlan:
      writePlan(w, artifacts.memory->plan);
      break;
    case Stage::Hls:
      writeKernel(w, *artifacts.kernel);
      break;
    case Stage::SysGen:
      writeSystem(w, *artifacts.system);
      break;
    }
  }
  return w.take();
}

StageArtifacts decodePrefix(Stage stage, std::string_view payload,
                            const FlowOptions& options) {
  ByteReader r(payload);
  StageArtifacts artifacts;
  const int last = static_cast<int>(stage);
  for (int i = 0; i <= last; ++i) {
    if (r.u8() != static_cast<std::uint8_t>(i))
      throw CodecError("artifact codec: stage marker mismatch");
    switch (static_cast<Stage>(i)) {
    case Stage::Parse:
      artifacts.ast = std::make_shared<const dsl::Program>(readAst(r));
      break;
    case Stage::Lower:
      artifacts.program =
          std::make_shared<const ir::Program>(readProgram(r));
      break;
    case Stage::Optimize: {
      auto optimized = std::make_shared<OptimizeArtifact>();
      optimized->program = readProgram(r);
      optimized->report = readOptimizeReport(r);
      artifacts.optimized = std::move(optimized);
      break;
    }
    case Stage::Schedule:
      // The schedules point at the optimize artifact's program, exactly
      // as Pipeline::executeStage wires fresh compiles; the shared_ptr
      // prefix keeps that program alive for any adopter.
      artifacts.referenceSchedule = std::make_shared<const sched::Schedule>(
          readSchedule(r, artifacts.optimized->program, options));
      break;
    case Stage::Reschedule:
      artifacts.schedule = std::make_shared<const sched::Schedule>(
          readSchedule(r, artifacts.optimized->program, options));
      break;
    case Stage::Liveness:
      artifacts.liveness =
          std::make_shared<const mem::LivenessInfo>(readLiveness(r));
      break;
    case Stage::MemoryPlan: {
      // The call Pipeline::executeStage makes; readSchedule has checked
      // every tensor id the builder indexes by.
      auto memory = std::make_shared<MemoryPlanArtifact>();
      memory->graph = asCodecError([&] {
        return mem::buildCompatibilityGraph(*artifacts.schedule,
                                            *artifacts.liveness);
      });
      memory->plan = readPlan(r);
      artifacts.memory = std::move(memory);
      break;
    }
    case Stage::Hls:
      artifacts.kernel =
          std::make_shared<const hls::KernelReport>(readKernel(r));
      break;
    case Stage::SysGen:
      artifacts.system =
          std::make_shared<const sysgen::SystemDesign>(readSystem(r));
      break;
    }
  }
  if (!r.atEnd())
    throw CodecError("artifact codec: trailing bytes after prefix");
  return artifacts;
}

} // namespace cfd::store
