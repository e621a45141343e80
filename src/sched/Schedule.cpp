#include "sched/Schedule.h"

#include "support/Error.h"

#include <sstream>

namespace cfd::sched {

std::int64_t ScheduledStatement::tripCount() const {
  std::int64_t trip = 1;
  for (const auto& loop : loops)
    trip *= loop.extent;
  return trip;
}

int ScheduledStatement::loopPositionOf(int domainDim) const {
  for (std::size_t p = 0; p < loops.size(); ++p)
    if (loops[p].domainDim == domainDim)
      return static_cast<int>(p);
  return -1;
}

bool ScheduledStatement::innermostIsReduction() const {
  return !loops.empty() && loops.back().isReduction;
}

void refreshAccesses(const ir::Program& program, ScheduledStatement& stmt) {
  const ir::Operation& op =
      program.operations()[static_cast<std::size_t>(stmt.opIndex)];
  const int rank = static_cast<int>(stmt.loops.size());
  // Map from loop space to the op's inner domain:
  // domainIndex[loops[p].domainDim] = loopIndex[p].
  std::vector<poly::AffineExpr> results(
      static_cast<std::size_t>(rank), poly::AffineExpr::constant(rank, 0));
  for (int p = 0; p < rank; ++p) {
    const int domainDim = stmt.loops[static_cast<std::size_t>(p)].domainDim;
    CFD_ASSERT(domainDim >= 0 && domainDim < rank,
               "loop domain dim out of range");
    results[static_cast<std::size_t>(domainDim)] =
        poly::AffineExpr::dim(rank, p);
  }
  const poly::AffineMap loopToDomain(rank, std::move(results));

  const ir::Access write = program.writeAccess(op);
  stmt.write = {write.tensor, write.map.compose(loopToDomain)};
  std::vector<ir::Access> reads = program.readAccesses(op);
  for (ir::Access& read : reads)
    read.map = read.map.compose(loopToDomain);
  stmt.reads = std::move(reads);
}

Schedule buildReferenceSchedule(const ir::Program& program,
                                const LayoutOptions& layoutOptions) {
  Schedule schedule;
  schedule.program = &program;
  schedule.layouts = LayoutAssignment::materialize(program, layoutOptions);

  const auto& ops = program.operations();
  schedule.statements.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ir::Operation& op = ops[i];
    ScheduledStatement stmt;
    stmt.opIndex = static_cast<int>(i);
    stmt.name = "S" + std::to_string(i);
    stmt.kind = op.kind;
    stmt.entryWise = op.entryWise;
    stmt.scalar = op.scalar;
    stmt.needsInit = op.isReduction();

    const poly::Box domain = program.domain(op);
    const int outDims = program.numOutputDims(op);
    stmt.loops.reserve(static_cast<std::size_t>(domain.rank()));
    for (int d = 0; d < domain.rank(); ++d) {
      LoopDim loop;
      loop.domainDim = d;
      loop.extent = domain.extent(d);
      loop.isReduction = d >= outDims;
      stmt.loops.push_back(loop);
    }
    refreshAccesses(program, stmt);
    schedule.statements.push_back(std::move(stmt));
  }
  return schedule;
}

std::optional<SelfDependence>
accumulatorSelfDependence(const ScheduledStatement& stmt) {
  if (stmt.kind != ir::OpKind::Contract || !stmt.needsInit)
    return std::nullopt;
  int lastReduction = -1;
  for (std::size_t p = 0; p < stmt.loops.size(); ++p)
    if (stmt.loops[p].isReduction)
      lastReduction = static_cast<int>(p);
  CFD_ASSERT(lastReduction >= 0, "accumulating statement without "
                                 "reduction loop");
  SelfDependence dependence;
  dependence.distance.assign(stmt.loops.size(), 0);
  dependence.distance[static_cast<std::size_t>(lastReduction)] = 1;
  dependence.flattenedDistance = 1;
  for (std::size_t p = static_cast<std::size_t>(lastReduction) + 1;
       p < stmt.loops.size(); ++p)
    dependence.flattenedDistance *= stmt.loops[p].extent;
  return dependence;
}

std::string Schedule::islStr() const {
  CFD_ASSERT(program != nullptr, "schedule without program");
  std::ostringstream os;
  for (std::size_t s = 0; s < statements.size(); ++s) {
    const auto& stmt = statements[s];
    os << stmt.name << "[";
    for (std::size_t p = 0; p < stmt.loops.size(); ++p) {
      if (p != 0)
        os << ", ";
      os << "d" << stmt.loops[p].domainDim;
    }
    os << "] -> [" << s;
    for (const auto& loop : stmt.loops)
      os << ", d" << loop.domainDim;
    os << "]\n";
  }
  return os.str();
}

std::string Schedule::str() const {
  CFD_ASSERT(program != nullptr, "schedule without program");
  std::ostringstream os;
  for (const auto& stmt : statements) {
    os << stmt.name << ": ";
    for (const auto& loop : stmt.loops)
      os << "for[d" << loop.domainDim << (loop.isReduction ? "r" : "")
         << ":" << loop.extent << "] ";
    os << "-> " << program->tensor(stmt.write.tensor).name;
    os << " (reads:";
    for (const auto& read : stmt.reads)
      os << " " << program->tensor(read.tensor).name;
    os << ")\n";
  }
  return os.str();
}

} // namespace cfd::sched
