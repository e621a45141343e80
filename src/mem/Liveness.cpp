#include "mem/Liveness.h"

#include "support/Error.h"

#include <sstream>

namespace cfd::mem {

const LiveInterval& LivenessInfo::of(ir::TensorId id) const {
  const auto it = intervals.find(id);
  CFD_ASSERT(it != intervals.end(), "no live interval for tensor");
  return it->second;
}

std::string LivenessInfo::str(const ir::Program& program) const {
  std::ostringstream os;
  for (const auto& [id, interval] : intervals)
    os << program.tensor(id).name << ": [" << interval.begin << ", "
       << interval.end << "]\n";
  return os.str();
}

LivenessInfo analyzeLiveness(const sched::Schedule& schedule) {
  CFD_ASSERT(schedule.program != nullptr, "schedule without program");
  const ir::Program& program = *schedule.program;
  LivenessInfo info;
  info.numStatements = static_cast<int>(schedule.statements.size());

  const int first = -1;
  const int last = info.numStatements;

  for (const auto& tensor : program.tensors()) {
    LiveInterval interval;
    // Definition point.
    if (tensor.kind == ir::TensorKind::Input) {
      interval.begin = first;
    } else {
      interval.begin = last; // until we find the writer
      for (int i = 0; i < info.numStatements; ++i)
        if (schedule.statements[static_cast<std::size_t>(i)].write.tensor ==
            tensor.id) {
          interval.begin = i;
          break;
        }
    }
    // Last use.
    interval.end = interval.begin;
    if (tensor.kind == ir::TensorKind::Output)
      interval.end = last;
    for (int i = info.numStatements - 1; i > interval.end; --i) {
      const auto& stmt = schedule.statements[static_cast<std::size_t>(i)];
      for (const auto& read : stmt.reads)
        if (read.tensor == tensor.id) {
          interval.end = i;
          break;
        }
      if (interval.end == i)
        break;
    }
    info.intervals.emplace(tensor.id, interval);
  }
  return info;
}

} // namespace cfd::mem
