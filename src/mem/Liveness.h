// Liveness analysis over schedule space (paper §IV-F).
//
// The paper composes RAW dependences with the schedule and a ge_le helper
// to map every array element to the set of schedule tuples at which it is
// live. For straight-line statement sequences (this program class after
// scheduling) the image of that composition for a whole array collapses
// to one interval of statement positions, which is what Mnemosyne's
// array-granularity sharing consumes. We therefore represent liveness as
// inclusive intervals over:
//
//   position -1        = the virtual `first` statement (host writes
//                        inputs before execution),
//   positions 0..N-1   = scheduled statements,
//   position  N        = the virtual `last` statement (host reads
//                        outputs after execution).
#pragma once

#include "sched/Schedule.h"

#include <map>
#include <string>

namespace cfd::mem {

/// Inclusive interval of statement positions during which an array holds
/// a live value.
struct LiveInterval {
  int begin = 0;
  int end = 0;

  bool overlaps(const LiveInterval& other) const {
    return begin <= other.end && other.begin <= end;
  }
  int length() const { return end - begin + 1; }

  friend bool operator==(const LiveInterval&,
                         const LiveInterval&) = default;
};

struct LivenessInfo {
  std::map<ir::TensorId, LiveInterval> intervals;
  int numStatements = 0;

  const LiveInterval& of(ir::TensorId id) const;
  std::string str(const ir::Program& program) const;
};

/// Computes whole-array live intervals for every tensor of the schedule.
///
/// Inputs are defined at the virtual `first` statement; outputs are read
/// by the virtual `last` statement (paper §IV-F: "Correctly inferring the
/// liveness of input and output arrays requires a modified virtual
/// schedule").
LivenessInfo analyzeLiveness(const sched::Schedule& schedule);

} // namespace cfd::mem
