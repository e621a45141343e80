#include "rtl/SystemModel.h"

#include "support/Error.h"

namespace cfd::rtl {

PlmUnit::PlmUnit(const mem::MemoryPlan& plan) {
  storage_.reserve(plan.buffers.size());
  for (const auto& buffer : plan.buffers)
    storage_.emplace_back(static_cast<std::size_t>(buffer.depth), 0.0);
}

double PlmUnit::read(int bufferIndex, std::int64_t address) {
  auto& buffer = storage_[static_cast<std::size_t>(bufferIndex)];
  CFD_ASSERT(address >= 0 &&
                 address < static_cast<std::int64_t>(buffer.size()),
             "PLM read out of range");
  ++reads_;
  return buffer[static_cast<std::size_t>(address)];
}

void PlmUnit::write(int bufferIndex, std::int64_t address, double value) {
  auto& buffer = storage_[static_cast<std::size_t>(bufferIndex)];
  CFD_ASSERT(address >= 0 &&
                 address < static_cast<std::int64_t>(buffer.size()),
             "PLM write out of range");
  ++writes_;
  buffer[static_cast<std::size_t>(address)] = value;
}

Accelerator::Accelerator(const sched::Schedule& schedule,
                         const mem::MemoryPlan& plan,
                         const hls::KernelReport& timing)
    : schedule_(&schedule), plan_(&plan), timing_(&timing) {}

std::int64_t Accelerator::run(PlmUnit& plm) {
  const ir::Program& program = *schedule_->program;
  const auto& layouts = schedule_->layouts;

  for (const auto& stmt : schedule_->statements) {
    const int targetBuffer = plan_->bufferIndexOf(stmt.write.tensor);
    const std::int64_t targetBase =
        plan_->baseOffsetOf(stmt.write.tensor);
    // Each access is bound once: its flat offset over the loop space,
    // which evaluates per point without allocating.
    const poly::AffineExpr writeOffset = layouts.flatOffset(stmt.write);

    if (stmt.needsInit) {
      const auto& target = program.tensor(stmt.write.tensor);
      const poly::AffineExpr& offset =
          layouts.layoutOf(stmt.write.tensor).map.result(0);
      target.type.indexSpace().forEachPoint(
          [&](std::span<const std::int64_t> index) {
            plm.write(targetBuffer, targetBase + offset.evaluate(index), 0.0);
          });
    }

    struct BoundRead {
      int buffer;
      std::int64_t base;
      poly::AffineExpr offset;
    };
    std::vector<BoundRead> reads;
    reads.reserve(stmt.reads.size());
    for (const auto& read : stmt.reads)
      reads.push_back({plan_->bufferIndexOf(read.tensor),
                       plan_->baseOffsetOf(read.tensor),
                       layouts.flatOffset(read)});

    std::vector<std::int64_t> extents;
    for (const auto& loop : stmt.loops)
      extents.push_back(loop.extent);

    poly::Box::fromShape(extents).forEachPoint(
        [&](std::span<const std::int64_t> point) {
          switch (stmt.kind) {
          case ir::OpKind::Contract: {
            const double a = plm.read(reads[0].buffer,
                reads[0].base + reads[0].offset.evaluate(point));
            const double b = plm.read(reads[1].buffer,
                reads[1].base + reads[1].offset.evaluate(point));
            const std::int64_t offset =
                targetBase + writeOffset.evaluate(point);
            if (!stmt.needsInit) {
              plm.write(targetBuffer, offset, a * b);
            } else {
              const double current = plm.read(targetBuffer, offset);
              plm.write(targetBuffer, offset, current + a * b);
            }
            break;
          }
          case ir::OpKind::EntryWise: {
            const double a = plm.read(reads[0].buffer,
                reads[0].base + reads[0].offset.evaluate(point));
            const double b = plm.read(reads[1].buffer,
                reads[1].base + reads[1].offset.evaluate(point));
            double value = 0.0;
            switch (stmt.entryWise) {
            case ir::EntryWiseKind::Add:
              value = a + b;
              break;
            case ir::EntryWiseKind::Sub:
              value = a - b;
              break;
            case ir::EntryWiseKind::Mul:
              value = a * b;
              break;
            case ir::EntryWiseKind::Div:
              value = a / b;
              break;
            }
            plm.write(targetBuffer, targetBase + writeOffset.evaluate(point),
                      value);
            break;
          }
          case ir::OpKind::Copy: {
            plm.write(targetBuffer, targetBase + writeOffset.evaluate(point),
                      plm.read(reads[0].buffer,
                               reads[0].base +
                                   reads[0].offset.evaluate(point)));
            break;
          }
          case ir::OpKind::Fill: {
            plm.write(targetBuffer, targetBase + writeOffset.evaluate(point),
                      stmt.scalar);
            break;
          }
          }
        });
  }
  return timing_->totalCycles;
}

SystemModel::SystemModel(const Flow& flow)
    : flow_(&flow), design_(flow.systemDesign()) {
  for (int i = 0; i < design_.m; ++i)
    plms_.emplace_back(flow.memoryPlan());
  for (int i = 0; i < design_.k; ++i)
    accelerators_.emplace_back(flow.schedule(), flow.memoryPlan(),
                               flow.kernelReport());
}

void SystemModel::writeArray(int plmIndex, const std::string& array,
                             const eval::DenseTensor& value) {
  const ir::Tensor* tensor = flow_->program().findTensor(array);
  CFD_ASSERT(tensor != nullptr, "unknown array " + array);
  CFD_ASSERT(tensor->type.shape == value.shape, "shape mismatch");
  CFD_ASSERT(plmIndex >= 0 && plmIndex < numPlmUnits(),
             "PLM index out of range");
  const int buffer = flow_->memoryPlan().bufferIndexOf(tensor->id);
  const std::int64_t base = flow_->memoryPlan().baseOffsetOf(tensor->id);
  const poly::AffineExpr& offset =
      flow_->schedule().layouts.layoutOf(tensor->id).map.result(0);
  PlmUnit& plm = plms_[static_cast<std::size_t>(plmIndex)];
  tensor->type.indexSpace().forEachPoint(
      [&](std::span<const std::int64_t> index) {
        plm.write(buffer, base + offset.evaluate(index), value.at(index));
      });
}

eval::DenseTensor SystemModel::readArray(int plmIndex,
                                         const std::string& array) {
  const ir::Tensor* tensor = flow_->program().findTensor(array);
  CFD_ASSERT(tensor != nullptr, "unknown array " + array);
  CFD_ASSERT(plmIndex >= 0 && plmIndex < numPlmUnits(),
             "PLM index out of range");
  const int buffer = flow_->memoryPlan().bufferIndexOf(tensor->id);
  const std::int64_t base = flow_->memoryPlan().baseOffsetOf(tensor->id);
  const poly::AffineExpr& offset =
      flow_->schedule().layouts.layoutOf(tensor->id).map.result(0);
  PlmUnit& plm = plms_[static_cast<std::size_t>(plmIndex)];
  eval::DenseTensor out = eval::DenseTensor::zeros(tensor->type.shape);
  tensor->type.indexSpace().forEachPoint(
      [&](std::span<const std::int64_t> index) {
        out.at(index) = plm.read(buffer, base + offset.evaluate(index));
      });
  return out;
}

std::int64_t SystemModel::startRound() {
  // Fig. 7c: accelerator i operates on PLM (i * batch + batchCounter).
  std::int64_t maxKernelCycles = 0;
  for (int i = 0; i < design_.k; ++i) {
    const int plmIndex = i * design_.batch + batchCounter_;
    const std::int64_t cycles =
        accelerators_[static_cast<std::size_t>(i)].run(
            plms_[static_cast<std::size_t>(plmIndex)]);
    maxKernelCycles = std::max(maxKernelCycles, cycles);
  }
  batchCounter_ = (batchCounter_ + 1) % design_.batch;
  interrupt_ = true;
  const std::int64_t roundCycles = maxKernelCycles +
                                   hls::kRoundBaseOverheadCycles +
                                   hls::kPerKernelDoneCycles * design_.k;
  totalCycles_ += roundCycles;
  return roundCycles;
}

std::int64_t SystemModel::runIteration() {
  std::int64_t cycles = 0;
  for (int b = 0; b < design_.batch; ++b) {
    cycles += startRound();
    CFD_ASSERT(interruptPending(), "round must raise the interrupt");
    clearInterrupt();
  }
  return cycles;
}

std::vector<std::map<std::string, eval::DenseTensor>>
SystemModel::processElements(std::span<const ElementInput> elements) {
  std::vector<std::map<std::string, eval::DenseTensor>> outputs;
  outputs.reserve(elements.size());
  const ir::Program& program = flow_->program();

  std::size_t next = 0;
  while (next < elements.size()) {
    const std::size_t count =
        std::min<std::size_t>(static_cast<std::size_t>(design_.m),
                              elements.size() - next);
    // Host writes the inputs of up to m elements into their PLM windows.
    for (std::size_t i = 0; i < count; ++i)
      for (const auto& [name, value] : elements[next + i].arrays)
        writeArray(static_cast<int>(i), name, value);
    runIteration();
    // Host reads back the outputs.
    for (std::size_t i = 0; i < count; ++i) {
      std::map<std::string, eval::DenseTensor> result;
      for (const auto& tensor : program.tensors())
        if (tensor.kind == ir::TensorKind::Output)
          result[tensor.name] = readArray(static_cast<int>(i), tensor.name);
      outputs.push_back(std::move(result));
    }
    next += count;
  }
  return outputs;
}

} // namespace cfd::rtl
