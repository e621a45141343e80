#include "sysgen/SystemGenerator.h"

#include "mem/Bram.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Hash.h"
#include "support/TextBuilder.h"

#include <sstream>

namespace cfd::sysgen {

std::uint64_t SystemOptions::fingerprint() const {
  Fnv1aHasher h;
  h.mix(std::string_view("sysgen::SystemOptions"));
  h.mix(memories);
  h.mix(kernels);
  h.mix(device.lut);
  h.mix(device.ff);
  h.mix(device.dsp);
  h.mix(device.bram36);
  h.mix(reservedBram36);
  return h.value();
}

const char* architectureVariantName(ArchitectureVariant variant) {
  switch (variant) {
  case ArchitectureVariant::SingleKernel:
    return "single kernel (Fig. 7a)";
  case ArchitectureVariant::ParallelEqual:
    return "parallel m = k (Fig. 7b)";
  case ArchitectureVariant::Batched:
    return "batched m > k (Fig. 7c)";
  }
  return "unknown";
}

namespace {

bool isPow2(int value) { return value > 0 && (value & (value - 1)) == 0; }

/// Full-system resources for k kernels and m PLM units.
hls::Resources systemResources(const hls::KernelReport& kernel,
                               const mem::MemoryPlan& plan, int k, int m) {
  hls::Resources total;
  total.lut = hls::kInfraBaseLut +
              k * (kernel.resources.lut + hls::kPerReplicaIntegrationLut) +
              m * static_cast<int>(plan.buffers.size()) *
                  hls::kPerBufferRoutingLut;
  total.ff = hls::kInfraBaseFf +
             k * (kernel.resources.ff + hls::kPerReplicaIntegrationFf);
  total.dsp = k * kernel.resources.dsp;
  total.bram36 = m * plan.plmBram36() + k * kernel.resources.bram36;
  return total;
}

bool fits(const hls::Resources& total, const SystemOptions& options) {
  return total.lut <= options.device.lut && total.ff <= options.device.ff &&
         total.dsp <= options.device.dsp &&
         total.bram36 <= options.device.bram36 - options.reservedBram36;
}

} // namespace

int maxEqualReplicas(const hls::KernelReport& kernel,
                     const mem::MemoryPlan& plan,
                     const SystemOptions& options) {
  int best = 0;
  for (int m = 1; m <= 1024; m *= 2) {
    if (fits(systemResources(kernel, plan, m, m), options))
      best = m;
    else
      break;
  }
  if (best == 0)
    throw FlowError("even a single kernel does not fit the device "
                    "(Eq. 3 infeasible)");
  return best;
}

SystemDesign generateSystem(const hls::KernelReport& kernel,
                            const mem::MemoryPlan& plan,
                            const sched::Schedule& schedule,
                            const SystemOptions& options) {
  CFD_ASSERT(schedule.program != nullptr, "schedule without program");
  const ir::Program& program = *schedule.program;

  SystemDesign design;
  design.m = options.memories > 0
                 ? options.memories
                 : maxEqualReplicas(kernel, plan, options);
  design.k = options.kernels > 0 ? options.kernels : design.m;

  if (design.k > design.m)
    throw FlowError("k <= m is required: accelerators can only run in "
                    "parallel when each has a memory to work with");
  if (design.m % design.k != 0 || !isPow2(design.m / design.k))
    throw FlowError("m must be a power-of-two multiple of k (system "
                    "integration constraint, paper Sec. V-B)");
  design.batch = design.m / design.k;
  design.variant = design.m == design.k
                       ? (design.m == 1 ? ArchitectureVariant::SingleKernel
                                        : ArchitectureVariant::ParallelEqual)
                       : ArchitectureVariant::Batched;

  design.perKernel = kernel.resources;
  design.plmBram36PerUnit = plan.plmBram36();
  design.total = systemResources(kernel, plan, design.k, design.m);
  if (!fits(design.total, options))
    throw FlowError("requested system violates Eq. 3: needs " +
                    design.total.str());

  // ---- Host address map: power-of-two aligned windows per interface
  // array, PLM windows aligned to the next power of two of their sum.
  std::int64_t offset = 0;
  for (ir::TensorId id : program.interfaceOrder()) {
    const ir::Tensor& tensor = program.tensor(id);
    if (!tensor.isInterface())
      continue;
    AddressMapEntry entry;
    entry.array = tensor.name;
    entry.byteSize = tensor.type.numElements() * 8;
    entry.windowBytes = mem::nextPow2(entry.byteSize);
    entry.byteOffset = offset;
    offset += entry.windowBytes;
    design.addressMap.push_back(std::move(entry));
    if (tensor.kind == ir::TensorKind::Input)
      design.inputBytesPerElement += tensor.type.numElements() * 8;
    else
      design.outputBytesPerElement += tensor.type.numElements() * 8;
  }
  design.plmWindowBytes = mem::nextPow2(offset);
  return design;
}

std::string SystemDesign::str() const {
  std::ostringstream os;
  os << "system: m=" << m << " k=" << k << " batch=" << batch << " ("
     << architectureVariantName(variant) << ")\n";
  os << "  per kernel: " << perKernel.str() << "\n";
  os << "  per PLM unit: " << plmBram36PerUnit << " BRAM36\n";
  os << "  total: " << total.str() << "\n";
  os << "  PLM window: " << plmWindowBytes << " B (in "
     << formatThousands(inputBytesPerElement) << " B, out "
     << formatThousands(outputBytesPerElement) << " B per element)\n";
  for (const auto& entry : addressMap)
    os << "    " << padRight(entry.array, 8) << " @ +" << entry.byteOffset
       << " (" << entry.byteSize << " B in a " << entry.windowBytes
       << " B window)\n";
  return os.str();
}

std::string emitHostCode(const SystemDesign& design,
                         const sched::Schedule& schedule) {
  const ir::Program& program = *schedule.program;
  TextBuilder out(1536 + 160 * design.addressMap.size());
  out << "/* Host control program generated by the system generator\n"
      << "   (paper Sec. V-B). Ne elements, m=" << design.m
      << " PLM units, k=" << design.k << " accelerators, batch="
      << design.batch << ". */\n"
      << "#include <stdint.h>\n#include <string.h>\n\n"
      << "#define CFD_M " << design.m << '\n'
      << "#define CFD_K " << design.k << '\n'
      << "#define CFD_BATCH " << design.batch << '\n'
      << "#define CFD_PLM_WINDOW 0x";
  out.hex(static_cast<std::uint64_t>(design.plmWindowBytes)) << "\n\n";
  for (const auto& entry : design.addressMap) {
    out << "#define CFD_OFF_" << entry.array << " 0x";
    out.hex(static_cast<std::uint64_t>(entry.byteOffset)) << '\n';
  }
  out << R"(
/* AXI-lite peripheral registers (one interface controls all k kernels). */
#define CTRL_START 0x00
#define CTRL_DONE  0x04

extern volatile uint8_t* plm_base;   /* PLM aperture (m windows)        */
extern volatile uint32_t* ctrl_base; /* AXI-lite control peripheral     */
extern void wait_for_interrupt(void);

)";
  // Host-side element accessors for every interface array.
  for (const auto& entry : design.addressMap)
    out << "extern void* host_" << entry.array << "(long element);\n";
  out << R"(
void run_simulation(long num_elements)
{
  for (long e = 0; e < num_elements; e += CFD_M) {
    /* Transfer the input arrays for m points (power-of-two aligned). */
    for (int i = 0; i < CFD_M; ++i) {
      volatile uint8_t* window = plm_base + (size_t)i * CFD_PLM_WINDOW;
)";
  for (const auto& entry : design.addressMap) {
    const ir::Tensor* tensor = program.findTensor(entry.array);
    if (tensor == nullptr || tensor->kind != ir::TensorKind::Input)
      continue;
    out << "      memcpy((void*)(window + CFD_OFF_" << entry.array
        << "), host_" << entry.array << "(e + i), " << entry.byteSize
        << ");\n";
  }
  out << R"(    }
    /* Execute batch rounds: broadcast start, wait for the interrupt. */
    for (int b = 0; b < CFD_BATCH; ++b) {
      ctrl_base[CTRL_START / 4] = 1u; /* start all k accelerators */
      wait_for_interrupt();           /* raised when all k are done */
    }
    /* Read back the outputs for m points. */
    for (int i = 0; i < CFD_M; ++i) {
      volatile uint8_t* window = plm_base + (size_t)i * CFD_PLM_WINDOW;
)";
  for (const auto& entry : design.addressMap) {
    const ir::Tensor* tensor = program.findTensor(entry.array);
    if (tensor == nullptr || tensor->kind != ir::TensorKind::Output)
      continue;
    out << "      memcpy(host_" << entry.array << "(e + i), (void*)(window"
        << " + CFD_OFF_" << entry.array << "), " << entry.byteSize
        << ");\n";
  }
  out << "    }\n  }\n}\n";
  return out.take();
}

} // namespace cfd::sysgen
