#include "core/Flow.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace cfd::codegen {
namespace {

Flow compileHelmholtz(FlowOptions options = {}) {
  return Flow::compile(test::kInverseHelmholtz, options);
}

TEST(CEmitterTest, PrototypeMatchesFig6) {
  const Flow flow = compileHelmholtz();
  const std::string proto = flow.kernelPrototype();
  EXPECT_NE(proto.find("void kernel_body("), std::string::npos);
  // Interface order: inputs, output, locals, transients (Fig. 6).
  const auto pos = [&](const char* name) {
    return proto.find(std::string("double ") + name + "[");
  };
  EXPECT_LT(pos("S"), pos("D"));
  EXPECT_LT(pos("D"), pos("u"));
  EXPECT_LT(pos("u"), pos("v"));
  EXPECT_LT(pos("v"), pos("t"));
  EXPECT_NE(pos("t3"), std::string::npos);
  // Inputs are const.
  EXPECT_NE(proto.find("const double S"), std::string::npos);
  EXPECT_EQ(proto.find("const double v"), std::string::npos);
}

TEST(CEmitterTest, HlsPragmasPresent) {
  const Flow flow = compileHelmholtz();
  const std::string code = flow.cCode();
  EXPECT_NE(code.find("#pragma HLS INTERFACE ap_memory port=S"),
            std::string::npos);
  EXPECT_NE(code.find("#pragma HLS PIPELINE II=1"), std::string::npos);
}

TEST(CEmitterTest, PragmasCanBeDisabled) {
  FlowOptions options;
  options.emitter.hlsPragmas = false;
  const Flow flow = compileHelmholtz(options);
  EXPECT_EQ(flow.cCode().find("#pragma HLS"), std::string::npos);
}

TEST(CEmitterTest, HardwareScheduleUsesRmwAccumulation) {
  const Flow flow = compileHelmholtz();
  const std::string code = flow.cCode();
  // The hardware objective keeps reductions out of the innermost loop,
  // so contractions accumulate through the PLM arrays (+=) and no
  // register accumulator appears.
  EXPECT_NE(code.find("+="), std::string::npos);
  EXPECT_EQ(code.find("double acc"), std::string::npos);
}

TEST(CEmitterTest, SoftwareScheduleUsesRegisterAccumulator) {
  FlowOptions options;
  options.reschedule.objective = sched::ScheduleObjective::Software;
  const Flow flow = compileHelmholtz(options);
  const std::string code = flow.cCode();
  EXPECT_NE(code.find("double acc"), std::string::npos);
}

TEST(CEmitterTest, AffineOffsetsUseLayoutStrides) {
  const Flow flow = compileHelmholtz();
  const std::string code = flow.cCode();
  // Row-major [11 11 11]: offsets of the form 121*i + 11*j + k.
  EXPECT_NE(code.find("121*"), std::string::npos);
  EXPECT_NE(code.find("11*"), std::string::npos);
}

TEST(CEmitterTest, EveryStatementEmitsComment) {
  const Flow flow = compileHelmholtz();
  const std::string code = flow.cCode();
  for (int s = 0; s < 7; ++s)
    EXPECT_NE(code.find("/* S" + std::to_string(s)), std::string::npos);
}

/// Compiles `code` with the host C compiler and returns the stdout of
/// the produced binary. Requires emitTestMain.
std::string compileAndRun(const std::string& code, const std::string& tag) {
  const std::string dir = ::testing::TempDir();
  const std::string cPath = dir + "/kernel_" + tag + ".c";
  const std::string binPath = dir + "/kernel_" + tag + ".bin";
  const std::string outPath = dir + "/kernel_" + tag + ".out";
  {
    std::ofstream out(cPath);
    out << code;
  }
  const std::string compile =
      "cc -std=c99 -O2 -o " + binPath + " " + cPath + " 2>" + dir +
      "/cc_errors_" + tag + ".txt";
  if (std::system(compile.c_str()) != 0) {
    std::ifstream errors(dir + "/cc_errors_" + tag + ".txt");
    std::stringstream ss;
    ss << errors.rdbuf();
    ADD_FAILURE() << "generated C failed to compile:\n" << ss.str();
    return {};
  }
  const std::string run = binPath + " > " + outPath;
  EXPECT_EQ(std::system(run.c_str()), 0);
  std::ifstream result(outPath);
  std::stringstream ss;
  ss << result.rdbuf();
  return ss.str();
}

/// Integration: the emitted C99, compiled by a real C compiler, must
/// produce bit-identical results to the in-process interpreter (both
/// use the same deterministic inputs).
void checkGeneratedCode(FlowOptions options, const std::string& tag) {
  options.emitter.emitTestMain = true;
  const Flow flow = Flow::compile(test::kInverseHelmholtz, options);
  const std::string output = compileAndRun(flow.cCode(), tag);
  ASSERT_FALSE(output.empty());

  // Interpreter reference with the same seeds (interface order).
  eval::TensorStore store(flow.program(), flow.schedule().layouts);
  std::uint64_t seed = 1;
  for (ir::TensorId id : flow.program().interfaceOrder()) {
    const auto& tensor = flow.program().tensor(id);
    if (tensor.kind == ir::TensorKind::Input)
      store.import(id, eval::makeTestInput(tensor.type.shape, seed++));
  }
  eval::execute(flow.schedule(), store);
  const eval::DenseTensor v =
      store.exportTensor(flow.program().findTensor("v")->id);

  std::istringstream lines(output);
  double value = 0.0;
  std::size_t index = 0;
  double maxError = 0.0;
  while (lines >> value) {
    ASSERT_LT(index, v.data.size());
    maxError = std::max(maxError, std::abs(value - v.data[index]));
    ++index;
  }
  EXPECT_EQ(index, v.data.size());
  EXPECT_LE(maxError, 1e-12);
}

// Constant subexpressions whose value is NaN or Inf stay computed at
// run time: C99 has no literal for either, so a folded one ("-nan",
// "inf") kept the kernel from compiling.
TEST(CodegenIntegrationTest, NonFiniteConstantsCompile) {
  const std::pair<const char*, const char*> kernels[] = {
      {"nan", "var input u : [3]\nvar output v : [3]\nv = u * (0 / 0)\n"},
      {"inf", "var input u : [3]\nvar output v : [3]\n"
              "v = u * (1e308 * 1e308)\n"}};
  for (const auto& [tag, source] : kernels) {
    FlowOptions options;
    options.emitter.emitTestMain = true;
    const Flow flow = Flow::compile(source, options);
    EXPECT_FALSE(
        compileAndRun(flow.cCode(), std::string("nonfinite_") + tag).empty())
        << flow.cCode();
  }
}

TEST(CEmitterTest, UnrollEmitsPartitionAndUnrollPragmas) {
  FlowOptions options;
  options.hls.unrollFactor = 4;
  const Flow flow = compileHelmholtz(options);
  const std::string code = flow.cCode();
  EXPECT_NE(code.find("#pragma HLS UNROLL factor=4"), std::string::npos);
  EXPECT_NE(code.find(
                "#pragma HLS ARRAY_PARTITION variable=u cyclic factor=4"),
            std::string::npos);
}

TEST(CodegenIntegrationTest, HardwareScheduleCompilesAndMatches) {
  checkGeneratedCode({}, "hw");
}

TEST(CodegenIntegrationTest, SoftwareScheduleCompilesAndMatches) {
  FlowOptions options;
  options.reschedule.objective = sched::ScheduleObjective::Software;
  checkGeneratedCode(options, "sw");
}

TEST(CodegenIntegrationTest, ColumnMajorLayoutCompilesAndMatches) {
  FlowOptions options;
  options.layouts.defaultLayout = sched::LayoutKind::ColumnMajor;
  checkGeneratedCode(options, "colmajor");
}

TEST(CodegenIntegrationTest, NoRescheduleCompilesAndMatches) {
  FlowOptions options;
  options.reschedule.permuteLoops = false;
  options.reschedule.reorderStatements = false;
  checkGeneratedCode(options, "ref");
}

} // namespace
} // namespace cfd::codegen
