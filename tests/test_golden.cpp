// Golden-artifact tests: exact snapshots of the generated artifacts for
// a small fixed kernel. These pin down the emitter contracts (C99
// shape, Mnemosyne config format, host protocol constants); any
// intentional change must update the goldens.
#include "core/Flow.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

namespace cfd {
namespace {

constexpr const char* kTinyMatMul = R"(
var input  A : [2 3]
var input  B : [3 2]
var output C : [2 2]
C = A # B . [[1 2]]
)";

Flow compileTiny() {
  FlowOptions options;
  options.system.memories = 1;
  options.system.kernels = 1;
  return Flow::compile(kTinyMatMul, options);
}

TEST(GoldenTest, TensorIRDump) {
  const Flow flow = compileTiny();
  EXPECT_EQ(flow.program().str(),
            "input A : [2 3]\n"
            "input B : [3 2]\n"
            "output C : [2 2]\n"
            "C = contract(A, B, pairs={(1,0)})\n");
}

TEST(GoldenTest, KernelPrototype) {
  const Flow flow = compileTiny();
  EXPECT_EQ(flow.kernelPrototype(),
            "void kernel_body(const double A[restrict static 6], "
            "const double B[restrict static 6], "
            "double C[restrict static 4])");
}

TEST(GoldenTest, GeneratedCContainsExactLoopNest) {
  const Flow flow = compileTiny();
  const std::string code = flow.cCode();
  // Hardware objective: k (the reduction) is not innermost; the
  // accumulation goes through the target array.
  EXPECT_NE(code.find("C[2*i0 + i2] += A[3*i0 + i1] * B[2*i1 + i2];"),
            std::string::npos)
      << code;
  // Zero-init loop precedes it.
  EXPECT_NE(code.find("C[2*i0 + i1] = 0.0;"), std::string::npos) << code;
}

TEST(GoldenTest, MnemosyneConfigSnapshot) {
  const Flow flow = compileTiny();
  const std::string config = flow.mnemosyneConfig();
  EXPECT_NE(config.find("A depth=6 width=64 kind=input live=[-1,0]"),
            std::string::npos)
      << config;
  EXPECT_NE(config.find("C depth=4 width=64 kind=output live=[0,1]"),
            std::string::npos)
      << config;
  EXPECT_NE(config.find("S0 writes C reads A B rmw"), std::string::npos)
      << config;
}

/// FNV-1a (64-bit) over the bytes of `text`.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Size and FNV-1a of one emitted artifact.
struct ArtifactPin {
  std::size_t size = 0;
  std::uint64_t digest = 0;
};

/// One kernel and options, with the pins of its five emitted texts.
struct EmitterCase {
  const char* name;
  std::string source;
  FlowOptions options;
  ArtifactPin c, cWithTestMain, prototype, mnemosyne, host;
};

/// A kernel whose opt-0 fill literals hit the corners of `%.17g`: a
/// decimal with no exact binary value, a large value printed with a
/// signed exponent, a three-digit negative exponent and an integer.
constexpr const char* kLiteralKernel = R"(
var input  u : [3 4]
var output v : [3 4]
v = u * 0.1 + 1e21 - u * 2.5e-300 + 3
)";

std::vector<EmitterCase> emitterCases() {
  std::vector<EmitterCase> cases;
  cases.push_back({"helmholtz", test::kInverseHelmholtz, {},
                   {4141, 0xc5c6e8284a1c696cull}, {5909, 0x83672be09c2b29f1ull},
                   {357, 0xbad6826d512cf2fbull}, {1104, 0x709330165cfd9724ull},
                   {1786, 0x2ba9f3addbc7ed86ull}});
  FlowOptions columnMajor;
  columnMajor.layouts.defaultLayout = sched::LayoutKind::ColumnMajor;
  columnMajor.hls.unrollFactor = 4;
  cases.push_back({"column-major unroll 4", test::kInverseHelmholtz,
                   columnMajor,
                   {4891, 0xbd0f625ed2a68cf4ull}, {6659, 0x9865cb445994cee9ull},
                   {357, 0xbad6826d512cf2fbull}, {1104, 0x709330165cfd9724ull},
                   {1782, 0x059fc38e7d42d78aull}});
  FlowOptions software;
  software.reschedule.objective = sched::ScheduleObjective::Software;
  cases.push_back({"software objective", test::kInverseHelmholtz, software,
                   {4529, 0x63ce2c0e26f19158ull}, {6297, 0xcf9f6331cfe21f75ull},
                   {357, 0xbad6826d512cf2fbull}, {1120, 0x46704d511b4b953bull},
                   {1786, 0x2ba9f3addbc7ed86ull}});
  FlowOptions opt0;
  opt0.optimize.level = 0;
  cases.push_back({"redundant sem opt 0", test::kRedundantSem, opt0,
                   {4375, 0xcf57fd18b016153aull}, {6299, 0xb8d0c2ae36ae3db3ull},
                   {379, 0x3c9c76f54e71ed41ull}, {1210, 0xf38c85c7523a60e3ull},
                   {1906, 0x1864a6a1bb2d8ecbull}});
  cases.push_back({"contraction chain 8", test::contractionChainSource(8),
                   {},
                   {13973, 0xfe0ec1da9576b619ull}, {16126, 0xe5b6c6ebf77cd887ull},
                   {895, 0xd9fa39030a167cf9ull}, {5971, 0x3241ddc7889cbcf3ull},
                   {1661, 0x54cc96c688173985ull}});
  cases.push_back({"literals opt 0", kLiteralKernel, opt0,
                   {2107, 0xed826d48fd730a1bull}, {3292, 0xa298a6baf6dcda91ull},
                   {326, 0x5aa7371a80318bc0ull}, {1160, 0x8ad9e9babb7b499full},
                   {1529, 0x59195593caf07d5cull}});
  return cases;
}

// Every byte the emitters write, pinned per output: the C translation
// unit with and without its test main, the prototype, the Mnemosyne
// configuration and the host program. perfbench's universe has no
// literals, so its golden digests alone would not see a drifted double.
TEST(GoldenTest, EmittedArtifactBytesArePinned) {
  for (const EmitterCase& pinned : emitterCases()) {
    SCOPED_TRACE(pinned.name);
    const Flow flow = Flow::compile(pinned.source, pinned.options);
    codegen::CEmitterOptions withMain = flow.options().emitter;
    withMain.emitTestMain = true;
    const std::pair<std::string, ArtifactPin> outputs[] = {
        {flow.cCode(), pinned.c},
        {codegen::emitC(flow.schedule(), withMain), pinned.cWithTestMain},
        {flow.kernelPrototype(), pinned.prototype},
        {flow.mnemosyneConfig(), pinned.mnemosyne},
        {flow.hostCode(), pinned.host},
    };
    for (const auto& [text, pin] : outputs) {
      EXPECT_EQ(text.size(), pin.size);
      EXPECT_EQ(fnv1a(text), pin.digest);
      // No growth slack is handed back with an artifact.
      EXPECT_EQ(text.capacity(), text.size());
    }
  }
  // The literal kernel's fills, as `%.17g` prints them.
  FlowOptions opt0;
  opt0.optimize.level = 0;
  const std::string code = Flow::compile(kLiteralKernel, opt0).cCode();
  for (const char* literal : {"t0[0] = 0.10000000000000001;",
                              "t2[0] = 1e+21;", "t4[0] = 2.5e-300;",
                              "t7[0] = 3;"})
    EXPECT_NE(code.find(literal), std::string::npos) << literal;
}

TEST(GoldenTest, HostCodeProtocolConstants) {
  const Flow flow = compileTiny();
  const std::string host = flow.hostCode();
  EXPECT_NE(host.find("#define CFD_M 1"), std::string::npos);
  // Windows: A 64 B (48 padded), B 64 B, C 32 B -> 160 B -> 0x100.
  EXPECT_NE(host.find("#define CFD_PLM_WINDOW 0x100"), std::string::npos)
      << host;
}

TEST(GoldenTest, CompatibilityDotSnapshot) {
  const Flow flow = compileTiny();
  const std::string dot = flow.compatibilityDot();
  // The single MAC statement reads A, B and (read-modify-write) C, so
  // no pair is interface compatible and none is lifetime-disjoint.
  EXPECT_EQ(dot,
            "graph compatibility {\n"
            "  A [shape=box];\n"
            "  B [shape=box];\n"
            "  C [shape=box];\n"
            "}\n");
}

TEST(GoldenTest, UnaryMinusParsesAndEvaluates) {
  const Flow flow = Flow::compile(
      "var input a : [4]\nvar output b : [4]\nb = -a * 2 + a");
  EXPECT_LE(flow.validate(), 1e-12);
}

} // namespace
} // namespace cfd
