// Persistent artifact store (DESIGN.md §13): binary codec round-trips,
// cold-process prefix adoption through a shared disk store, GC eviction
// order, and the fault-injection contract — every corruption is a clean
// miss, never a crash.
#include "core/Pipeline.h"
#include "core/Session.h"
#include "dsl/Parser.h"
#include "store/ArtifactCodec.h"
#include "store/ArtifactStore.h"
#include "support/Hash.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <fstream>
#include <latch>
#include <string>
#include <thread>
#include <vector>

namespace cfd {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty directory under the system temp root, removed when
/// the fixture goes away (each test gets its own store root).
class StoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("cfd_store_test_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
};

/// Compiles `source` fully and hands back the pipeline (the artifact
/// prefix plus its stage keys and normalized options).
std::unique_ptr<Pipeline> compileAll(const std::string& source,
                                     FlowOptions options = {}) {
  auto pipeline = std::make_unique<Pipeline>(source, std::move(options));
  pipeline->runAll();
  return pipeline;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The pipeline's artifacts with the optimize pass timings zeroed: they
/// are wall-clock, and the only bytes of a prefix that differ from run
/// to run.
StageArtifacts artifactsWithoutTimings(const Pipeline& pipeline) {
  StageArtifacts artifacts = pipeline.artifacts();
  auto optimized = std::make_shared<OptimizeArtifact>(*artifacts.optimized);
  for (ir::PassResult& pass : optimized->report.passes)
    pass.millis = 0.0;
  artifacts.optimized = std::move(optimized);
  return artifacts;
}

std::uint64_t digestOf(std::string_view bytes) {
  Fnv1aHasher digest;
  digest.mix(bytes);
  return digest.value();
}

// ---- Codec round-trips ----

TEST(ArtifactCodecTest, EveryStageRoundTripsByteIdentically) {
  for (const char* source :
       {test::kInverseHelmholtz, test::kInterpolation}) {
    const auto pipeline = compileAll(source);
    for (int i = 0; i < kStageCount; ++i) {
      const Stage stage = static_cast<Stage>(i);
      const std::string payload =
          store::encodePrefix(stage, pipeline->artifacts());
      const StageArtifacts decoded =
          store::decodePrefix(stage, payload, pipeline->options());
      // Byte-identical re-serialization is the codec's round-trip
      // invariant: encode(decode(encode(P))) == encode(P).
      EXPECT_EQ(store::encodePrefix(stage, decoded), payload)
          << "stage " << i;
    }
  }
}

TEST(ArtifactCodecTest, DecodedArtifactsAreSemanticallyEqual) {
  const auto pipeline = compileAll(test::kInverseHelmholtz);
  const std::string payload =
      store::encodePrefix(Stage::SysGen, pipeline->artifacts());
  const StageArtifacts decoded =
      store::decodePrefix(Stage::SysGen, payload, pipeline->options());

  EXPECT_EQ(decoded.program->str(), pipeline->artifacts().program->str());
  EXPECT_EQ(decoded.optimized->program.str(),
            pipeline->artifacts().optimized->program.str());
  EXPECT_EQ(decoded.system->str(), pipeline->artifacts().system->str());
  // The decoded schedule's non-serialized members are re-derived: the
  // program pointer targets the *decoded* optimize artifact (never the
  // encoder's), and layouts are re-materialized from it.
  EXPECT_EQ(decoded.schedule->program, &decoded.optimized->program);
  EXPECT_EQ(decoded.referenceSchedule->program, &decoded.optimized->program);
  EXPECT_EQ(decoded.schedule->statements.size(),
            pipeline->artifacts().schedule->statements.size());
  // The compatibility graph is not stored; decode rebuilds it from the
  // decoded schedule and liveness.
  const mem::CompatibilityGraph& graph = pipeline->artifacts().memory->graph;
  EXPECT_EQ(decoded.memory->graph.nodes(), graph.nodes());
  EXPECT_EQ(decoded.memory->graph.addressSpaceEdges(),
            graph.addressSpaceEdges());
  EXPECT_EQ(decoded.memory->graph.interfaceEdges(), graph.interfaceEdges());
}

TEST(ArtifactCodecTest, TruncatedPayloadThrowsCodecError) {
  const auto pipeline = compileAll(test::kInverseHelmholtz);
  const std::string payload =
      store::encodePrefix(Stage::SysGen, pipeline->artifacts());
  EXPECT_THROW(store::decodePrefix(
                   Stage::SysGen,
                   std::string_view(payload).substr(0, payload.size() / 2),
                   pipeline->options()),
               store::CodecError);
  EXPECT_THROW(
      store::decodePrefix(Stage::SysGen, payload + "x", pipeline->options()),
      store::CodecError);
}

// Store format v2 fixes the bytes of every prefix. Pass timings are
// wall-clock, so they are zeroed first.
TEST(ArtifactCodecTest, MemoryPlanPrefixBytesArePinned) {
  const auto pipeline = compileAll(test::kInverseHelmholtz);
  const std::string payload = store::encodePrefix(
      Stage::MemoryPlan, artifactsWithoutTimings(*pipeline));
  EXPECT_EQ(payload.size(), 12733u);
  EXPECT_EQ(digestOf(payload), 0x01333f9746a73b3full);
}

// Decode rebuilds the compatibility graph from the decoded schedule, and
// the builder indexes an n x n matrix by its tensor ids, so every op
// index and access tensor id of a schedule must fall inside the decoded
// program. Both schedules are checked: the reference one in a Schedule
// prefix, and the rescheduled one the graph is built from.
TEST(ArtifactCodecTest, ScheduleIdOutsideTheProgramThrowsCodecError) {
  const auto pipeline = compileAll(test::kInverseHelmholtz);
  const ir::Program& program = pipeline->artifacts().optimized->program;
  const int numTensors = static_cast<int>(program.tensors().size());
  const int numOps = static_cast<int>(program.operations().size());

  using Break = std::function<void(sched::ScheduledStatement&)>;
  const auto decodeBroken = [&](Stage stage, const Break& breakIt,
                                const std::string& what) {
    SCOPED_TRACE(what);
    StageArtifacts artifacts = pipeline->artifacts();
    auto& slot = stage == Stage::Schedule ? artifacts.referenceSchedule
                                          : artifacts.schedule;
    sched::Schedule broken = *slot;
    ASSERT_FALSE(broken.statements.front().reads.empty());
    breakIt(broken.statements.front());
    slot = std::make_shared<const sched::Schedule>(std::move(broken));
    const std::string payload = store::encodePrefix(stage, artifacts);
    EXPECT_THROW(store::decodePrefix(stage, payload, pipeline->options()),
                 store::CodecError);
  };
  for (const Stage stage : {Stage::Schedule, Stage::MemoryPlan}) {
    for (const int id : {-1, numTensors}) {
      decodeBroken(
          stage, [id](auto& stmt) { stmt.write.tensor = id; },
          "write tensor " + std::to_string(id));
      decodeBroken(
          stage, [id](auto& stmt) { stmt.reads.back().tensor = id; },
          "read tensor " + std::to_string(id));
    }
    for (const int index : {-1, numOps})
      decodeBroken(
          stage, [index](auto& stmt) { stmt.opIndex = index; },
          "op index " + std::to_string(index));
  }

  // The unbroken prefix still decodes.
  const std::string valid =
      store::encodePrefix(Stage::MemoryPlan, pipeline->artifacts());
  EXPECT_NO_THROW(
      store::decodePrefix(Stage::MemoryPlan, valid, pipeline->options()));
}

// A checksum-valid entry may carry any shape. Layouts, which schedule
// decoding builds, multiply extents into row-major strides, so a shape
// over the element bound must be a CodecError before that: the AST's
// shapes are checked as they are read, and a program's by verify().
TEST(ArtifactCodecTest, ShapeOverTheElementBoundThrowsCodecError) {
  const std::string huge = "[4294967296 4294967296 8]";
  const std::string source = "var input u : " + huge +
                             "\nvar output v : " + huge + "\nv = u\n";
  // The same kernel at a small shape supplies the schedule.
  const auto pipeline = compileAll(
      "var input u : [2 2 8]\nvar output v : [2 2 8]\nv = u\n");
  const StageArtifacts small = pipeline->artifacts();

  Diagnostics diagnostics;
  const auto hugeAst = std::make_shared<const dsl::Program>(
      dsl::Parser(source, diagnostics).parseProgram());
  ASSERT_FALSE(diagnostics.hasErrors()) << diagnostics.str();
  ir::Program hugeProgram;
  for (const ir::Tensor& tensor : small.optimized->program.tensors())
    hugeProgram.addTensor(tensor.name, tensor.kind,
                          ir::TensorType{{4294967296, 4294967296, 8}});
  for (const ir::Operation& op : small.optimized->program.operations())
    hugeProgram.addOperation(op);

  const auto expectBoundError = [&](const StageArtifacts& artifacts) {
    const std::string payload =
        store::encodePrefix(Stage::Schedule, artifacts);
    try {
      store::decodePrefix(Stage::Schedule, payload, pipeline->options());
      ADD_FAILURE() << "decoded a shape over the element bound";
    } catch (const store::CodecError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "shape " + huge +
                    " exceeds the bound of 268,435,456 elements"),
                std::string::npos)
          << e.what();
    }
  };
  StageArtifacts artifacts = small;
  artifacts.ast = hugeAst;
  artifacts.program = std::make_shared<const ir::Program>(hugeProgram);
  artifacts.optimized = std::make_shared<const OptimizeArtifact>(
      OptimizeArtifact{hugeProgram, small.optimized->report});
  {
    SCOPED_TRACE("every stage carries the shape");
    expectBoundError(artifacts);
  }
  artifacts.ast = small.ast;
  {
    SCOPED_TRACE("only the programs carry the shape");
    expectBoundError(artifacts);
  }
  artifacts = small;
  artifacts.ast = hugeAst;
  {
    SCOPED_TRACE("only the AST carries the shape");
    expectBoundError(artifacts);
  }
}

// Every step of the v2 payload checksum is a bijection of its state, so
// a change confined to one 8-byte word always changes the value; adding
// or removing a byte changes the length it mixes in.
TEST(ArtifactCodecTest, PayloadChecksumSeesEverySingleByteChange) {
  // 1 KiB plus a 3-byte tail, filled by a fixed LCG.
  std::string buffer(1027, '\0');
  std::uint64_t state = 0x0123456789abcdefull;
  for (char& byte : buffer) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<char>(state >> 56);
  }
  const std::uint64_t value = store::payloadChecksum(buffer);
  for (std::size_t offset = 0; offset < buffer.size(); ++offset) {
    const char original = buffer[offset];
    for (int delta = 1; delta < 256; ++delta) {
      buffer[offset] = static_cast<char>(original ^ delta);
      ASSERT_NE(store::payloadChecksum(buffer), value)
          << "byte " << offset << " ^ " << delta;
    }
    buffer[offset] = original;
  }
  ASSERT_EQ(store::payloadChecksum(buffer), value);

  const std::string_view view(buffer);
  EXPECT_NE(store::payloadChecksum(view.substr(1)), value);
  EXPECT_NE(store::payloadChecksum(view.substr(0, view.size() - 1)), value);
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    EXPECT_NE(store::payloadChecksum(buffer + c), value) << "append " << byte;
    EXPECT_NE(store::payloadChecksum(c + buffer), value) << "prepend " << byte;
  }
}

// A Lower prefix is adopted by the optimizer passes, which index by its
// tensor ids and contraction dims without checks, so a checksum-valid
// program that breaks verify() must decode as a CodecError.
TEST(ArtifactCodecTest, ProgramFailingVerifyThrowsCodecError) {
  const auto pipeline = compileAll(test::kInverseHelmholtz);
  const ir::Program& lowered = *pipeline->artifacts().program;
  const int numTensors = static_cast<int>(lowered.tensors().size());
  // Helmholtz lowers to a contraction first.
  const ir::Operation& contraction = lowered.operations().front();
  ASSERT_EQ(contraction.kind, ir::OpKind::Contract);
  const int rhsRank = lowered.tensor(contraction.rhs).type.rank();

  const auto decodeBroken =
      [&](const std::function<void(std::vector<ir::Operation>&)>& breakIt,
          const std::string& message) {
        SCOPED_TRACE(message);
        ir::Program broken = lowered;
        breakIt(broken.operations());
        StageArtifacts artifacts = pipeline->artifacts();
        artifacts.program = std::make_shared<const ir::Program>(broken);
        const std::string payload =
            store::encodePrefix(Stage::Lower, artifacts);
        try {
          store::decodePrefix(Stage::Lower, payload, pipeline->options());
          ADD_FAILURE() << "decoded a program that fails verify()";
        } catch (const store::CodecError& e) {
          EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
              << e.what();
        }
      };
  decodeBroken([&](auto& ops) { ops.front().lhs = numTensors; },
               "tensor id out of range");
  decodeBroken(
      [&](auto& ops) { ops.front().pairs.front().second = rhsRank; },
      "contraction pair dimension out of range");
  // The last statement first: it reads a transient nothing wrote yet.
  decodeBroken(
      [](auto& ops) { std::rotate(ops.begin(), ops.end() - 1, ops.end()); },
      "read before definition");

  // The unbroken program still decodes.
  const std::string valid =
      store::encodePrefix(Stage::Lower, pipeline->artifacts());
  EXPECT_EQ(store::decodePrefix(Stage::Lower, valid, pipeline->options())
                .program->str(),
            lowered.str());
}

// ---- Store: publish, load, verification ----

TEST_F(StoreTest, PublishedEntryLoadsAndVerifies) {
  const auto pipeline = compileAll(test::kInverseHelmholtz);
  store::ArtifactStore store({root_});
  ASSERT_TRUE(store.enabled());

  const std::uint64_t key = pipeline->stageKey(Stage::SysGen);
  store.publish(key, Stage::SysGen, pipeline->artifacts(),
                pipeline->source(), pipeline->options());
  EXPECT_EQ(store.stats().publishes, 1);
  EXPECT_EQ(store.entryCount(), 1u);
  EXPECT_TRUE(fs::exists(store.entryPath(key)));

  const auto entry = store.load(key, Stage::SysGen, pipeline->source(),
                                pipeline->options());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->stage, Stage::SysGen);
  EXPECT_EQ(*entry->source, pipeline->source());
  EXPECT_EQ(entry->artifacts.system->str(),
            pipeline->artifacts().system->str());
  EXPECT_GT(entry->approxBytes, 0u);
  EXPECT_EQ(store.stats().hits, 1);
}

// The whole entry file of store format v2: header, source, option
// fingerprints, checksum and payload.
TEST_F(StoreTest, SysGenEntryFileBytesArePinned) {
  const auto pipeline = compileAll(test::kInverseHelmholtz);
  store::ArtifactStore store({root_});
  const std::uint64_t key = pipeline->stageKey(Stage::SysGen);
  store.publish(key, Stage::SysGen, artifactsWithoutTimings(*pipeline),
                pipeline->source(), pipeline->options());
  const std::string bytes = readFile(store.entryPath(key));
  EXPECT_EQ(bytes.size(), 13752u);
  EXPECT_EQ(digestOf(bytes), 0x05e4610adcab5adaull);
  EXPECT_NE(store.load(key, Stage::SysGen, pipeline->source(),
                       pipeline->options()),
            nullptr);
}

TEST_F(StoreTest, AbsentKeyIsAMiss) {
  store::ArtifactStore store({root_});
  const auto pipeline = compileAll(test::kInterpolation);
  EXPECT_EQ(store.load(0xdeadbeefULL, Stage::Parse, pipeline->source(),
                       pipeline->options()),
            nullptr);
  EXPECT_EQ(store.stats().misses, 1);
  EXPECT_EQ(store.stats().verifyFailures, 0);
}

TEST_F(StoreTest, DifferentOptionsRejectTheEntry) {
  const auto pipeline = compileAll(test::kInverseHelmholtz);
  store::ArtifactStore store({root_});
  const std::uint64_t key = pipeline->stageKey(Stage::SysGen);
  store.publish(key, Stage::SysGen, pipeline->artifacts(),
                pipeline->source(), pipeline->options());

  // A same-key probe under different consumed options must fail the
  // fingerprint echo (keys are Merkle-derived, so this only happens on
  // a 64-bit collision — verification is the collision guard).
  FlowOptions other = pipeline->options();
  other.hls.clockMHz = other.hls.clockMHz + 100;
  EXPECT_EQ(store.load(key, Stage::SysGen, pipeline->source(), other),
            nullptr);
  EXPECT_EQ(store.stats().verifyFailures, 1);

  // Same for a different source text.
  EXPECT_EQ(store.load(key, Stage::SysGen, "var input x : [2]\n",
                       pipeline->options()),
            nullptr);
  EXPECT_EQ(store.stats().verifyFailures, 2);
}

// poly::AffineExpr keeps kMaxDims (support/Format.h) coefficients
// inline, so a checksum-valid Schedule entry whose access map claims 9
// dimensions must be rejected by the codec before any expression is
// built: a CodecError naming the bound, and one verify failure in the
// store.
TEST_F(StoreTest, AccessMapOverTheRankBoundIsOneVerifyFailure) {
  const auto pipeline = compileAll(test::kInverseHelmholtz);
  const StageArtifacts& artifacts = pipeline->artifacts();
  const std::string payload =
      store::encodePrefix(Stage::Schedule, artifacts);
  // The encoded write access of the reference schedule's first
  // statement, at its own rank or padded with zero coefficients.
  const ir::Access& write =
      artifacts.referenceSchedule->statements.front().write;
  const auto encodeWrite = [&](int numDims) {
    store::ByteWriter w;
    w.i32(write.tensor);
    w.i32(numDims);
    w.u64(static_cast<std::uint64_t>(write.map.numResults()));
    for (const poly::AffineExpr& expr : write.map.results()) {
      w.u64(static_cast<std::uint64_t>(numDims));
      for (int dim = 0; dim < numDims; ++dim)
        w.i64(dim < expr.numDims() ? expr.coefficient(dim) : 0);
      w.i64(expr.constantTerm());
    }
    return w.take();
  };
  const std::string valid = encodeWrite(write.map.numDims());
  const std::size_t at = payload.find(valid);
  ASSERT_NE(at, std::string::npos);
  std::string broken = payload;
  broken.replace(at, valid.size(), encodeWrite(9));

  try {
    store::decodePrefix(Stage::Schedule, broken, pipeline->options());
    ADD_FAILURE() << "decoded an affine map over the rank bound";
  } catch (const store::CodecError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "affine map over 9 dimensions exceeds the bound of 8"),
              std::string::npos)
        << e.what();
  }

  // The same payload behind a valid header and checksum.
  store::ArtifactStore store({root_});
  const std::uint64_t key = pipeline->stageKey(Stage::Schedule);
  store.publish(key, Stage::Schedule, artifacts, pipeline->source(),
                pipeline->options());
  const std::string entry = readFile(store.entryPath(key));
  // An entry ends in the payload checksum, the payload length and the
  // payload.
  ASSERT_GT(entry.size(), payload.size() + 16);
  store::ByteWriter tail;
  tail.u64(store::payloadChecksum(broken));
  tail.str(broken);
  writeFile(store.entryPath(key),
            entry.substr(0, entry.size() - payload.size() - 16) +
                tail.take());
  EXPECT_EQ(store.load(key, Stage::Schedule, pipeline->source(),
                       pipeline->options()),
            nullptr);
  const auto stats = store.stats();
  EXPECT_EQ(stats.verifyFailures, 1);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
}

TEST_F(StoreTest, UnusableRootDisablesTheStore) {
  // A root under a regular file cannot be created.
  const std::string file = root_ + "_file";
  writeFile(file, "not a directory");
  store::ArtifactStore store({file + "/sub"});
  EXPECT_FALSE(store.enabled());

  const auto pipeline = compileAll(test::kInterpolation);
  EXPECT_EQ(store.load(1, Stage::Parse, pipeline->source(),
                       pipeline->options()),
            nullptr);
  store.publish(1, Stage::Parse, pipeline->artifacts(), pipeline->source(),
                pipeline->options()); // must not throw
  EXPECT_EQ(store.stats().publishes, 0);
  fs::remove(file);
}

// ---- Cold-process prefix adoption through Session ----

TEST_F(StoreTest, ColdSessionAdoptsFullPrefixFromDisk) {
  std::string warmSystem;
  {
    Session warm(SessionOptions{.cacheDir = root_});
    auto result = warm.compile(CompileRequest(test::kInverseHelmholtz));
    ASSERT_TRUE(result);
    warmSystem = result->flow().systemDesign().str();
    const auto stats = warm.stats();
    EXPECT_TRUE(stats.artifactStoreEnabled);
    EXPECT_EQ(stats.artifactStore.publishes, kStageCount);
    EXPECT_EQ(stats.artifactStore.hits, 0);
  }

  // A brand-new Session — fresh in-memory caches, shared disk store —
  // must adopt the full parse..sysgen prefix: every stage is a cache
  // hit served by one disk load, and the artifacts are byte-identical.
  Session cold(SessionOptions{.cacheDir = root_});
  auto result = cold.compile(CompileRequest(test::kInverseHelmholtz));
  ASSERT_TRUE(result);
  EXPECT_EQ(result->flow().systemDesign().str(), warmSystem);

  const auto stats = cold.stats();
  EXPECT_EQ(stats.artifactStore.hits, 1);
  EXPECT_EQ(stats.artifactStore.verifyFailures, 0);
  EXPECT_EQ(stats.stageCache.hits, kStageCount);
  EXPECT_EQ(stats.stageCache.misses, 0);
  // Under the default byte bound, a restart that only adopts writes and
  // evicts nothing.
  EXPECT_EQ(stats.artifactStore.publishes, 0);
  EXPECT_EQ(stats.artifactStore.evictions, 0);
}

TEST_F(StoreTest, ColdSessionAdoptsSharedPrefixUnderChangedHlsOptions) {
  {
    Session warm(SessionOptions{.cacheDir = root_});
    ASSERT_TRUE(warm.compile(CompileRequest(test::kInverseHelmholtz)));
  }

  // Changing an HLS-only option invalidates the hls/sysgen keys but the
  // parse..memory-plan prefix (7 stages) is shared and must come from
  // disk.
  FlowOptions options;
  options.hls.clockMHz = 250;
  Session cold(SessionOptions{.cacheDir = root_});
  ASSERT_TRUE(cold.compile(
      CompileRequest(test::kInverseHelmholtz).options(options)));

  const auto stats = cold.stats();
  EXPECT_EQ(stats.artifactStore.hits, 1);
  EXPECT_EQ(stats.stageCache.hits,
            static_cast<int>(Stage::MemoryPlan) + 1);
  // Only hls and sysgen were recomputed (and published for the next
  // process).
  EXPECT_EQ(stats.stageCache.misses, 2);
  EXPECT_EQ(stats.artifactStore.publishes, 2);
}

TEST_F(StoreTest, FreshSessionAdoptsAMultiKernelSweepFromDisk) {
  // 64 points: extents 4..11, each with and without a smoothing
  // statement, at 4 HLS clocks. Every kernel needs its own
  // parse..memory-plan prefix, so only the disk tier carries them into
  // a new process.
  std::vector<std::string> sources;
  for (int extent = 4; extent < 12; ++extent) {
    const std::string n = std::to_string(extent);
    sources.push_back(test::inverseHelmholtzSource(extent));
    sources.push_back(sources.back() + "var output w : [" + n + " " + n +
                      " " + n + "]\nw = D * v\n");
  }
  const auto sweep = [&](Session::Stats& stats) {
    Session session(SessionOptions{.cacheDir = root_});
    std::vector<std::string> systems;
    for (const std::string& source : sources)
      for (int clock = 0; clock < 4; ++clock) {
        FlowOptions options;
        options.hls.clockMHz = 100.0 + 20.0 * clock;
        const auto compiled =
            session.compile(CompileRequest(source).options(options));
        EXPECT_TRUE(compiled.ok()) << compiled.errorText();
        systems.push_back(compiled ? compiled->flow().systemDesign().str()
                                   : "");
      }
    stats = session.stats();
    return systems;
  };

  Session::Stats cold, warm;
  const std::vector<std::string> coldSystems = sweep(cold);
  const std::vector<std::string> warmSystems = sweep(warm);
  // 16 kernels x 9 stages, plus hls and sysgen at 3 more clocks each.
  EXPECT_EQ(cold.artifactStore.publishes, 240);
  EXPECT_EQ(warm.artifactStore.hits, 64);
  EXPECT_EQ(warm.artifactStore.verifyFailures, 0);
  EXPECT_EQ(warm.stageCache.hits, 576);
  EXPECT_EQ(warm.stageCache.misses, 0);
  EXPECT_EQ(warmSystems, coldSystems);
}

TEST_F(StoreTest, DeepestAcceptedExpressionsReloadFromDisk) {
  // The codec decodes every expression the parser accepts, so each
  // shape at dsl::kMaxExprDepth is published once and then adopted by a
  // fresh Session instead of failing verification on every restart.
  for (const std::string& source :
       test::deepExpressionSources(dsl::kMaxExprDepth)) {
    fs::remove_all(root_);
    {
      Session first(SessionOptions{.cacheDir = root_});
      ASSERT_TRUE(first.compile(CompileRequest(source)));
      EXPECT_EQ(first.stats().artifactStore.publishes, kStageCount);
    }
    Session fresh(SessionOptions{.cacheDir = root_});
    ASSERT_TRUE(fresh.compile(CompileRequest(source)));
    const auto stats = fresh.stats();
    EXPECT_EQ(stats.artifactStore.hits, 1);
    EXPECT_EQ(stats.artifactStore.verifyFailures, 0);
    EXPECT_EQ(stats.stageCache.misses, 0);
  }
}

TEST_F(StoreTest, StageFailuresStayInMemory) {
  // The Fig. 1 kernel at m = 64 fails sysgen (Eq. 3). The failure entry
  // is a memory-tier entry only: parse..hls go to disk, sysgen's failure
  // does not, so a fresh Session adopts hls from disk and reruns sysgen.
  const CompileRequest request =
      CompileRequest(test::kInverseHelmholtz).set("m", "64");
  std::string firstText;
  {
    Session first(SessionOptions{.cacheDir = root_});
    const auto failed = first.compile(request);
    ASSERT_FALSE(failed.ok());
    firstText = failed.errorText();
    const auto stats = first.stats();
    EXPECT_EQ(stats.stageCache.entries, kStageCount);
    EXPECT_EQ(stats.artifactStore.publishes, kStageCount - 1);
  }
  store::ArtifactStore disk({root_, /*capacityBytes=*/0});
  EXPECT_EQ(disk.entryCount(), static_cast<std::size_t>(kStageCount - 1));

  Session fresh(SessionOptions{.cacheDir = root_});
  const auto again = fresh.compile(request);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.errorText(), firstText);
  const auto stats = fresh.stats();
  EXPECT_EQ(stats.artifactStore.hits, 1); // the hls prefix
  EXPECT_EQ(stats.artifactStore.publishes, 0);
  EXPECT_EQ(stats.stageCache.hits, kStageCount - 1);
  EXPECT_EQ(stats.stageCache.misses, 1); // sysgen, computed again
}

// ---- GC: byte bound, mtime order, stale tmp sweeping ----

TEST_F(StoreTest, GcEvictsOldestMtimeFirstUntilUnderTheBound) {
  store::ArtifactStore store({root_, /*capacityBytes=*/0}); // unbounded
  std::vector<std::uint64_t> keys;
  std::vector<std::uintmax_t> sizes;
  for (int extent : {5, 6, 7, 8}) {
    const auto pipeline = compileAll(test::inverseHelmholtzSource(extent));
    const std::uint64_t key = pipeline->stageKey(Stage::SysGen);
    store.publish(key, Stage::SysGen, pipeline->artifacts(),
                  pipeline->source(), pipeline->options());
    keys.push_back(key);
    sizes.push_back(fs::file_size(store.entryPath(key)));
  }
  ASSERT_EQ(store.entryCount(), 4u);

  // Pin a strictly increasing mtime order (publish order, seconds
  // apart, so filesystem timestamp granularity cannot reorder them).
  const auto base = fs::file_time_type::clock::now();
  for (std::size_t i = 0; i < keys.size(); ++i)
    fs::last_write_time(store.entryPath(keys[i]),
                        base - std::chrono::seconds(60 - 10 * i));

  // Bound to exactly the two newest entries: the two oldest must go,
  // in mtime order, and the newest two must survive.
  store.setCapacityBytes(static_cast<std::size_t>(sizes[2] + sizes[3]));
  EXPECT_EQ(store.stats().evictions, 2);
  EXPECT_FALSE(fs::exists(store.entryPath(keys[0])));
  EXPECT_FALSE(fs::exists(store.entryPath(keys[1])));
  EXPECT_TRUE(fs::exists(store.entryPath(keys[2])));
  EXPECT_TRUE(fs::exists(store.entryPath(keys[3])));
  EXPECT_LE(store.diskBytes(), sizes[2] + sizes[3]);
}

// Opening a store does not scan it, so a bound below what is already on
// disk takes effect at the first publish: loads hit and evict nothing,
// then that publish evicts oldest-mtime entries until under the bound.
TEST_F(StoreTest, FirstPublishEnforcesTheBoundOverAnExistingStore) {
  std::vector<std::unique_ptr<Pipeline>> pipelines;
  for (int extent : {5, 6, 7, 8, 9})
    pipelines.push_back(compileAll(test::inverseHelmholtzSource(extent)));
  const auto publishTo = [](store::ArtifactStore& store,
                            const Pipeline& pipeline) {
    const std::uint64_t key = pipeline.stageKey(Stage::SysGen);
    store.publish(key, Stage::SysGen, pipeline.artifacts(),
                  pipeline.source(), pipeline.options());
    return key;
  };

  std::vector<std::uint64_t> keys;
  std::vector<std::uintmax_t> sizes;
  {
    store::ArtifactStore unbounded({root_, /*capacityBytes=*/0});
    const auto base = fs::file_time_type::clock::now();
    for (std::size_t i = 0; i < 4; ++i) {
      keys.push_back(publishTo(unbounded, *pipelines[i]));
      const std::string path = unbounded.entryPath(keys[i]);
      sizes.push_back(fs::file_size(path));
      fs::last_write_time(path, base - std::chrono::seconds(60 - 10 * i));
    }
  }
  const std::uintmax_t total = sizes[0] + sizes[1] + sizes[2] + sizes[3];
  const std::size_t bound = static_cast<std::size_t>(total - 1);

  store::ArtifactStore store({root_, bound});
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_NE(store.load(keys[i], Stage::SysGen, pipelines[i]->source(),
                         pipelines[i]->options()),
              nullptr);
  EXPECT_EQ(store.stats().hits, 4);
  EXPECT_EQ(store.stats().evictions, 0);
  EXPECT_EQ(store.entryCount(), 4u);

  const std::uint64_t newKey = publishTo(store, *pipelines[4]);
  std::uintmax_t onDisk = total + fs::file_size(store.entryPath(newKey));
  std::size_t evicted = 0;
  while (onDisk > bound && evicted < sizes.size())
    onDisk -= sizes[evicted++];
  ASSERT_LT(evicted, keys.size());
  EXPECT_EQ(store.stats().evictions, static_cast<std::int64_t>(evicted));
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(fs::exists(store.entryPath(keys[i])), i >= evicted) << i;
  EXPECT_TRUE(fs::exists(store.entryPath(newKey)));
  EXPECT_LE(store.diskBytes(), bound);
}

// Threads racing the first publishes into one bounded store may each
// seed the byte estimate; whatever order they land in, every publish
// counts, every surviving entry verifies, and one collection meets the
// bound.
TEST_F(StoreTest, RacingFirstPublishesIntoABoundedStore) {
  std::vector<std::unique_ptr<Pipeline>> pipelines;
  std::size_t payloadBytes = 0;
  for (int extent : {5, 6, 7, 8}) {
    pipelines.push_back(compileAll(test::inverseHelmholtzSource(extent)));
    for (int s = 0; s < kStageCount; ++s)
      payloadBytes += store::encodePrefix(static_cast<Stage>(s),
                                          pipelines.back()->artifacts())
                          .size();
  }
  const std::size_t bound = payloadBytes / 2;
  store::ArtifactStore store({root_, bound});

  std::latch start(static_cast<std::ptrdiff_t>(pipelines.size()));
  std::vector<std::thread> threads;
  for (const auto& pipeline : pipelines)
    threads.emplace_back([&store, &start, &pipeline] {
      start.arrive_and_wait();
      for (int s = 0; s < kStageCount; ++s) {
        const Stage stage = static_cast<Stage>(s);
        store.publish(pipeline->stageKey(stage), stage,
                      pipeline->artifacts(), pipeline->source(),
                      pipeline->options());
      }
    });
  for (std::thread& thread : threads)
    thread.join();
  const auto published = static_cast<std::int64_t>(pipelines.size()) *
                         kStageCount;
  EXPECT_EQ(store.stats().publishes, published);

  for (const auto& pipeline : pipelines)
    for (int s = 0; s < kStageCount; ++s) {
      const Stage stage = static_cast<Stage>(s);
      const std::uint64_t key = pipeline->stageKey(stage);
      if (fs::exists(store.entryPath(key))) {
        EXPECT_NE(store.load(key, stage, pipeline->source(),
                             pipeline->options()),
                  nullptr);
      }
    }
  EXPECT_EQ(store.stats().verifyFailures, 0);

  store.collectGarbage();
  EXPECT_LE(store.diskBytes(), bound);
  EXPECT_EQ(store.stats().publishes, published);
}

TEST_F(StoreTest, GcSweepsStaleTmpFilesAndKeepsFreshOnes) {
  store::ArtifactStore store({root_});
  const std::string stale = root_ + "/0123456789abcdef.cfda.999.0.tmp";
  const std::string fresh = root_ + "/fedcba9876543210.cfda.999.1.tmp";
  writeFile(stale, "half-written entry from a crashed publisher");
  writeFile(fresh, "in-flight publish from a live process");
  fs::last_write_time(stale,
                      fs::file_time_type::clock::now() -
                          std::chrono::hours(1));

  store.collectGarbage();
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(fresh));
  EXPECT_EQ(store.stats().staleTmpRemoved, 1);
  EXPECT_EQ(store.stats().evictions, 0);
}

// ---- Fault injection: every corruption is a clean miss ----

class StoreFaultTest : public StoreTest {
protected:
  /// Publishes the full Inverse Helmholtz prefix and returns its key.
  std::uint64_t publishEntry(store::ArtifactStore& store) {
    pipeline_ = compileAll(test::kInverseHelmholtz);
    const std::uint64_t key = pipeline_->stageKey(Stage::SysGen);
    store.publish(key, Stage::SysGen, pipeline_->artifacts(),
                  pipeline_->source(), pipeline_->options());
    return key;
  }

  /// The corrupted entry must read as a verify-failure miss — and a
  /// fresh Session pointed at the same store must still compile.
  void expectCleanMiss(store::ArtifactStore& store, std::uint64_t key) {
    EXPECT_EQ(store.load(key, Stage::SysGen, pipeline_->source(),
                         pipeline_->options()),
              nullptr);
    EXPECT_EQ(store.stats().verifyFailures, 1);
    EXPECT_EQ(store.stats().hits, 0);

    Session session(SessionOptions{.cacheDir = root_});
    auto result =
        session.compile(CompileRequest(test::kInverseHelmholtz));
    ASSERT_TRUE(result);
    EXPECT_EQ(result->flow().systemDesign().str(),
              pipeline_->artifacts().system->str());
  }

  std::unique_ptr<Pipeline> pipeline_;
};

TEST_F(StoreFaultTest, TruncatedEntryIsACleanMiss) {
  store::ArtifactStore store({root_});
  const std::uint64_t key = publishEntry(store);
  fs::resize_file(store.entryPath(key),
                  fs::file_size(store.entryPath(key)) / 2);
  expectCleanMiss(store, key);
}

TEST_F(StoreFaultTest, FlippedPayloadByteIsACleanMiss) {
  store::ArtifactStore store({root_});
  const std::uint64_t key = publishEntry(store);
  std::string bytes = readFile(store.entryPath(key));
  bytes[bytes.size() - 16] ^= 0x40; // deep in the payload
  writeFile(store.entryPath(key), bytes);
  expectCleanMiss(store, key);
}

TEST_F(StoreFaultTest, BadFormatVersionIsACleanMiss) {
  store::ArtifactStore store({root_});
  const std::uint64_t key = publishEntry(store);
  std::string bytes = readFile(store.entryPath(key));
  bytes[4] = static_cast<char>(0xff); // version field follows the magic
  writeFile(store.entryPath(key), bytes);
  expectCleanMiss(store, key);
}

TEST_F(StoreFaultTest, GarbageEntryFileIsACleanMiss) {
  store::ArtifactStore store({root_});
  const std::uint64_t key = publishEntry(store);
  writeFile(store.entryPath(key), "these are not the bytes of an entry");
  expectCleanMiss(store, key);
}

TEST_F(StoreFaultTest, EmptyEntryFileIsACleanMiss) {
  store::ArtifactStore store({root_});
  const std::uint64_t key = publishEntry(store);
  writeFile(store.entryPath(key), "");
  expectCleanMiss(store, key);
}

TEST_F(StoreFaultTest, FifoAtTheEntryPathIsACleanMiss) {
  store::ArtifactStore store({root_});
  const std::uint64_t key = publishEntry(store);
  fs::remove(store.entryPath(key));
  // Opening a FIFO for reading waits for a writer unless the reader
  // refuses to block.
  ASSERT_EQ(::mkfifo(store.entryPath(key).c_str(), 0600), 0);
  expectCleanMiss(store, key);
}

TEST_F(StoreFaultTest, DirectoryAtTheEntryPathIsACleanMiss) {
  store::ArtifactStore store({root_});
  const std::uint64_t key = publishEntry(store);
  fs::remove(store.entryPath(key));
  ASSERT_TRUE(fs::create_directory(store.entryPath(key)));
  expectCleanMiss(store, key);
}

// Store format v2 has no redundancy a reader may skip: every other value
// of every header byte, a changed byte at a stride through the payload,
// and a cut at every header offset each count exactly one verify
// failure.
TEST_F(StoreFaultTest, EverySingleByteCorruptionIsAVerifyFailure) {
  store::ArtifactStore store({root_});
  const std::uint64_t key = publishEntry(store);
  const std::string path = store.entryPath(key);
  const std::string valid = readFile(path);
  const std::size_t header =
      valid.size() -
      store::encodePrefix(Stage::SysGen, pipeline_->artifacts()).size();
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);

  std::int64_t failures = 0;
  const auto rejectedOnce = [&] {
    const bool rejected =
        store.load(key, Stage::SysGen, pipeline_->source(),
                   pipeline_->options()) == nullptr;
    const auto stats = store.stats();
    return rejected && stats.verifyFailures == ++failures &&
           stats.misses == 0 && stats.hits == 0;
  };
  const auto writeAt = [&](std::size_t offset, char byte) {
    return ::pwrite(fd, &byte, 1, static_cast<off_t>(offset)) == 1;
  };

  for (std::size_t offset = 0; offset < header; ++offset)
    for (int delta = 1; delta < 256; ++delta) {
      ASSERT_TRUE(writeAt(offset, static_cast<char>(valid[offset] ^ delta)));
      ASSERT_TRUE(rejectedOnce()) << "header byte " << offset << " ^ "
                                  << delta;
      ASSERT_TRUE(writeAt(offset, valid[offset]));
    }
  for (std::size_t offset = header; offset < valid.size(); offset += 61) {
    ASSERT_TRUE(writeAt(offset, static_cast<char>(valid[offset] ^
                                                  (1 << (offset % 8)))));
    ASSERT_TRUE(rejectedOnce()) << "payload byte " << offset;
    ASSERT_TRUE(writeAt(offset, valid[offset]));
  }
  for (std::size_t length = 0; length <= header; ++length) {
    ASSERT_EQ(::ftruncate(fd, static_cast<off_t>(length)), 0);
    ASSERT_TRUE(rejectedOnce()) << "cut at " << length;
    ASSERT_EQ(::pwrite(fd, valid.data(), valid.size(), 0),
              static_cast<ssize_t>(valid.size()));
  }
  ::close(fd);

  // The restored entry still loads: the corruptions were all undone.
  EXPECT_NE(store.load(key, Stage::SysGen, pipeline_->source(),
                       pipeline_->options()),
            nullptr);
}

// A publish replaces the entry file at its key, so an entry that fails
// verification costs one recompile: the process that recompiles the
// prefix publishes it over the bad file, and the next process adopts it.
TEST_F(StoreFaultTest, RejectedEntryIsReplacedByTheNextPublish) {
  {
    store::ArtifactStore store({root_});
    const std::uint64_t key = publishEntry(store);
    std::string bytes = readFile(store.entryPath(key));
    bytes[bytes.size() - 16] ^= 0x40; // deep in the payload
    writeFile(store.entryPath(key), bytes);
  }
  SessionOptions options;
  options.cacheDir = root_;
  {
    Session session(options);
    ASSERT_TRUE(session.compile(CompileRequest(test::kInverseHelmholtz)));
    const auto stats = session.stats();
    EXPECT_EQ(stats.artifactStore.verifyFailures, 1);
    EXPECT_EQ(stats.artifactStore.publishes, kStageCount);
  }

  Session fresh(options);
  auto result = fresh.compile(CompileRequest(test::kInverseHelmholtz));
  ASSERT_TRUE(result);
  EXPECT_EQ(result->flow().systemDesign().str(),
            pipeline_->artifacts().system->str());
  const auto stats = fresh.stats();
  EXPECT_EQ(stats.artifactStore.hits, 1);
  EXPECT_EQ(stats.artifactStore.verifyFailures, 0);
  EXPECT_EQ(stats.stageCache.misses, 0);
}

TEST_F(StoreFaultTest, StaleTmpFromCrashedPublisherDoesNotBlockTheKey) {
  store::ArtifactStore store({root_});
  const auto pipeline = compileAll(test::kInverseHelmholtz);
  const std::uint64_t key = pipeline->stageKey(Stage::SysGen);
  // A crashed publisher left a half-written temp file for this key; it
  // is not the entry, so probes miss cleanly and a later publish of the
  // same key succeeds beside it.
  writeFile(store.entryPath(key) + ".4242.0.tmp", "half-written");
  EXPECT_EQ(store.load(key, Stage::SysGen, pipeline->source(),
                       pipeline->options()),
            nullptr);
  EXPECT_EQ(store.stats().misses, 1);

  store.publish(key, Stage::SysGen, pipeline->artifacts(),
                pipeline->source(), pipeline->options());
  EXPECT_NE(store.load(key, Stage::SysGen, pipeline->source(),
                       pipeline->options()),
            nullptr);
}

TEST_F(StoreFaultTest, RacingPublishersBothSucceed) {
  const auto pipeline = compileAll(test::kInverseHelmholtz);
  const std::uint64_t key = pipeline->stageKey(Stage::SysGen);

  // Two stores on one directory stand in for two processes: both
  // publish the same key concurrently; whoever's rename lands last
  // wins, and the survivor must verify (the contents are identical by
  // construction).
  store::ArtifactStore a({root_});
  store::ArtifactStore b({root_});
  std::thread ta([&] {
    for (int i = 0; i < 8; ++i) {
      a.publish(key, Stage::SysGen, pipeline->artifacts(),
                pipeline->source(), pipeline->options());
      fs::remove(a.entryPath(key)); // reopen the race
    }
  });
  std::thread tb([&] {
    for (int i = 0; i < 8; ++i)
      b.publish(key, Stage::SysGen, pipeline->artifacts(),
                pipeline->source(), pipeline->options());
  });
  ta.join();
  tb.join();

  store::ArtifactStore verify({root_});
  verify.publish(key, Stage::SysGen, pipeline->artifacts(),
                 pipeline->source(), pipeline->options());
  const auto entry = verify.load(key, Stage::SysGen, pipeline->source(),
                                 pipeline->options());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->artifacts.system->str(),
            pipeline->artifacts().system->str());
  // No leftover temp files: every publish either renamed or cleaned up.
  for (const auto& item : fs::directory_iterator(root_))
    EXPECT_FALSE(item.path().string().ends_with(".tmp"))
        << item.path().string();
}

} // namespace
} // namespace cfd
