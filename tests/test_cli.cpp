// The cfdc command-line contract, checked against the built binary:
// every usage error of the flag parser exits 2 with one line naming the
// error and one pointing at --help; --help alone prints the reference,
// on stdout, and exits 0; --sweep/--tune run as one session job that
// --deadline-ms bounds (exit 3 with the "job-queue" diagnostic when it
// expires). The CFDC_PATH definition names the cfdc the build made.
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace cfd {
namespace {

namespace fs = std::filesystem;

struct CliRun {
  int exitCode = -1;
  std::string out;
  std::string err;
};

std::string readFile(const fs::path& path) {
  std::ifstream input(path);
  std::stringstream text;
  text << input.rdbuf();
  return text.str();
}

int lineCount(const std::string& text) {
  int lines = 0;
  for (char c : text)
    lines += c == '\n' ? 1 : 0;
  return lines;
}

class CliTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cfd_cli_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    kernel_ = (dir_ / "kernel.cfd").string();
    std::ofstream(kernel_) << test::kInverseHelmholtz;
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs cfdc with `args` ("{k}" stands for the kernel file), stdout
  /// and stderr captured in files.
  CliRun run(std::vector<std::string> args) const {
    for (std::string& arg : args)
      if (arg == "{k}")
        arg = kernel_;
    const std::string outPath = (dir_ / "out.txt").string();
    const std::string errPath = (dir_ / "err.txt").string();
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, outPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, errPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char*> argv;
    std::string program = CFDC_PATH;
    argv.push_back(program.data());
    for (std::string& arg : args)
      argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    CliRun result;
    if (posix_spawn(&pid, program.c_str(), &actions, nullptr, argv.data(),
                    environ) == 0) {
      int status = 0;
      if (::waitpid(pid, &status, 0) == pid && WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    }
    posix_spawn_file_actions_destroy(&actions);
    result.out = readFile(outPath);
    result.err = readFile(errPath);
    return result;
  }

  fs::path dir_;
  std::string kernel_;
};

TEST_F(CliTest, HelpPrintsTheReferenceOnStdout) {
  for (const char* flag : {"--help", "-h"}) {
    const CliRun result = run({flag});
    EXPECT_EQ(result.exitCode, 0) << flag;
    EXPECT_EQ(result.out.rfind("usage: cfdc", 0), 0u) << flag;
    EXPECT_GT(lineCount(result.out), 100) << flag;
    EXPECT_EQ(result.err, "") << flag;
  }
}

/// One usage error: the arguments ("{k}" = the kernel file) and a
/// fragment of the message that only its branch prints.
struct UsageCase {
  std::vector<std::string> args;
  std::string message;
};

TEST_F(CliTest, EveryUsageErrorIsTwoLinesAndExitTwo) {
  const std::vector<UsageCase> cases = {
      // Values the flag loop rejects.
      {{"--m=x", "{k}"}, "--m expects an integer (got 'x')"},
      {{"--m=4x", "{k}"}, "--m expects an integer (got '4x')"},
      {{"--m=99999999999", "{k}"}, "--m expects an integer"},
      {{"--jobs= 4", "{k}"}, "--jobs expects an integer (got ' 4')"},
      {{"--jobs=+4", "{k}"}, "--jobs expects an integer (got '+4')"},
      {{"--simulate=-1", "{k}"}, "--simulate expects a non-negative"},
      {{"--objective=fast", "{k}"}, "fast"},
      {{"--sweep=unroll", "{k}"}, "--sweep expects key=v1,v2,..."},
      {{"--sweep=unroll=,", "{k}"}, "--sweep=unroll has no values"},
      {{"-o"}, "-o requires a file name"},
      {{"--cache-dir=", "{k}"}, "--cache-dir expects a directory path"},
      {{"--tune=bogus", "{k}"}, "bogus"},
      {{"--strategy=bogus", "{k}"}, "bogus"},
      {{"--objectives=,", "{k}"}, "--objectives has no values"},
      {{"--socket=", "{k}"}, "--socket expects a socket path"},
      {{"--connect=", "{k}"}, "--connect expects a socket path"},
      {{"--priority=urgent", "{k}"}, "--priority expects low|normal|high"},
      {{"--distribute=0", "--sweep=unroll=1,2", "{k}"},
       "--distribute expects a positive worker count"},
      {{"--workers=,", "{k}"}, "--workers expects a comma-separated"},
      {{"--diagnostics=xml", "{k}"}, "--diagnostics only supports json"},
      {{"--bogus", "{k}"}, "unknown option '--bogus'"},
      {{"--async-jobs=2", "--sweep=unroll=1,2", "{k}"},
       "unknown option '--async-jobs=2'"},
      {{"{k}", "{k}"}, "multiple input files"},
      {{"--sweep=warp=1", "{k}"}, "unknown parameter 'warp'"},
      // Daemon modes.
      {{"--serve", "--connect=/tmp/x.sock"},
       "--serve and --connect are mutually exclusive"},
      {{"--serve"}, "--serve requires --socket=PATH"},
      {{"--serve", "--socket=/tmp/x.sock", "{k}"},
       "--serve takes no input file"},
      {{"--serve", "--socket=/tmp/x.sock", "--tune"},
       "--serve cannot be combined with --sweep/--tune"},
      {{"--serve", "--socket=/tmp/x.sock", "--emit=c"},
       "--serve cannot be combined with single-shot flags"},
      {{"--serve", "--socket=/tmp/x.sock", "--deadline-ms=5"},
       "--serve cannot be combined with --deadline-ms"},
      {{"--serve", "--socket=/tmp/x.sock", "--status"},
       "are client flags and require --connect"},
      {{"--serve", "--socket=/tmp/x.sock", "--distribute=2"},
       "--serve cannot be combined with --distribute/--workers"},
      {{"--socket=/tmp/x.sock", "{k}"}, "--socket requires --serve"},
      {{"--connect=/tmp/x.sock", "--status", "--shutdown"},
       "--status and --shutdown are mutually exclusive"},
      {{"--connect=/tmp/x.sock", "--status", "{k}"},
       "--status/--shutdown take no input file"},
      {{"--connect=/tmp/x.sock"}, "--connect needs an input file"},
      {{"--connect=/tmp/x.sock", "--sweep=unroll=1,2", "{k}"},
       "--connect only submits single compiles"},
      {{"--connect=/tmp/x.sock", "--jobs=2", "{k}"},
       "configure a session and belong to the daemon"},
      {{"--connect=/tmp/x.sock", "--validate", "{k}"},
       "need the flow in-process"},
      {{"--connect=/tmp/x.sock", "--emit=json", "{k}"},
       "--emit=json requires --tune or --sweep"},
      {{"--connect=/tmp/x.sock", "--distribute=2", "{k}"},
       "--connect submits one compile to one daemon"},
      {{"--status", "{k}"}, "--status requires --connect=PATH"},
      {{"--shutdown", "{k}"}, "--shutdown requires --connect=PATH"},
      {{"--priority=high", "{k}"}, "--priority requires --connect"},
      {{}, "no input file"},
      // Distributed sweeps.
      {{"--sweep=unroll=1,2", "--distribute=2", "--workers=/tmp/x.sock",
        "{k}"},
       "--distribute and --workers are mutually exclusive"},
      {{"--distribute=2", "{k}"}, "require --sweep axes"},
      {{"--sweep=unroll=1,2", "--distribute=2", "--tune", "{k}"},
       "cannot be combined with --tune"},
      {{"--sweep=unroll=1,2", "--distribute=2", "--validate", "{k}"},
       "need the flows in-process"},
      {{"--sweep=unroll=1,2", "--distribute=2", "--cache-dir=/tmp/x", "{k}"},
       "configure a worker's session"},
      {{"--sweep=unroll=1,2", "--workers=/tmp/x.sock", "--jobs=2", "{k}"},
       "--jobs sizes the workers --distribute spawns"},
      {{"--sweep=unroll=1,2", "--distribute=2", "--emit=c", "{k}"},
       "print a table or --emit=json"},
      // Tune and sweep combinations.
      {{"--tune", "--validate", "{k}"},
       "--tune cannot be combined with --validate"},
      {{"--tune", "--emit=c", "{k}"}, "--tune only supports --emit=json"},
      {{"--tune", "--samples=4", "{k}"},
       "--samples requires --strategy=random"},
      {{"--tune=random", "--max-steps=4", "{k}"},
       "--max-steps requires --strategy=hillclimb"},
      {{"--seed=3", "{k}"}, "--seed requires --tune"},
      {{"--emit=json", "{k}"}, "--emit=json requires --tune or --sweep"},
      {{"--sweep=unroll=1,2", "--validate", "{k}"},
       "--sweep cannot be combined with --validate"},
      {{"--sweep=unroll=1,2", "--emit=c", "{k}"},
       "--sweep only supports --emit=json"},
      {{"--sweep=unroll=1,2", "-o", "out.txt", "{k}"},
       "-o with --sweep requires --emit=json"},
      {{"--sweep=unroll=1,2", "--emit=json", "--simulate=10", "{k}"},
       "carry no simulation columns"},
      {{"--sweep=unroll=1,2", "--emit=json", "--explain-cache", "{k}"},
       "carry no cache provenance"},
      {{"--jobs=2", "{k}"}, "--jobs only applies to --sweep/--tune"},
      {{"--explain-cache", "{k}"},
       "--explain-cache only applies to --sweep/--tune"},
      {{"--stage-cache-mb=4", "{k}"},
       "--stage-cache-mb only applies to --sweep/--tune"},
      {{"--sweep=unroll=1,2", "--diagnostics=json", "{k}"},
       "--diagnostics=json only applies to single-shot compiles"},
      {{"--sweep=unroll=1,2", "--print-ir-before", "{k}"},
       "only apply to single-shot compiles"},
      {{"--deadline-ms=5", "{k}"}, "--deadline-ms applies to --sweep/--tune"},
      // Past parsing: an unknown artifact on a single-shot compile.
      {{"--emit=bogus", "{k}"}, "unknown artifact 'bogus'"},
  };
  for (const UsageCase& usage : cases) {
    std::string shown;
    for (const std::string& arg : usage.args)
      shown += " '" + arg + "'";
    SCOPED_TRACE("cfdc" + shown);
    const CliRun result = run(usage.args);
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_EQ(result.err.rfind("cfdc: ", 0), 0u) << result.err;
    EXPECT_NE(result.err.find(usage.message), std::string::npos)
        << result.err;
    EXPECT_EQ(lineCount(result.err), 2) << result.err;
    EXPECT_NE(result.err.find("\nrun 'cfdc --help' for the flag reference\n"),
              std::string::npos)
        << result.err;
    EXPECT_EQ(result.out, "");
  }
}

TEST_F(CliTest, SweepRunsAsOneJob) {
  const CliRun result =
      run({"--sweep=unroll=1,2,4", "--deadline-ms=60000", "{k}"});
  EXPECT_EQ(result.exitCode, 0) << result.err;
  EXPECT_NE(result.out.find("3 variants"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("jobs: 1 submitted / 1 completed / 0 cancelled"),
            std::string::npos)
      << result.out;
}

TEST_F(CliTest, ExpiredDeadlineIsAJobQueueDiagnosticAndExitThree) {
  // 480 points on one worker take far longer than 1 ms, so the sweep
  // job is cancelled at a stage boundary (or before it starts) and no
  // table is printed.
  const CliRun result =
      run({"--sweep=unroll=1,2,4,8", "--sweep=m=1,2,4,8,16",
           "--sweep=k=1,2,4,8", "--sweep=opt=0,1,2",
           "--sweep=layout=rowmajor,colmajor", "--jobs=1", "--deadline-ms=1",
           "{k}"});
  EXPECT_EQ(result.exitCode, 3) << result.out << result.err;
  EXPECT_NE(result.err.find("[job-queue]"), std::string::npos) << result.err;
  EXPECT_NE(result.err.find("deadline exceeded"), std::string::npos)
      << result.err;
  EXPECT_EQ(result.out, "");
}

} // namespace
} // namespace cfd
