// The cfdc command-line contract, checked against the built binary:
// every usage error of the flag parser exits 2 with one line naming the
// error and one pointing at --help, and a flag given outside the modes
// of its flag-table row is one of them; --help alone prints the modes
// and every row of the table, on stdout, and exits 0; --sweep/--tune
// run as one session job that --deadline-ms bounds (exit 3 with the
// "job-queue" diagnostic when it expires); a daemon that cannot be
// reached, by --workers or by --connect, exits 1. The CFDC_PATH
// definition names the cfdc the build made.
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
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

/// Where `flag`'s entry starts in the --help text: its spelling at
/// the start of a line, followed by its text or, when long, a newline.
std::size_t helpEntry(const std::string& help, const std::string& flag) {
  const std::size_t at = help.find("\n  " + flag + " ");
  return at != std::string::npos ? at : help.find("\n  " + flag + "\n");
}

TEST_F(CliTest, HelpPrintsTheReferenceOnStdout) {
  for (const char* flag : {"--help", "-h"}) {
    const CliRun result = run({flag});
    EXPECT_EQ(result.exitCode, 0) << flag;
    EXPECT_EQ(result.out.rfind("usage: cfdc", 0), 0u) << flag;
    EXPECT_GT(lineCount(result.out), 100) << flag;
    EXPECT_EQ(result.err, "") << flag;
  }
}

TEST_F(CliTest, HelpListsEveryModeAndEveryFlagOfTheTable) {
  const CliRun result = run({"--help"});
  ASSERT_EQ(result.exitCode, 0);
  for (const char* mode :
       {"single", "sweep", "sweep-json", "tune", "tune-json", "serve",
        "connect", "connect-control", "distribute", "distribute-json",
        "workers", "workers-json"})
    EXPECT_NE(result.out.find("\n  " + std::string(mode) + " "),
              std::string::npos)
        << mode;
  // Each flag starts its own entry, followed by the modes it applies to.
  for (const char* flag :
       {"--emit=json", "--emit=c|mnemosyne|host|dot|report", "-o FILE",
        "--no-sharing", "--coupled", "--m=N", "--k=N", "--unroll=N",
        "--opt-level=N", "--objective=hw|sw", "--layout=rowmajor|colmajor",
        "--print-ir-before", "--print-ir-after", "--simulate=Ne",
        "--validate", "--diagnostics=json", "--cache-dir=DIR",
        "--sweep=key=v1,v2,...", "--jobs=N", "--deadline-ms=N",
        "--explain-cache", "--stage-cache-mb=N", "--tune", "--tune=STRATEGY",
        "--strategy=NAME", "--seed=N", "--samples=N", "--max-steps=N",
        "--objectives=a,b,...", "--serve", "--socket=PATH", "--connect=PATH",
        "--status", "--shutdown", "--priority=low|normal|high",
        "--distribute=N", "--workers=S1,S2,..."}) {
    const std::size_t at = helpEntry(result.out, flag);
    ASSERT_NE(at, std::string::npos) << flag;
    EXPECT_LT(result.out.find("modes: ", at), result.out.find("\n  -", at + 1))
        << flag;
  }
}

TEST_F(CliTest, ReadmeMatrixMatchesTheFlagTable) {
  // README.md repeats the flag table as a mode x flag matrix; each of
  // its rows must mark exactly the modes --help prints for that flag.
  const std::string readme = readFile(fs::path(CFD_SOURCE_DIR) / "README.md");
  const std::string help = run({"--help"}).out;
  std::istringstream lines(readme);
  std::vector<std::string> modes;
  int rows = 0;
  for (std::string line; std::getline(lines, line);) {
    std::vector<std::string> cells; // a \| inside a cell is a literal |
    for (std::size_t at; (at = line.find("\\|")) != std::string::npos;)
      line.replace(at, 2, "\x01");
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, '|');) {
      std::replace(cell.begin(), cell.end(), '\x01', '|');
      const std::size_t first = cell.find_first_not_of(' ');
      cells.push_back(first == std::string::npos
                          ? ""
                          : cell.substr(first, cell.find_last_not_of(' ') -
                                                   first + 1));
    }
    if (line.rfind("| flag ", 0) == 0)
      modes.assign(cells.begin() + 2, cells.end());
    else if (line.rfind("|", 0) != 0)
      modes.clear(); // the matrix ended
    if (modes.empty() || line.rfind("| `-", 0) != 0)
      continue;
    ++rows;
    ASSERT_EQ(cells.size(), modes.size() + 2) << line;
    std::string marked = "modes:";
    for (std::size_t i = 0; i < modes.size(); ++i)
      if (cells[i + 2] == "x")
        marked += (marked.size() > 6 ? ", " : " ") + modes[i];
    // The flag's --help entry (cells[1] is `--flag`), its modes unwrapped.
    const std::string flag = cells[1].substr(1, cells[1].size() - 2);
    const std::size_t at = helpEntry(help, flag);
    ASSERT_NE(at, std::string::npos) << flag;
    const std::size_t from = help.find("modes:", at);
    const std::size_t end =
        std::min(help.find("\n  -", at + 1), help.find("\n\n", at));
    std::istringstream words(help.substr(from, end - from));
    std::string printed;
    for (std::string word; words >> word;)
      printed += (printed.empty() ? "" : " ") + word;
    EXPECT_EQ(marked, printed) << flag;
  }
  EXPECT_EQ(rows, 37);
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
      {{"--unroll=3", "{k}"}, "'unroll' expects a power of two >= 1"},
      {{"--sweep=unroll=1,3", "{k}"}, "'unroll' expects a power of two"},
      // Daemon modes.
      {{"--serve", "--connect=/tmp/x.sock"},
       "--connect=/tmp/x.sock does not apply in serve mode"},
      {{"--serve"}, "--serve requires --socket=PATH"},
      {{"--serve", "--socket=/tmp/x.sock", "{k}"},
       "--serve takes no input file"},
      {{"--serve", "--socket=/tmp/x.sock", "--tune"},
       "--tune does not apply in serve mode"},
      {{"--serve", "--socket=/tmp/x.sock", "--emit=c"},
       "--emit=c does not apply in serve mode"},
      {{"--serve", "--socket=/tmp/x.sock", "--deadline-ms=5"},
       "--deadline-ms=5 does not apply in serve mode"},
      {{"--serve", "--socket=/tmp/x.sock", "--status"},
       "--status does not apply in serve mode"},
      {{"--serve", "--socket=/tmp/x.sock", "--distribute=2"},
       "--distribute=2 does not apply in serve mode"},
      {{"--socket=/tmp/x.sock", "{k}"},
       "--socket=/tmp/x.sock does not apply in single mode"},
      {{"--connect=/tmp/x.sock", "--status", "--shutdown"},
       "--status and --shutdown are mutually exclusive"},
      {{"--connect=/tmp/x.sock", "--status", "{k}"},
       "--status/--shutdown take no input file"},
      {{"--connect=/tmp/x.sock"}, "--connect needs an input file"},
      {{"--connect=/tmp/x.sock", "--sweep=unroll=1,2", "{k}"},
       "--sweep=unroll=1,2 does not apply in connect mode"},
      {{"--connect=/tmp/x.sock", "--jobs=2", "{k}"},
       "--jobs=2 does not apply in connect mode"},
      {{"--connect=/tmp/x.sock", "--validate", "{k}"},
       "--validate does not apply in connect mode"},
      {{"--connect=/tmp/x.sock", "--emit=json", "{k}"},
       "--emit=json does not apply in connect mode"},
      {{"--connect=/tmp/x.sock", "--distribute=2", "{k}"},
       "--distribute=2 does not apply in connect mode"},
      {{"--status", "{k}"}, "--status does not apply in single mode"},
      {{"--shutdown", "{k}"}, "--shutdown does not apply in single mode"},
      {{"--priority=high", "{k}"},
       "--priority=high does not apply in single mode"},
      {{}, "no input file"},
      // Distributed sweeps.
      {{"--sweep=unroll=1,2", "--distribute=2", "--workers=/tmp/x.sock",
        "{k}"},
       "--distribute and --workers are mutually exclusive"},
      {{"--distribute=2", "{k}"}, "require --sweep axes"},
      {{"--sweep=unroll=1,2", "--distribute=2", "--tune", "{k}"},
       "--tune does not apply in distribute mode"},
      {{"--sweep=unroll=1,2", "--distribute=2", "--validate", "{k}"},
       "--validate does not apply in distribute mode"},
      {{"--sweep=unroll=1,2", "--distribute=2", "--cache-dir=/tmp/x", "{k}"},
       "--cache-dir=/tmp/x does not apply in distribute mode"},
      {{"--sweep=unroll=1,2", "--workers=/tmp/x.sock", "--jobs=2", "{k}"},
       "--jobs=2 does not apply in workers mode"},
      {{"--sweep=unroll=1,2", "--distribute=2", "--emit=c", "{k}"},
       "--emit=c does not apply in distribute mode"},
      // Tune and sweep combinations.
      {{"--tune", "--validate", "{k}"},
       "--validate does not apply in tune mode"},
      {{"--tune", "--emit=c", "{k}"}, "--emit=c does not apply in tune mode"},
      {{"--tune", "--samples=4", "{k}"},
       "--samples requires --strategy=random"},
      {{"--tune=random", "--max-steps=4", "{k}"},
       "--max-steps requires --strategy=hillclimb"},
      {{"--seed=3", "{k}"}, "--seed=3 does not apply in single mode"},
      {{"--emit=json", "{k}"}, "--emit=json does not apply in single mode"},
      {{"--sweep=unroll=1,2", "--validate", "{k}"},
       "--validate does not apply in sweep mode"},
      {{"--sweep=unroll=1,2", "--emit=c", "{k}"},
       "--emit=c does not apply in sweep mode"},
      {{"--sweep=unroll=1,2", "-o", "out.txt", "{k}"},
       "-o does not apply in sweep mode"},
      {{"--sweep=unroll=1,2", "--emit=json", "--simulate=10", "{k}"},
       "--simulate=10 does not apply in sweep-json mode"},
      {{"--sweep=unroll=1,2", "--emit=json", "--explain-cache", "{k}"},
       "--explain-cache does not apply in sweep-json mode"},
      {{"--jobs=2", "{k}"}, "--jobs=2 does not apply in single mode"},
      {{"--explain-cache", "{k}"},
       "--explain-cache does not apply in single mode"},
      {{"--stage-cache-mb=4", "{k}"},
       "--stage-cache-mb=4 does not apply in single mode"},
      {{"--sweep=unroll=1,2", "--diagnostics=json", "{k}"},
       "--diagnostics=json does not apply in sweep mode"},
      {{"--sweep=unroll=1,2", "--print-ir-before", "{k}"},
       "--print-ir-before does not apply in sweep mode"},
      {{"--deadline-ms=5", "{k}"},
       "--deadline-ms=5 does not apply in single mode"},
      {{"--emit=bogus", "{k}"}, "unknown artifact 'bogus'"},
      // Flags the modes above once dropped without a word.
      {{"--serve", "--socket=/tmp/x.sock", "--m=64"},
       "--m=64 does not apply in serve mode"},
      {{"--serve", "--socket=/tmp/x.sock", "--k=4"},
       "--k=4 does not apply in serve mode"},
      {{"--serve", "--socket=/tmp/x.sock", "--unroll=2"},
       "--unroll=2 does not apply in serve mode"},
      {{"--serve", "--socket=/tmp/x.sock", "--opt-level=2"},
       "--opt-level=2 does not apply in serve mode"},
      {{"--serve", "--socket=/tmp/x.sock", "--objective=sw"},
       "--objective=sw does not apply in serve mode"},
      {{"--serve", "--socket=/tmp/x.sock", "--layout=colmajor"},
       "--layout=colmajor does not apply in serve mode"},
      {{"--serve", "--socket=/tmp/x.sock", "--no-sharing"},
       "--no-sharing does not apply in serve mode"},
      {{"--serve", "--socket=/tmp/x.sock", "--coupled"},
       "--coupled does not apply in serve mode"},
      {{"--connect=/tmp/x.sock", "--status", "--emit=c"},
       "--emit=c does not apply in connect-control mode"},
      {{"--connect=/tmp/x.sock", "--status", "-o", "out.txt"},
       "-o does not apply in connect-control mode"},
      {{"--connect=/tmp/x.sock", "--status", "--deadline-ms=5"},
       "--deadline-ms=5 does not apply in connect-control mode"},
      {{"--connect=/tmp/x.sock", "--status", "--priority=high"},
       "--priority=high does not apply in connect-control mode"},
      {{"--connect=/tmp/x.sock", "--status", "--m=4"},
       "--m=4 does not apply in connect-control mode"},
      {{"--connect=/tmp/x.sock", "--shutdown", "--unroll=4"},
       "--unroll=4 does not apply in connect-control mode"},
      {{"--tune", "--emit=json", "--explain-cache", "{k}"},
       "--explain-cache does not apply in tune-json mode"},
      {{"--sweep=unroll=1,2", "--emit=json", "--simulate=0", "{k}"},
       "--simulate=0 does not apply in sweep-json mode"},
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

TEST_F(CliTest, UnreachableDaemonsAreAnIoFailureAndExitOne) {
  const std::string missing = (dir_ / "missing.sock").string();
  const CliRun workers =
      run({"--sweep=unroll=1,2", "--workers=" + missing, "{k}"});
  EXPECT_EQ(workers.exitCode, 1) << workers.err;
  EXPECT_NE(workers.err.find("no worker is reachable"), std::string::npos)
      << workers.err;
  EXPECT_EQ(workers.out, "");
  const CliRun connect = run({"--connect=" + missing, "{k}"});
  EXPECT_EQ(connect.exitCode, 1) << connect.err;
  EXPECT_EQ(connect.out, "");
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
