// End-to-end tests for the `lla` binary: the documented exit-code scheme
// (0 success, 1 runtime error such as a failed write, 2 usage, 3 load error,
// 4 not converged/infeasible), the one strict flag parser every subcommand
// shares, snapshot checkpoint / restore / inspect, and the `trace`
// subcommand's JSONL output.  The binary path is injected by CMake via
// LLA_CLI_PATH; commands run through std::system with streams redirected to
// files under the build tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace {

const char* kCli = LLA_CLI_PATH;
const char* kPaperWorkload = LLA_SOURCE_DIR "/examples/data/paper_table1.lla";

// Runs `lla <args>` with stdout redirected to `stdout_path` and stderr
// discarded; returns the exit code, or -1 if the shell could not launch it.
// A positive `timeout_s` runs it under timeout(1), which kills it after that
// many seconds and exits 124.
int RunCliTo(const std::string& args, const std::string& stdout_path,
             int timeout_s = 0) {
  const std::string prefix =
      timeout_s > 0 ? "timeout " + std::to_string(timeout_s) + " " : "";
  const std::string command = prefix + std::string(kCli) + " " + args + " >" +
                              stdout_path + " 2>/dev/null";
  const int status = std::system(command.c_str());
  if (status < 0) return -1;
#ifdef WIFEXITED
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
#else
  return status;
#endif
}

int RunCli(const std::string& args, int timeout_s = 0) {
  return RunCliTo(args, "/dev/null", timeout_s);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// RunCli, with stdout captured into *out.  The capture file is named after
// the running test, since ctest may run CliTest cases concurrently.
int RunCliCapture(const std::string& args, std::string* out) {
  const std::string path =
      ::testing::TempDir() + "/cli_stdout_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".txt";
  const int code = RunCliTo(args, path);
  *out = ReadFile(path);
  std::remove(path.c_str());
  return code;
}

TEST(CliTest, SolveSucceedsOnPaperWorkload) {
  EXPECT_EQ(RunCli(std::string("solve ") + kPaperWorkload), 0);
}

TEST(CliTest, UsageErrorsReturnTwo) {
  EXPECT_EQ(RunCli(""), 2);                                    // no command
  EXPECT_EQ(RunCli("frobnicate x"), 2);                        // unknown verb
  EXPECT_EQ(RunCli(std::string("solve ") + kPaperWorkload +
                   " --bad-flag"), 2);                         // unknown flag
  EXPECT_EQ(RunCli(std::string("solve ") + kPaperWorkload +
                   " --iters 0"), 2);                          // bad value
}

TEST(CliTest, ThreadsFlagAcceptedOnSolveAndTrace) {
  EXPECT_EQ(RunCli(std::string("solve ") + kPaperWorkload + " --threads=4"),
            0);
  EXPECT_EQ(RunCli(std::string("solve ") + kPaperWorkload + " --threads 2"),
            0);
  const std::string out = ::testing::TempDir() + "/cli_trace_threads.jsonl";
  std::remove(out.c_str());
  EXPECT_EQ(RunCli(std::string("trace ") + kPaperWorkload + " --threads=4" +
                   " --out " + out),
            0);
  std::remove(out.c_str());
}

TEST(CliTest, InvalidThreadsValueReturnsTwo) {
  const std::string solve = std::string("solve ") + kPaperWorkload;
  EXPECT_EQ(RunCli(solve + " --threads=0"), 2);      // below minimum
  EXPECT_EQ(RunCli(solve + " --threads=-2"), 2);     // negative
  EXPECT_EQ(RunCli(solve + " --threads=abc"), 2);    // not a number
  EXPECT_EQ(RunCli(solve + " --threads=4x"), 2);     // trailing garbage
  EXPECT_EQ(RunCli(solve + " --threads="), 2);       // empty value
  EXPECT_EQ(RunCli(solve + " --threads"), 2);        // missing value
  EXPECT_EQ(RunCli(solve + " --threads=99999"), 2);  // above sane cap
  EXPECT_EQ(RunCli(std::string("trace ") + kPaperWorkload + " --threads=0"),
            2);
}

TEST(CliTest, DuplicateThreadsFlagReturnsTwo) {
  // A repeated --threads is ambiguous; the CLI rejects it rather than
  // silently letting the last occurrence win.
  const std::string solve = std::string("solve ") + kPaperWorkload;
  EXPECT_EQ(RunCli(solve + " --threads=2 --threads=4"), 2);
  EXPECT_EQ(RunCli(solve + " --threads 2 --threads=2"), 2);  // same value too
  EXPECT_EQ(RunCli(solve + " --threads=2 --threads 4"), 2);  // mixed forms
}

// The approximate epsilon-quiescence mode is gone, so
// --epsilon-quiescence is an unknown flag everywhere, in every spelling.
TEST(CliTest, InvalidEpsilonQuiescenceValueReturnsTwo) {
  const std::string solve = std::string("solve ") + kPaperWorkload;
  EXPECT_EQ(RunCli(solve + " --epsilon-quiescence=1e-3"), 2);
  EXPECT_EQ(RunCli(solve + " --epsilon-quiescence 1e-4"), 2);  // space form
  EXPECT_EQ(RunCli(solve + " --epsilon-quiescence=0"), 2);     // was exact
  EXPECT_EQ(RunCli(solve + " --epsilon-quiescence=-0.1"), 2);
  EXPECT_EQ(RunCli(solve + " --epsilon-quiescence=1.5"), 2);
  EXPECT_EQ(RunCli(solve + " --epsilon-quiescence=abc"), 2);
  EXPECT_EQ(RunCli(solve + " --epsilon-quiescence="), 2);
  EXPECT_EQ(RunCli(solve + " --epsilon-quiescence"), 2);
  EXPECT_EQ(RunCli(solve + " --round-threads=2 --epsilon-quiescence=1e-4"), 2);
  EXPECT_EQ(RunCli(std::string("checkpoint ") + kPaperWorkload + " " +
                   ::testing::TempDir() +
                   "/cli_eps.snap --iters 5 --epsilon-quiescence=1e-3"),
            2);
}

TEST(CliTest, DynamicsFlagAcceptedOnSolve) {
  const std::string solve = std::string("solve ") + kPaperWorkload;
  EXPECT_EQ(RunCli(solve + " --dynamics=plain"), 0);
  EXPECT_EQ(RunCli(solve + " --dynamics=heavy-ball"), 0);
  EXPECT_EQ(RunCli(solve + " --dynamics=nesterov"), 0);
  EXPECT_EQ(RunCli(solve + " --dynamics heavy-ball"), 0);  // space form
  EXPECT_EQ(RunCli(solve + " --dynamics=heavy-ball --momentum=0.8"), 0);
  EXPECT_EQ(RunCli(solve + " --dynamics=nesterov --momentum 0.5"), 0);
  EXPECT_EQ(RunCli(solve + " --momentum=0"), 0);  // beta 0 == plain
}

TEST(CliTest, InvalidDynamicsOrMomentumValueReturnsTwo) {
  const std::string solve = std::string("solve ") + kPaperWorkload;
  EXPECT_EQ(RunCli(solve + " --dynamics=adam"), 2);      // unknown policy
  EXPECT_EQ(RunCli(solve + " --dynamics="), 2);          // empty value
  EXPECT_EQ(RunCli(solve + " --dynamics"), 2);           // missing value
  EXPECT_EQ(RunCli(solve + " --momentum=1"), 2);         // beta must be < 1
  EXPECT_EQ(RunCli(solve + " --momentum=1.5"), 2);       // out of range
  EXPECT_EQ(RunCli(solve + " --momentum=-0.1"), 2);      // negative
  EXPECT_EQ(RunCli(solve + " --momentum=abc"), 2);       // not a number
  EXPECT_EQ(RunCli(solve + " --momentum=0.9x"), 2);      // garbage suffix
  EXPECT_EQ(RunCli(solve + " --momentum="), 2);          // empty value
  EXPECT_EQ(RunCli(solve + " --momentum"), 2);           // missing value
  EXPECT_EQ(RunCli(solve + " --momentum=nan"), 2);       // not finite
}

TEST(CliTest, RoundThreadsAcceptsDynamicsFlags) {
  // --dynamics/--momentum are valid on BOTH paths: the engine and the
  // --round-threads distributed deployment (they configure the shard
  // agents' accelerated mu updates, DESIGN.md §7.12).
  const std::string solve = std::string("solve ") + kPaperWorkload;
  EXPECT_EQ(RunCli(solve + " --round-threads=1"), 0);
  EXPECT_EQ(RunCli(solve + " --round-threads=2 --dynamics=heavy-ball "
                           "--momentum=0.7"),
            0);
  EXPECT_EQ(RunCli(solve + " --round-threads=1 --dynamics=nesterov"), 0);
  // Engine-only flags stay rejected on the distributed path.
  EXPECT_EQ(RunCli(solve + " --round-threads=2 --threads=2"), 2);
  EXPECT_EQ(RunCli(solve + " --round-threads=2 --restore=state.snap"), 2);
  // Bad dynamics values are usage errors here too.
  EXPECT_EQ(RunCli(solve + " --round-threads=2 --dynamics=adam"), 2);
  EXPECT_EQ(RunCli(solve + " --round-threads=2 --momentum=1.5"), 2);
}

// `lla checkpoint` writes a b1 image, and `solve --restore` resumes from it
// in either flag form.
TEST(CliTest, CheckpointThenRestoreRoundTrips) {
  const std::string snap = ::testing::TempDir() + "/cli_state.snap";
  std::remove(snap.c_str());
  ASSERT_EQ(RunCli(std::string("checkpoint ") + kPaperWorkload + " " + snap +
                   " --iters 50"),
            0);
  const std::string bytes = ReadFile(snap);
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.compare(0, 8, "LLASNAPB"), 0);
  // Resuming the dual iteration from the mid-run snapshot converges.
  EXPECT_EQ(RunCli(std::string("solve ") + kPaperWorkload +
                   " --restore=" + snap),
            0);
  EXPECT_EQ(RunCli(std::string("solve ") + kPaperWorkload + " --restore " +
                   snap),
            0);
  std::remove(snap.c_str());
}

// The checkpoint carries the b1 magic bytes and no text header, and
// `solve --restore=` recognises it by that magic: the same image with one
// magic byte flipped is refused as a load error (3), not decoded.
TEST(CliTest, BinaryCheckpointRestoresThroughAutoDetection) {
  const std::string snap = ::testing::TempDir() + "/cli_state_b1.snap";
  std::remove(snap.c_str());
  ASSERT_EQ(RunCli(std::string("checkpoint ") + kPaperWorkload + " " + snap +
                   " --iters 50"),
            0);
  std::string bytes = ReadFile(snap);
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.compare(0, 8, "LLASNAPB"), 0);
  EXPECT_EQ(bytes.find("snapshot v"), std::string::npos);
  const std::string solve = std::string("solve ") + kPaperWorkload;
  EXPECT_EQ(RunCli(solve + " --restore=" + snap), 0);

  bytes[7] = 'X';  // LLASNAPB -> LLASNAPX, body intact
  const std::string bad = ::testing::TempDir() + "/cli_state_badmagic.snap";
  std::ofstream(bad, std::ios::binary) << bytes;
  EXPECT_EQ(RunCli(solve + " --restore=" + bad), 3);
  std::remove(bad.c_str());
  std::remove(snap.c_str());
}

// There is one snapshot format, so --format is an unknown flag everywhere.
TEST(CliTest, InvalidFormatValueReturnsTwo) {
  const std::string checkpoint = std::string("checkpoint ") + kPaperWorkload +
                                 " " + ::testing::TempDir() +
                                 "/cli_fmt.snap --iters 5";
  EXPECT_EQ(RunCli(checkpoint + " --format=binary"), 2);
  EXPECT_EQ(RunCli(checkpoint + " --format=text"), 2);
  EXPECT_EQ(RunCli(checkpoint + " --format=json"), 2);
  EXPECT_EQ(RunCli(checkpoint + " --format="), 2);
  EXPECT_EQ(RunCli(checkpoint + " --format"), 2);
  EXPECT_EQ(RunCli(std::string("solve ") + kPaperWorkload +
                   " --format=binary"),
            2);
}

TEST(CliTest, CheckpointAndRestoreErrors) {
  EXPECT_EQ(RunCli(std::string("checkpoint ") + kPaperWorkload), 2);
  EXPECT_EQ(RunCli(std::string("checkpoint ") + kPaperWorkload +
                   " --iters 5"),
            2);  // flag where the snapshot path belongs
  const std::string solve = std::string("solve ") + kPaperWorkload;
  EXPECT_EQ(RunCli(solve + " --restore="), 2);  // empty path
  EXPECT_EQ(RunCli(solve + " --restore=/nonexistent/state.snap"), 3);

  // A file without the b1 magic, such as a text snapshot, is a load error
  // (3), not a crash.
  const std::string bad = ::testing::TempDir() + "/cli_bad.snap";
  std::ofstream(bad) << "snapshot v2\nshape 8 9 21 3\nend\n";
  EXPECT_EQ(RunCli(solve + " --restore=" + bad), 3);

  // So is a truncated binary snapshot (valid magic, cut-off body).
  std::ofstream(bad, std::ios::binary) << "LLASNAPB\x01";
  EXPECT_EQ(RunCli(solve + " --restore=" + bad), 3);
  std::remove(bad.c_str());
}

// `solve --restore` refuses an image whose counters the engine cannot hold:
// an iteration outside [0, 2^62] (the engine's 64-bit count keeps 2^62 steps
// of headroom) or a negative step iteration.  An iteration past INT_MAX
// resumes.
TEST(CliTest, RestoreRefusesOutOfRangeCounters) {
  const std::string snap = ::testing::TempDir() + "/cli_counters.snap";
  std::remove(snap.c_str());
  ASSERT_EQ(RunCli(std::string("checkpoint ") + kPaperWorkload + " " + snap +
                   " --iters 50"),
            0);
  const std::string good = ReadFile(snap);
  const std::string bad = ::testing::TempDir() + "/cli_counters_bad.snap";
  // Header bytes [48, 56) hold the i64 iteration, [64, 72) the step
  // iteration.
  const auto restore_with = [&](std::size_t offset, std::int64_t value) {
    std::string bytes = good;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    std::ofstream(bad, std::ios::binary) << bytes;
    return RunCli(std::string("solve ") + kPaperWorkload +
                  " --restore=" + bad);
  };
  EXPECT_EQ(restore_with(48, (std::int64_t{1} << 62) + 1), 3);
  EXPECT_EQ(restore_with(48, -1), 3);
  EXPECT_EQ(restore_with(48, (std::int64_t{1} << 32) + 5), 0);
  EXPECT_EQ(restore_with(64, -1), 3);
  EXPECT_EQ(restore_with(64, 0), 0);  // the image as written
  std::remove(bad.c_str());
  std::remove(snap.c_str());
}

// The snapshot reader sizes a file before it reads it, so a device, whose
// read need never end, and a file larger than any image (a 2 GiB sparse
// file here) are load errors (3) rather than reads without bound.  The
// run's address space is capped, so a reader that regressed fails here
// instead of exhausting the host; sanitizer builds reserve more address
// space than the cap, so they only bound the time.
TEST(CliTest, SnapshotReaderRefusesDevicesAndOversizedFiles) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const std::string bound = "timeout 20 ";
#else
  const std::string bound = "ulimit -v 1000000; timeout 20 ";
#endif
  const std::string big = ::testing::TempDir() + "/cli_big.snap";
  std::ofstream(big, std::ios::binary) << "LLASNAPB";
  std::filesystem::resize_file(big, std::uintmax_t{1} << 31);
  for (const std::string& args :
       {std::string("inspect /dev/zero"), "inspect " + big,
        std::string("solve ") + kPaperWorkload + " --restore=/dev/zero",
        std::string("solve ") + kPaperWorkload + " --restore=" + big}) {
    const std::string command =
        bound + std::string(kCli) + " " + args + " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(status >= 0 && WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 3) << args;
  }
  std::remove(big.c_str());
}

// A chain of 26 diamonds holds 2^26 root-to-leaf paths in 79 subtasks and
// about 3 KB of text; `describe` used to build every path and abort on
// bad_alloc.  The loader counts them first and refuses the file.
TEST(CliTest, DescribeRefusesExponentialPathCount) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const std::string bound = "timeout 20 ";
#else
  const std::string bound = "ulimit -v 1000000; timeout 20 ";
#endif
  constexpr int kNodes = 3 * 26 + 1;
  std::ostringstream text;
  for (int v = 0; v < kNodes; ++v) text << "resource r" << v << " cpu 1 0\n";
  text << "task chain 1000\n  utility linear 2000 1\n";
  for (int v = 0; v < kNodes; ++v) {
    text << "  subtask s" << v << " r" << v << " 1\n";
  }
  for (int top = 0; top + 1 < kNodes; top += 3) {
    text << "  edge " << top << ' ' << top + 1 << "\n  edge " << top << ' '
         << top + 2 << "\n  edge " << top + 1 << ' ' << top + 3
         << "\n  edge " << top + 2 << ' ' << top + 3 << '\n';
  }
  text << "end\n";
  const std::string path = ::testing::TempDir() + "/cli_diamonds.lla";
  const std::string err = ::testing::TempDir() + "/cli_diamonds.err";
  std::ofstream(path) << text.str();
  const std::string command = bound + std::string(kCli) + " describe " +
                              path + " >/dev/null 2>" + err;
  const int status = std::system(command.c_str());
  ASSERT_TRUE(status >= 0 && WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 3);
  EXPECT_NE(ReadFile(err).find("16777216"), std::string::npos)
      << ReadFile(err);
  std::remove(path.c_str());
  std::remove(err.c_str());
}

// A full device takes every buffered write and fails only at the flush.
// Each writing command must exit 1 with a message naming the file, instead
// of exiting 0 and claiming it wrote it.
TEST(CliTest, WritesToAFullDeviceFail) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string err = ::testing::TempDir() + "/cli_full_device.err";
  for (const std::string& args :
       {std::string("generate /dev/full --seed 1"),
        std::string("checkpoint ") + kPaperWorkload + " /dev/full --iters 5",
        std::string("trace ") + kPaperWorkload + " --out /dev/full"}) {
    const std::string command =
        std::string(kCli) + " " + args + " >/dev/null 2>" + err;
    const int status = std::system(command.c_str());
    ASSERT_TRUE(status >= 0 && WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 1) << args;
    EXPECT_NE(ReadFile(err).find("/dev/full"), std::string::npos)
        << args << ": " << ReadFile(err);
  }
  std::remove(err.c_str());
}

// `lla inspect` renders the b1 header and section table.
TEST(CliTest, InspectListsSnapshotSections) {
  const std::string snap = ::testing::TempDir() + "/cli_inspect.snap";
  std::remove(snap.c_str());
  ASSERT_EQ(RunCli(std::string("checkpoint ") + kPaperWorkload + " " + snap +
                   " --iters 50"),
            0);
  std::string out;
  ASSERT_EQ(RunCliCapture("inspect " + snap, &out), 0);
  EXPECT_NE(out.find("iteration 50"), std::string::npos) << out;
  EXPECT_NE(out.find("\nmu "), std::string::npos) << out;
  EXPECT_NE(out.find("\nrecent_utilities "), std::string::npos) << out;
  // Retired sections are never written, nor the retired primed flag shown.
  EXPECT_EQ(out.find("shadow_"), std::string::npos) << out;
  EXPECT_EQ(out.find("stable_epochs"), std::string::npos) << out;
  EXPECT_EQ(out.find("zero_epochs"), std::string::npos) << out;
  EXPECT_EQ(out.find("_settled"), std::string::npos) << out;
  EXPECT_EQ(out.find("prev_"), std::string::npos) << out;
  EXPECT_EQ(out.find("primed"), std::string::npos) << out;
  EXPECT_EQ(out.find("retired"), std::string::npos) << out;

  // A truncated image and a text file are load errors with the parser's
  // message; a missing path is a usage error.
  const std::string bytes = ReadFile(snap);
  const std::string bad = ::testing::TempDir() + "/cli_inspect_bad.snap";
  std::ofstream(bad, std::ios::binary) << bytes.substr(0, bytes.size() / 2);
  EXPECT_EQ(RunCli("inspect " + bad), 3);
  std::ofstream(bad) << "snapshot v2\nend\n";
  EXPECT_EQ(RunCli("inspect " + bad), 3);
  EXPECT_EQ(RunCli("inspect /nonexistent/state.snap"), 3);
  EXPECT_EQ(RunCli("inspect"), 2);
  EXPECT_EQ(RunCli("inspect " + snap + " --iters 5"), 2);  // takes no flags
  std::remove(bad.c_str());
  std::remove(snap.c_str());
}

// Every flag value parses in full and in range, and a flag appears once: a
// prefix parse, a fallback to the default or a last-one-wins repeat would
// run something the user did not ask for.
TEST(CliTest, MalformedOrRepeatedFlagsReturnTwo) {
  const std::string solve = std::string("solve ") + kPaperWorkload;
  EXPECT_EQ(RunCli(solve + " --variant bogus"), 2);
  EXPECT_EQ(RunCli(solve + " --iters 5x"), 2);
  EXPECT_EQ(RunCli(solve + " --iters 99999999999"), 2);  // overflows int
  EXPECT_EQ(RunCli(solve + " --iters -5"), 2);
  EXPECT_EQ(RunCli(solve + " --dynamics=heavy-ball --dynamics=nesterov"), 2);
  EXPECT_EQ(RunCli(std::string("check ") + kPaperWorkload + " --iters 5x"),
            2);
  const std::string trace = std::string("trace ") + kPaperWorkload;
  EXPECT_EQ(RunCli(trace + " --iters 5x --out /dev/null"), 2);
  EXPECT_EQ(RunCli(trace + " --threads=2 --threads=3 --out /dev/null"), 2);
  EXPECT_EQ(RunCli(trace + " --out="), 2);  // empty path
  const std::string churn = std::string("churn ") + kPaperWorkload;
  EXPECT_EQ(RunCli(churn + " --mutations=3x --seed=abc"), 2);
  EXPECT_EQ(RunCli(churn + " --mutations=3x"), 2);
  EXPECT_EQ(RunCli(churn + " --seed=abc"), 2);
  EXPECT_EQ(RunCli(churn + " --seed=-1"), 2);
  EXPECT_EQ(RunCli(churn + " --threads=2 --threads 2"), 2);
  EXPECT_EQ(RunCli(std::string("generate ") + ::testing::TempDir() +
                   "/cli_gen.lla --tasks 3x"),
            2);
  EXPECT_EQ(RunCli(std::string("describe ") + kPaperWorkload + " --iters 5"),
            2);  // describe takes no flags
}

// <seconds> is a finite positive number: "nan" would simulate zero job sets
// and report every task ok, and "inf" would never return.
TEST(CliTest, SimulateRejectsNonFiniteSeconds) {
  const std::string simulate = std::string("simulate ") + kPaperWorkload;
  EXPECT_EQ(RunCli(simulate + " nan"), 2);
  EXPECT_EQ(RunCli(simulate + " inf"), 2);
  EXPECT_EQ(RunCli(simulate + " -3"), 2);
  EXPECT_EQ(RunCli(simulate + " 0"), 2);
  EXPECT_EQ(RunCli(simulate + " 2s"), 2);
  EXPECT_EQ(RunCli(simulate + " 2 --sfs=yes"), 2);  // a switch takes no value
  EXPECT_EQ(RunCli(simulate + " 2 --sfs"), 0);
}

// The simulator records nothing during its 1 s warm-up: a run no longer
// than that completes no job set and fails instead of reporting every task
// "ok" on zero samples.
TEST(CliTest, SimulateWithinWarmupFails) {
  const std::string simulate = std::string("simulate ") + kPaperWorkload;
  std::string out;
  EXPECT_EQ(RunCliCapture(simulate + " 0.5", &out), 1);
  EXPECT_NE(out.find("0 job sets"), std::string::npos);
  EXPECT_EQ(out.find(" ok"), std::string::npos);
  EXPECT_EQ(RunCli(simulate + " 1"), 1);
  EXPECT_EQ(RunCli(simulate + " 2"), 0);
}

// Both value forms work for every flag.
TEST(CliTest, EveryFlagTakesBothValueForms) {
  const std::string solve = std::string("solve ") + kPaperWorkload;
  EXPECT_EQ(RunCli(solve + " --iters=12000 --variant=path-weighted"), 0);
  EXPECT_EQ(RunCli(solve + " --iters 12000 --variant sum"), 0);
  EXPECT_EQ(RunCli(solve + " --round-threads 1"), 0);
  EXPECT_EQ(RunCli(std::string("check ") + kPaperWorkload + " --iters=6000"),
            0);
  EXPECT_EQ(RunCli(std::string("churn ") + kPaperWorkload +
                   " --mutations 12 --seed 5 --threads 2"),
            0);
  const std::string generated = ::testing::TempDir() + "/cli_gen_forms.lla";
  EXPECT_EQ(RunCli("generate " + generated + " --seed=7 --tasks=6 "
                   "--resources 8"),
            0);
  EXPECT_EQ(RunCli("describe " + generated), 0);
  std::remove(generated.c_str());
  const std::string out = ::testing::TempDir() + "/cli_forms.jsonl";
  EXPECT_EQ(RunCli(std::string("trace ") + kPaperWorkload + " --out=" + out),
            0);
  EXPECT_NE(ReadFile(out).find("run_end"), std::string::npos);
  std::remove(out.c_str());
}

TEST(CliTest, LoadErrorsReturnThree) {
  EXPECT_EQ(RunCli("describe /nonexistent/workload.lla"), 3);
  EXPECT_EQ(RunCli("solve /nonexistent/workload.lla"), 3);
}

// A two-subtask workload whose `field` (cap, lag, critical, utility, wcet
// or trigger) reads `value`; every other field holds a valid number.
std::string TwoSubtaskWorkload(const std::string& field,
                               const std::string& value) {
  const auto pick = [&](const char* name, const char* fallback) {
    return field == name ? value : std::string(fallback);
  };
  return "resource cpu0 cpu " + pick("cap", "1") + " " + pick("lag", "1") +
         "\nresource link0 link 1 1\n"
         "task t " + pick("critical", "40") + "\n"
         "  utility " + pick("utility", "linear 80 1") + "\n"
         "  trigger " + pick("trigger", "periodic 100") + "\n"
         "  subtask a cpu0 " + pick("wcet", "2") + "\n"
         "  subtask b link0 3\n"
         "  edge 0 1\n"
         "end\n";
}

std::string WriteWorkload(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/cli_" + name + ".lla";
  std::ofstream(path) << text;
  return path;
}

// Non-finite and out-of-range numbers in a .lla file are load errors (the
// reader's std::stod accepts "nan" and "inf").  Past the loader, a NaN
// capacity solves to latency nan reported "feasible: yes", and a NaN
// critical time reports "converged".
TEST(CliTest, NonFiniteWorkloadNumbersReturnThree) {
  const std::string valid = WriteWorkload("valid", TwoSubtaskWorkload("", ""));
  EXPECT_EQ(RunCli("solve " + valid), 0);
  std::remove(valid.c_str());
  const std::pair<const char*, const char*> cases[] = {
      {"cap", "nan"},      {"cap", "inf"},       {"lag", "nan"},
      {"lag", "inf"},      {"critical", "nan"},  {"critical", "inf"},
      {"wcet", "nan"},     {"wcet", "inf"},      {"trigger", "periodic nan"},
      {"trigger", "poisson inf"}, {"trigger", "bursty 100 0 1"}};
  for (const auto& [field, value] : cases) {
    const std::string path =
        WriteWorkload("bad_number", TwoSubtaskWorkload(field, value));
    EXPECT_EQ(RunCli("solve " + path), 3) << field << " " << value;
    std::remove(path.c_str());
  }
}

// Utility parameters outside their shape's range are load errors in every
// build mode.  Past the loader, `linear nan 1` and `negexp 0 0` solved to
// utility nan and -inf (exit 4), and `linear 80 -1` (a utility that rises
// with latency) reported "converged" (exit 0).
TEST(CliTest, OutOfRangeUtilityParametersReturnThree) {
  for (const char* utility :
       {"linear nan 1", "linear 80 -1", "linear inf 1", "linear 80 nan",
        "power 80 -1 2", "power 80 1 0.5", "power 80 1 inf",
        "negexp 0 0", "negexp 80 -1", "negexp 80 nan",
        "inelastic 80 -1 1", "inelastic 80 10 0", "inelastic nan 10 1"}) {
    const std::string path =
        WriteWorkload("bad_utility", TwoSubtaskWorkload("utility", utility));
    EXPECT_EQ(RunCli("solve " + path), 3) << utility;
    std::remove(path.c_str());
  }
}

// A periodic trigger with period 0 or below would make `simulate` release
// jobs forever at one instant.  The run goes through `timeout`, so a hang
// fails the test instead of stalling the suite.
TEST(CliTest, SimulateRejectsNonPositiveTriggerPeriod) {
  for (const char* period : {"0", "-5"}) {
    const std::string path = WriteWorkload(
        "bad_period", TwoSubtaskWorkload("trigger", std::string("periodic ") +
                                                        period));
    EXPECT_EQ(RunCli("simulate " + path + " 1", /*timeout_s=*/10), 3)
        << period;
    std::remove(path.c_str());
  }
}

// A task none of whose jobs completed after the warm-up has no latency to
// judge: it prints "no jobs", not "ok", beside a task that has them.
TEST(CliTest, SimulateMarksTasksWithoutJobs) {
  const std::string path = WriteWorkload(
      "slow_task",
      "resource cpu0 cpu 1 1\n"
      "resource link0 link 1 1\n"
      "task fast 40\n"
      "  utility linear 80 1\n"
      "  trigger periodic 100\n"
      "  subtask a cpu0 2\n"
      "  subtask b link0 3\n"
      "  edge 0 1\n"
      "end\n"
      "task slow 40\n"
      "  utility linear 80 1\n"
      "  trigger periodic 5000\n"
      "  subtask c cpu0 2\n"
      "  subtask d link0 3\n"
      "  edge 0 1\n"
      "end\n");
  std::string out;
  EXPECT_EQ(RunCliCapture("simulate " + path + " 2", &out), 0);
  std::istringstream lines(out);
  std::string line, fast, slow;
  while (std::getline(lines, line)) {
    if (line.rfind("fast ", 0) == 0) fast = line;
    if (line.rfind("slow ", 0) == 0) slow = line;
  }
  EXPECT_NE(fast.find(" ok"), std::string::npos) << out;
  EXPECT_NE(slow.find("no jobs"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(CliTest, NotConvergedReturnsFour) {
  // Three iterations cannot converge on the paper workload.
  EXPECT_EQ(RunCli(std::string("solve ") + kPaperWorkload + " --iters 3"), 4);
}

TEST(CliTest, TraceEmitsJsonlAndConverges) {
  const std::string out = ::testing::TempDir() + "/cli_trace.jsonl";
  std::remove(out.c_str());
  ASSERT_EQ(RunCli(std::string("trace ") + kPaperWorkload + " --out " + out),
            0);

  const std::string jsonl = ReadFile(out);
  ASSERT_FALSE(jsonl.empty());
  // First record opens the run, last closes it.
  EXPECT_EQ(jsonl.find("{\"type\":\"run_begin\""), 0u);
  EXPECT_NE(jsonl.find("\"type\":\"run_end\""), std::string::npos);
  // Per-iteration records carry the series the figures need.
  EXPECT_NE(jsonl.find("\"type\":\"iteration\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"total_utility\":"), std::string::npos);
  EXPECT_NE(jsonl.find("\"resource_share_sums\":["), std::string::npos);
  EXPECT_NE(jsonl.find("\"resource_mu\":["), std::string::npos);

  // Iterations are 1-based, one JSON object per line, ending with run_end.
  std::istringstream lines(jsonl);
  std::string line;
  int records = 0;
  std::string last;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++records;
    last = line;
  }
  EXPECT_GT(records, 3);
  EXPECT_NE(last.find("run_end"), std::string::npos);
  std::remove(out.c_str());
}

TEST(CliTest, TraceWithDynamicsEmitsMomentumDiagnostics) {
  const std::string out = ::testing::TempDir() + "/cli_trace_momentum.jsonl";
  std::remove(out.c_str());
  ASSERT_EQ(RunCli(std::string("trace ") + kPaperWorkload +
                   " --dynamics=heavy-ball --momentum=0.9 --out " + out),
            0);
  const std::string jsonl = ReadFile(out);
  // Divergence must be diagnosable from the JSONL alone: every iteration
  // record carries the per-step restart count and the effective beta.
  EXPECT_NE(jsonl.find("\"momentum_restarts\":"), std::string::npos);
  EXPECT_NE(jsonl.find("\"effective_beta\":"), std::string::npos);
  std::remove(out.c_str());

  // Plain dynamics omit the momentum fields entirely.
  ASSERT_EQ(RunCli(std::string("trace ") + kPaperWorkload + " --out " + out),
            0);
  EXPECT_EQ(ReadFile(out).find("momentum_restarts"), std::string::npos);
  std::remove(out.c_str());
}

// Without --out the trace streams to stdout, the sink's one non-owning
// path: it must write exactly what --out writes, with the same exit code.
TEST(CliTest, TraceToStdoutMatchesTraceToFile) {
  const std::string trace =
      std::string("trace ") + kPaperWorkload + " --iters 5";
  std::string streamed;
  EXPECT_EQ(RunCliCapture(trace, &streamed), 4);
  const std::string out = ::testing::TempDir() + "/cli_trace_stdout.jsonl";
  EXPECT_EQ(RunCli(trace + " --out " + out), 4);
  const std::string written = ReadFile(out);
  EXPECT_EQ(std::count(written.begin(), written.end(), '\n'), 7);
  EXPECT_EQ(streamed, written);
  std::remove(out.c_str());
}

TEST(CliTest, TraceNotConvergedReturnsFour) {
  const std::string out = ::testing::TempDir() + "/cli_trace_short.jsonl";
  EXPECT_EQ(RunCli(std::string("trace ") + kPaperWorkload +
                   " --iters 3 --out " + out),
            4);
  std::remove(out.c_str());
}

TEST(CliTest, ChurnRunsAMutationStorm) {
  EXPECT_EQ(RunCli(std::string("churn ") + kPaperWorkload +
                   " --mutations=12 --seed=5 --threads=2"),
            0);
}

TEST(CliTest, ChurnFlagErrorsReturnTwo) {
  const std::string churn = std::string("churn ") + kPaperWorkload;
  EXPECT_EQ(RunCli(churn + " --mutations=0"), 2);   // below minimum
  EXPECT_EQ(RunCli(churn + " --threads=0"), 2);     // invalid thread count
  EXPECT_EQ(RunCli(churn + " --bogus-flag"), 2);    // unknown flag
}

}  // namespace
