// The bench front end (bench/common/bench_util): flag parsing, the one
// meaning of --scale, and the artifact writers every bench shares.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "src/common/file_util.h"
#include "src/common/string_util.h"

namespace treebench::bench {
namespace {

constexpr uint32_t kEveryArtifact = kTraceJsonFlag | kSummaryJsonFlag |
                                    kJsonFlag | kTelemetryDirFlag |
                                    kQueryLogDirFlag;

// Parses as a bench that writes `writes` (by default every artifact).
Result<BenchOptions> Parse(std::vector<const char*> flags,
                           uint32_t default_scale = 1,
                           uint32_t writes = kEveryArtifact) {
  flags.insert(flags.begin(), "bench_test");
  return TryParseArgs(static_cast<int>(flags.size()), flags.data(),
                      default_scale, writes);
}

// Sets (or, with nullptr, unsets) TREEBENCH_JOBS for one scope and puts
// the caller's value back afterwards.
class ScopedJobsEnv {
 public:
  explicit ScopedJobsEnv(const char* value) {
    if (const char* prev = std::getenv("TREEBENCH_JOBS")) prev_ = prev;
    if (value != nullptr) {
      setenv("TREEBENCH_JOBS", value, /*overwrite=*/1);
    } else {
      unsetenv("TREEBENCH_JOBS");
    }
  }
  ~ScopedJobsEnv() {
    if (prev_) {
      setenv("TREEBENCH_JOBS", prev_->c_str(), 1);
    } else {
      unsetenv("TREEBENCH_JOBS");
    }
  }

 private:
  std::optional<std::string> prev_;
};

TEST(BenchArgsTest, EveryFlagRoundTrips) {
  auto opts = Parse({"--scale=8", "--jobs=3", "--clients=5", "--queries=7",
                     "--servers=2", "--stats-json=s.json", "--perf-json=p.json",
                     "--trace-json=t.json", "--summary-json=sum.json",
                     "--json=r.json", "--telemetry-dir=tel",
                     "--query-log-dir=ql", "--verbose"});
  ASSERT_TRUE(opts.ok()) << opts.status().ToString();
  EXPECT_EQ(opts->scale, 8u);
  EXPECT_FALSE(opts->smoke);
  EXPECT_EQ(opts->jobs, 3u);
  EXPECT_EQ(opts->clients, 5u);
  EXPECT_EQ(opts->queries, 7u);
  EXPECT_EQ(opts->servers, 2u);
  EXPECT_EQ(opts->stats_json_path, "s.json");
  EXPECT_EQ(opts->perf_json_path, "p.json");
  EXPECT_EQ(opts->trace_json_path, "t.json");
  EXPECT_EQ(opts->summary_json_path, "sum.json");
  EXPECT_EQ(opts->json_path, "r.json");
  EXPECT_EQ(opts->telemetry_dir, "tel");
  EXPECT_EQ(opts->query_log_dir, "ql");
  EXPECT_TRUE(opts->verbose);
}

TEST(BenchArgsTest, AbsentFlagsGiveDefaults) {
  ScopedJobsEnv env(nullptr);
  auto opts = Parse({});
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->scale, 1u);
  EXPECT_FALSE(opts->smoke);
  EXPECT_EQ(opts->jobs, 0u);
  EXPECT_EQ(opts->clients, 0u);
  EXPECT_EQ(opts->queries, 0u);
  EXPECT_EQ(opts->servers, 0u);
  EXPECT_TRUE(opts->stats_json_path.empty());
  EXPECT_FALSE(opts->verbose);
}

TEST(BenchArgsTest, ScaleZeroIsSmokeAtScale64) {
  for (uint32_t default_scale : {1u, 10u}) {
    auto opts = Parse({"--scale=0"}, default_scale);
    ASSERT_TRUE(opts.ok());
    EXPECT_TRUE(opts->smoke);
    EXPECT_EQ(opts->scale, 64u);
  }
  auto explicit64 = Parse({"--scale=64"});
  ASSERT_TRUE(explicit64.ok());
  EXPECT_FALSE(explicit64->smoke);
  EXPECT_EQ(explicit64->scale, 64u);
}

TEST(BenchArgsTest, AbsentScaleGivesBenchDefault) {
  auto opts = Parse({"--jobs=2"}, /*default_scale=*/10);
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->scale, 10u);
  EXPECT_FALSE(opts->smoke);
  auto paper = Parse({"--scale=1"}, /*default_scale=*/10);
  ASSERT_TRUE(paper.ok());
  EXPECT_EQ(paper->scale, 1u);
}

TEST(BenchArgsTest, JobsBoundsAreInclusive) {
  EXPECT_EQ(Parse({"--jobs=1"})->jobs, 1u);
  EXPECT_EQ(Parse({"--jobs=1023"})->jobs, 1023u);
}

TEST(BenchArgsTest, RejectsUnknownFlags) {
  for (const char* flag :
       {"--summary_json=x.json", "--clinets=2", "--csv=x.csv", "--scale",
        "--verbose=1", "-v", "positional", "--benchmark_min_time=1"}) {
    auto opts = Parse({flag});
    EXPECT_FALSE(opts.ok()) << flag;
    EXPECT_EQ(opts.status().code(), StatusCode::kInvalidArgument) << flag;
  }
}

TEST(BenchArgsTest, RejectsMalformedOrOutOfRangeNumbers) {
  for (const char* flag :
       {"--scale=abc", "--scale=-1", "--scale=", "--scale=2x", "--scale= 2",
        "--scale=+2", "--scale=4294967296", "--jobs=0", "--jobs=1024",
        "--jobs=-4", "--clients=0", "--queries=0", "--servers=0",
        "--queries=1.5"}) {
    EXPECT_FALSE(Parse({flag}).ok()) << flag;
  }
}

TEST(BenchArgsTest, JobsEnvIsTheDefaultAndTheFlagWins) {
  ScopedJobsEnv env("5");
  EXPECT_EQ(Parse({})->jobs, 5u);
  EXPECT_EQ(Parse({"--jobs=2"})->jobs, 2u);
  ScopedJobsEnv top("1023");
  EXPECT_EQ(Parse({})->jobs, 1023u);
}

TEST(BenchArgsTest, RejectsMalformedOrOutOfRangeJobsEnv) {
  for (const char* value : {"not-a-number", "", "0", "1024", "5000", "-4",
                            "+4", " 4", "4 ", "4x", "1.5"}) {
    ScopedJobsEnv env(value);
    auto opts = Parse({});
    EXPECT_FALSE(opts.ok()) << "TREEBENCH_JOBS=\"" << value << "\"";
    EXPECT_EQ(opts.status().code(), StatusCode::kInvalidArgument) << value;
    // An explicit --jobs does not excuse a bad environment value.
    EXPECT_FALSE(Parse({"--jobs=2"}).ok()) << value;
  }
}

TEST(BenchArgsTest, RejectsEmptyPaths) {
  for (const char* flag : {"--stats-json=", "--json=", "--telemetry-dir="}) {
    EXPECT_FALSE(Parse({flag}).ok()) << flag;
  }
}

TEST(BenchArgsTest, RejectsArtifactFlagsTheBenchDoesNotWrite) {
  const struct {
    const char* flag;
    uint32_t artifact;
  } kArtifacts[] = {{"--trace-json=t.json", kTraceJsonFlag},
                    {"--summary-json=s.json", kSummaryJsonFlag},
                    {"--json=r.json", kJsonFlag},
                    {"--telemetry-dir=tel", kTelemetryDirFlag},
                    {"--query-log-dir=ql", kQueryLogDirFlag}};
  for (const auto& a : kArtifacts) {
    // A bench that writes none of them, or every other one, rejects it...
    for (uint32_t writes : {0u, kEveryArtifact & ~a.artifact}) {
      auto opts = Parse({a.flag}, 1, writes);
      EXPECT_FALSE(opts.ok()) << a.flag << " writes=" << writes;
      EXPECT_EQ(opts.status().code(), StatusCode::kInvalidArgument)
          << a.flag;
    }
    // ...and a bench that writes it accepts it.
    EXPECT_TRUE(Parse({a.flag}, 1, a.artifact).ok()) << a.flag;
  }
  // --stats-json and --perf-json are accepted everywhere.
  auto opts = Parse({"--stats-json=s.json", "--perf-json=p.json"}, 1, 0);
  ASSERT_TRUE(opts.ok()) << opts.status().ToString();
  EXPECT_EQ(opts->stats_json_path, "s.json");
  EXPECT_EQ(opts->perf_json_path, "p.json");
}

TEST(BenchArgsTest, OneBadFlagAmongGoodOnesRejectsTheWholeLine) {
  EXPECT_FALSE(Parse({"--scale=8", "--jobs=4", "--clinets=2"}).ok());
}

TEST(BenchArgsDeathTest, ParseArgsExitsTwoWithUsage) {
  const char* argv[] = {"bench_test", "--clinets=2", nullptr};
  EXPECT_EXIT(ParseArgs(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "unknown flag --clinets=2.*usage");
  // A paper bench writes no summary: the flag fails before any work, and
  // the usage line lists only the artifacts the bench writes.
  const char* summary[] = {"bench_test", "--summary-json=s.json", nullptr};
  EXPECT_EXIT(ParseArgs(2, const_cast<char**>(summary)),
              ::testing::ExitedWithCode(2),
              "--summary-json names an artifact this bench does not write; "
              "usage: bench_test( \\[--[a-z]+=N\\])+ "
              "\\[--stats-json=PATH\\] \\[--perf-json=PATH\\] "
              "\\[--verbose\\]");
}

TEST(BenchArgsDeathTest, BadJobsEnvExitsTwoWithUsage) {
  ScopedJobsEnv env("5000");
  const char* argv[] = {"bench_test", nullptr};
  EXPECT_EXIT(ParseArgs(1, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2),
              "bad value in TREEBENCH_JOBS=5000.*usage");
}

std::string ReadBack(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(WriteFileTest, WritesAndReplaces) {
  const std::string path = ::testing::TempDir() + "/bench_args_write.txt";
  ASSERT_TRUE(WriteFile(path, "first, longer content\n").ok());
  ASSERT_TRUE(WriteFile(path, std::string("a\0b", 3)).ok());
  EXPECT_EQ(ReadBack(path), std::string("a\0b", 3));
  std::remove(path.c_str());
}

TEST(WriteFileTest, MissingDirectoryIsAnError) {
  const std::string path =
      ::testing::TempDir() + "/no_such_dir_bench_args/x.json";
  EXPECT_FALSE(WriteFile(path, "{}").ok());
  EXPECT_FALSE(WriteArtifact(path, "{}", "test artifact"));
}

TEST(WriteFileTest, UnrequestedArtifactIsNotAnError) {
  EXPECT_TRUE(WriteArtifact("", "{}", "test artifact"));
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain name_1"), "plain name_1");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape("\x01"), "\\u0001");
  EXPECT_EQ(JsonEscape("\x1f\r"), "\\u001f\\u000d");
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passes
}

}  // namespace
}  // namespace treebench::bench
