// End-to-end tests of the `dbtf` command-line tool's subcommands, driving
// the real pipeline through temp files: generate -> info -> factorize ->
// eval, plus the error paths.

#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "tensor/io.h"

namespace dbtf {
namespace cli {
namespace {

/// Runs a subcommand function with the given argv-style flags.
template <typename Fn>
Status RunCommand(Fn fn, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  FlagParser flags(static_cast<int>(args.size()), args.data());
  return fn(&flags);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CliGenerate, UniformWritesTensor) {
  const std::string path = TempPath("cli_uniform.txt");
  const std::string out_flag = "--output=" + path;
  ASSERT_TRUE(RunCommand(RunGenerate, {"--kind=uniform", "--dim-i=16", "--dim-j=16",
                                "--dim-k=16", "--density=0.05",
                                out_flag.c_str()})
                  .ok());
  auto tensor = ReadTensorText(path);
  ASSERT_TRUE(tensor.ok());
  EXPECT_EQ(tensor->dim_i(), 16);
  EXPECT_GT(tensor->NumNonZeros(), 0);
  std::remove(path.c_str());
}

TEST(CliGenerate, PlantedWritesTensorAndTruth) {
  const std::string path = TempPath("cli_planted.txt");
  const std::string truth = TempPath("cli_truth");
  const std::string out_flag = "--output=" + path;
  const std::string truth_flag = "--truth-prefix=" + truth;
  ASSERT_TRUE(RunCommand(RunGenerate,
                  {"--kind=planted", "--dim-i=20", "--rank=3",
                   "--factor-density=0.2", out_flag.c_str(),
                   truth_flag.c_str()})
                  .ok());
  EXPECT_TRUE(ReadTensorText(path).ok());
  EXPECT_TRUE(ReadMatrixText(truth + ".A.txt").ok());
  EXPECT_TRUE(ReadMatrixText(truth + ".B.txt").ok());
  EXPECT_TRUE(ReadMatrixText(truth + ".C.txt").ok());
  for (const char* suffix : {".A.txt", ".B.txt", ".C.txt"}) {
    std::remove((truth + suffix).c_str());
  }
  std::remove(path.c_str());
}

TEST(CliGenerate, WorkloadStandIn) {
  const std::string path = TempPath("cli_ddos.txt");
  const std::string out_flag = "--output=" + path;
  ASSERT_TRUE(RunCommand(RunGenerate, {"--kind=ddos-s", "--shrink=256",
                                out_flag.c_str()})
                  .ok());
  auto tensor = ReadTensorText(path);
  ASSERT_TRUE(tensor.ok());
  EXPECT_GT(tensor->NumNonZeros(), 0);
  std::remove(path.c_str());
}

TEST(CliGenerate, Validation) {
  EXPECT_FALSE(RunCommand(RunGenerate, {"--kind=uniform"}).ok())
      << "--output is required";
  const std::string out_flag = "--output=" + TempPath("never.txt");
  EXPECT_FALSE(
      RunCommand(RunGenerate, {"--kind=no-such-dataset", out_flag.c_str()}).ok());
  EXPECT_FALSE(
      RunCommand(RunGenerate, {"--kind=uniform", "--typo=1", out_flag.c_str()}).ok())
      << "unknown flags are rejected";
}

class CliPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    tensor_path_ = TempPath("cli_pipeline_tensor.txt");
    factors_prefix_ = TempPath("cli_pipeline_factors");
    const std::string out_flag = "--output=" + tensor_path_;
    ASSERT_TRUE(RunCommand(RunGenerate,
                    {"--kind=planted", "--dim-i=24", "--rank=3",
                     "--factor-density=0.2", "--seed=5", out_flag.c_str()})
                    .ok());
  }

  void TearDown() override {
    std::remove(tensor_path_.c_str());
    for (const char* suffix : {".A.txt", ".B.txt", ".C.txt"}) {
      std::remove((factors_prefix_ + suffix).c_str());
    }
  }

  std::string tensor_path_;
  std::string factors_prefix_;
};

TEST_F(CliPipeline, InfoReadsTensor) {
  const std::string in_flag = "--input=" + tensor_path_;
  EXPECT_TRUE(RunCommand(RunInfo, {in_flag.c_str()}).ok());
  EXPECT_FALSE(RunCommand(RunInfo, {}).ok());
  EXPECT_FALSE(RunCommand(RunInfo, {"--input=/no/such/file"}).ok());
}

TEST_F(CliPipeline, FactorizeThenEvalAllAlgorithms) {
  const std::string in_flag = "--input=" + tensor_path_;
  const std::string out_flag = "--output-prefix=" + factors_prefix_;
  const std::string eval_prefix = "--factors-prefix=" + factors_prefix_;
  for (const char* algorithm : {"dbtf", "bcp-als", "walk-n-merge", "tucker"}) {
    const std::string algo_flag = std::string("--algorithm=") + algorithm;
    ASSERT_TRUE(RunCommand(RunFactorize, {in_flag.c_str(), algo_flag.c_str(),
                                   "--rank=3", "--max-iterations=5",
                                   out_flag.c_str()})
                    .ok())
        << algorithm;
    EXPECT_TRUE(RunCommand(RunEval, {in_flag.c_str(), eval_prefix.c_str()}).ok())
        << algorithm;
  }
}

TEST_F(CliPipeline, FactorizeValidation) {
  const std::string in_flag = "--input=" + tensor_path_;
  EXPECT_FALSE(RunCommand(RunFactorize, {}).ok()) << "--input required";
  EXPECT_FALSE(
      RunCommand(RunFactorize, {in_flag.c_str(), "--algorithm=magic"}).ok());
  EXPECT_FALSE(
      RunCommand(RunFactorize, {in_flag.c_str(), "--rank=nonsense"}).ok());
}

TEST_F(CliPipeline, FactorizeTransportValidation) {
  const std::string in_flag = "--input=" + tensor_path_;
  const std::string out_flag = "--output-prefix=" + factors_prefix_;
  // An unknown transport name is rejected by ParseTransportKind, not
  // silently mapped onto a default.
  EXPECT_FALSE(RunCommand(RunFactorize,
                          {in_flag.c_str(), "--rank=3", "--max-iterations=2",
                           "--transport=carrier-pigeon", out_flag.c_str()})
                   .ok());
  // A socket directory too long for sun_path fails cluster validation.
  const std::string long_dir =
      "--socket-dir=/tmp/" + std::string(150, 'x');
  EXPECT_FALSE(RunCommand(RunFactorize,
                          {in_flag.c_str(), "--rank=3", "--max-iterations=2",
                           "--transport=socket", long_dir.c_str(),
                           out_flag.c_str()})
                   .ok());
}

TEST_F(CliPipeline, FactorizeOverSocketTransportMatchesInproc) {
  const std::string in_flag = "--input=" + tensor_path_;
  const std::string inproc_prefix = TempPath("cli_factors_inproc");
  const std::string socket_prefix = TempPath("cli_factors_socket");
  const std::string inproc_out = "--output-prefix=" + inproc_prefix;
  const std::string socket_out = "--output-prefix=" + socket_prefix;
  ASSERT_TRUE(RunCommand(RunFactorize,
                         {in_flag.c_str(), "--rank=3", "--max-iterations=4",
                          "--machines=2", "--transport=inproc",
                          inproc_out.c_str()})
                  .ok());
  ASSERT_TRUE(RunCommand(RunFactorize,
                         {in_flag.c_str(), "--rank=3", "--max-iterations=4",
                          "--machines=2", "--transport=socket",
                          socket_out.c_str()})
                  .ok());
  for (const char* suffix : {".A.txt", ".B.txt", ".C.txt"}) {
    auto inproc = ReadMatrixText(inproc_prefix + suffix);
    auto socket = ReadMatrixText(socket_prefix + suffix);
    ASSERT_TRUE(inproc.ok());
    ASSERT_TRUE(socket.ok());
    EXPECT_EQ(*inproc, *socket) << suffix;
    std::remove((inproc_prefix + suffix).c_str());
    std::remove((socket_prefix + suffix).c_str());
  }
}

TEST_F(CliPipeline, EvalValidation) {
  const std::string in_flag = "--input=" + tensor_path_;
  EXPECT_FALSE(RunCommand(RunEval, {in_flag.c_str()}).ok())
      << "--factors-prefix required";
  const std::string bad_prefix = "--factors-prefix=" + TempPath("nothing");
  EXPECT_FALSE(RunCommand(RunEval, {in_flag.c_str(), bad_prefix.c_str()}).ok());
}

TEST(CliMain, DispatchAndUsage) {
  const char* help[] = {"dbtf", "help"};
  EXPECT_EQ(RunCli(2, help), 0);
  const char* none[] = {"dbtf"};
  EXPECT_EQ(RunCli(1, none), 2);
  const char* bogus[] = {"dbtf", "frobnicate"};
  EXPECT_EQ(RunCli(2, bogus), 2);
  const char* failing[] = {"dbtf", "info"};
  EXPECT_EQ(RunCli(2, failing), 1) << "missing --input is a runtime error";
}

TEST_F(CliPipeline, SelectRankRunsAndValidates) {
  const std::string in_flag = "--input=" + tensor_path_;
  EXPECT_TRUE(RunCommand(RunSelectRank,
                         {in_flag.c_str(), "--max-rank=5",
                          "--max-iterations=3", "--initial-sets=2"})
                  .ok());
  EXPECT_FALSE(RunCommand(RunSelectRank, {}).ok()) << "--input required";
  EXPECT_FALSE(
      RunCommand(RunSelectRank, {in_flag.c_str(), "--max-rank=0"}).ok());
}

TEST(CliServe, RunsAMixedWorkload) {
  ASSERT_TRUE(RunCommand(RunServe, {"--dim-i=32", "--rank=6", "--ops=64",
                                    "--machines=2", "--seed=7"})
                  .ok());
}

TEST(CliServe, RunsEverySkewFamily) {
  for (const char* skew :
       {"--skew=uniform", "--skew=normal", "--skew=lognormal",
        "--skew=weblog"}) {
    EXPECT_TRUE(RunCommand(RunServe, {"--dim-i=24", "--rank=4", "--ops=24",
                                      "--machines=2", skew})
                    .ok())
        << skew;
  }
}

TEST(CliServe, SurvivesAFaultPlan) {
  ASSERT_TRUE(RunCommand(RunServe,
                         {"--dim-i=24", "--rank=4", "--ops=48", "--machines=2",
                          "--fault-plan=1:collect:crash@2"})
                  .ok());
}

TEST(CliServe, RejectsBadArguments) {
  EXPECT_EQ(RunCommand(RunServe, {"--ops=0"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCommand(RunServe, {"--skew=zipfian"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCommand(RunServe, {"--rank=65"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCommand(RunServe, {"--membership-ratio=-1"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunCommand(RunServe, {"--transport=tcp"}).code(),
            StatusCode::kInvalidArgument);
  // The all-zero mix has nothing to draw operations from.
  EXPECT_EQ(RunCommand(RunServe,
                       {"--membership-ratio=0", "--fiber-ratio=0",
                        "--top-ratio=0", "--update-ratio=0"})
                .code(),
            StatusCode::kInvalidArgument);
  // Unread flags are rejected like everywhere else in the tool.
  EXPECT_FALSE(RunCommand(RunServe, {"--ops=8", "--no-such-flag=1"}).ok());
}

TEST(CliMain, UsageMentionsAllCommands) {
  const std::string usage = UsageText();
  for (const char* command :
       {"generate", "factorize", "eval", "info", "select-rank", "tucker",
        "serve"}) {
    EXPECT_NE(usage.find(command), std::string::npos) << command;
  }
}

}  // namespace
}  // namespace cli
}  // namespace dbtf
