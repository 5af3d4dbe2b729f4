#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace vcpusim::cli {
namespace {

struct CliResult {
  int exit_code;
  std::string out;
  std::string err;
};

CliResult run(std::vector<const char*> args) {
  args.insert(args.begin(), "vcpusim");
  std::ostringstream out, err;
  const int code =
      run_cli(static_cast<int>(args.size()), args.data(), out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, HelpPrintsUsage) {
  const auto r = run({"--help"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("usage: vcpusim"), std::string::npos);
  EXPECT_NE(r.out.find("--scenario"), std::string::npos);
}

TEST(Cli, ListAlgorithms) {
  const auto r = run({"--list-algorithms"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("rrs"), std::string::npos);
  EXPECT_NE(r.out.find("scs"), std::string::npos);
  EXPECT_NE(r.out.find("rcs"), std::string::npos);
}

TEST(Cli, AlgorithmsVerbListsCatalog) {
  const auto r = run({"algorithms"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  // Every registered algorithm appears with its display name.
  EXPECT_NE(r.out.find("rrs (RRS)"), std::string::npos);
  EXPECT_NE(r.out.find("scs (SCS)"), std::string::npos);
  EXPECT_NE(r.out.find("rcs (RCS)"), std::string::npos);
  EXPECT_NE(r.out.find("credit (Credit)"), std::string::npos);
  // Aliases and option keys with construction-time defaults are listed.
  EXPECT_NE(r.out.find("aliases: round-robin rr"), std::string::npos);
  EXPECT_NE(r.out.find("accounting_period = 30"), std::string::npos);
  EXPECT_NE(r.out.find("skew_threshold = 10.0"), std::string::npos);
  EXPECT_NE(r.out.find("options: none"), std::string::npos);
}

TEST(Cli, AlgorithmsVerbJson) {
  const auto r = run({"algorithms", "--json"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("\"name\": \"rrs\""), std::string::npos);
  EXPECT_NE(r.out.find("\"aliases\": [\"round-robin\", \"rr\"]"),
            std::string::npos);
  EXPECT_NE(r.out.find("\"key\": \"accounting_period\""), std::string::npos);
  EXPECT_NE(r.out.find("\"default\": \"30\""), std::string::npos);
  EXPECT_NE(r.out.find("\"options_struct\": \"sched::CreditOptions\""),
            std::string::npos);
}

TEST(Cli, AlgorithmsVerbUnknownFlagFails) {
  const auto r = run({"algorithms", "--frobnicate"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST(Cli, UnknownFlagFails) {
  // The flag that opted out of the system pool is gone with its
  // build-per-replication path, and the engine selector with the second
  // engine.
  const std::vector<std::vector<const char*>> inputs = {
      {"--frobnicate"}, {"--rebuild-systems"}, {"--engine", "object"}};
  for (const auto& args : inputs) {
    const std::string flag = args.front();
    const auto r = run(args);
    EXPECT_EQ(r.exit_code, 1) << flag;
    EXPECT_NE(r.err.find("unknown option '" + flag + "'"), std::string::npos)
        << r.err;
  }
}

TEST(Cli, MissingValueFails) {
  const auto r = run({"--pcpus"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("requires a value"), std::string::npos);
}

TEST(Cli, FlagDrivenRunProducesTable) {
  const auto r = run({"--pcpus", "2", "--vm", "1", "--vm", "1",
                      "--algorithm", "rrs", "--end-time", "300", "--warmup",
                      "50", "--max-replications", "4", "--half-width", "0.1"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("mean_vcpu_availability"), std::string::npos);
  EXPECT_NE(r.out.find("pcpu_utilization"), std::string::npos);
  EXPECT_NE(r.out.find("| metric"), std::string::npos);
}

TEST(Cli, JobsFlagReproducesSequentialOutput) {
  const std::vector<const char*> base = {
      "--pcpus", "2", "--vm", "1", "--vm", "1", "--end-time", "300",
      "--warmup", "50", "--max-replications", "4", "--half-width", "1e-9"};
  auto with_jobs = base;
  with_jobs.insert(with_jobs.end(), {"--jobs", "4"});
  const auto sequential = run(base);
  const auto parallel = run(with_jobs);
  EXPECT_EQ(sequential.exit_code, 0) << sequential.err;
  EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
  EXPECT_EQ(sequential.out, parallel.out);
}

TEST(Cli, NegativeJobsFails) {
  const auto r = run({"--jobs", "-2"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("--jobs"), std::string::npos);
}

TEST(Cli, MalformedNumbersFailNamingTheFlag) {
  // Every numeric flag consumes its whole value; integer flags also
  // reject fractional and negative text.
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"--pcpus", "4x"},          {"--seed", "abc"},
      {"--end-time", "300x"},     {"--warmup", ""},
      {"--timeslice", "5ms"},     {"--half-width", "0.1.2"},
      {"--pcpus", "2.5"},         {"--vm", "-1"},
      {"--sync", "1.5"},          {"--seed", "-3"},
      {"--min-replications", "2.5"}, {"--max-replications", "1e300"},
      {"--jobs", "1.5"}};
  for (const auto& [flag, value] : cases) {
    const auto r = run({flag, value, "--vm", "1"});
    EXPECT_EQ(r.exit_code, 1) << flag << ' ' << value;
    EXPECT_NE(r.err.find(flag), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "") << flag << ' ' << value;
  }
}

TEST(Cli, UnreachableTargetsFail) {
  // Parsed fine, but no run could ever meet them: a NaN or negative
  // half-width target, and a horizon past 2^53 ticks.
  for (const char* width : {"nan", "-1"}) {
    const auto r = run({"--vm", "2", "--half-width", width, "--end-time",
                        "300", "--warmup", "50", "--max-replications", "3"});
    EXPECT_NE(r.exit_code, 0) << width;
    EXPECT_NE(r.err.find("target_half_width"), std::string::npos) << r.err;
  }
  const auto r = run({"--vm", "2", "--end-time", "1e300"});
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.err.find("end_time"), std::string::npos) << r.err;
  // A cap below two replications cannot give a confidence interval: 0
  // used to print all-zero metrics and 1 a zero half-width.
  for (const char* cap : {"0", "1"}) {
    const auto capped = run({"--pcpus", "2", "--vm", "2",
                             "--max-replications", cap});
    EXPECT_EQ(capped.exit_code, 1) << cap;
    EXPECT_NE(capped.err.find("max_replications"), std::string::npos)
        << capped.err;
    EXPECT_EQ(capped.out, "") << cap;
  }
}

TEST(Cli, LintRejectsBadRunSettingsAtTheirLine) {
  const std::string path = ::testing::TempDir() + "/vcpusim_bad_run.scn";
  for (const char* setting : {"half_width = nan", "end_time = 1e300",
                              "confidence = 2", "max_replications = 0"}) {
    {
      std::ofstream file(path);
      file << "pcpus = 2\n" << setting << "\n[vm]\nvcpus = 2\n";
    }
    const auto r = run({"lint", path.c_str()});
    EXPECT_EQ(r.exit_code, 1) << setting;
    EXPECT_NE(r.err.find("line 2: "), std::string::npos) << r.err;
  }
  std::remove(path.c_str());
}

TEST(Cli, CsvOutput) {
  const auto r = run({"--pcpus", "2", "--vm", "1", "--end-time", "200",
                      "--warmup", "20", "--max-replications", "3",
                      "--half-width", "0.2", "--csv"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("metric,mean,ci_half_width"), std::string::npos);
}

TEST(Cli, CustomMetricSelection) {
  const auto r = run({"--pcpus", "2", "--vm", "2", "--metric", "throughput",
                      "--metric", "availability[0]", "--end-time", "200",
                      "--warmup", "20", "--max-replications", "3",
                      "--half-width", "0.2"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("throughput"), std::string::npos);
  EXPECT_NE(r.out.find("vcpu_availability[0]"), std::string::npos);
  EXPECT_EQ(r.out.find("mean_vcpu_availability"), std::string::npos);
}

TEST(Cli, BadMetricNameFails) {
  const auto r = run({"--metric", "bogus"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown metric"), std::string::npos);
}

TEST(Cli, UnknownAlgorithmFails) {
  const auto r = run({"--vm", "1", "--algorithm", "warp"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("unknown scheduling algorithm"), std::string::npos);
}

TEST(Cli, UnknownAlgorithmErrorListsValidNames) {
  const auto r = run({"--vm", "1", "--algorithm", "warp"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("warp"), std::string::npos);
  EXPECT_NE(r.err.find("valid algorithms"), std::string::npos);
  EXPECT_NE(r.err.find("rrs"), std::string::npos);
  EXPECT_NE(r.err.find("rcs"), std::string::npos);
  EXPECT_NE(r.err.find("sedf"), std::string::npos);
}

TEST(Cli, InvalidSystemFails) {
  const auto r = run({"--pcpus", "0", "--vm", "1"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("num_pcpus"), std::string::npos);
}

TEST(Cli, ScenarioFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/vcpusim_test.scn";
  {
    std::ofstream file(path);
    file << "pcpus = 2\nend_time = 300\nwarmup = 50\n"
         << "max_replications = 3\nhalf_width = 0.2\n"
         << "metrics = throughput\n"
         << "[vm only]\nvcpus = 2\nsync_ratio = 3\n";
  }
  const auto r = run({"--scenario", path.c_str()});
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("throughput"), std::string::npos);
}

TEST(Cli, CompareModeRunsAllAlgorithms) {
  const auto r = run({"--pcpus", "1", "--vm", "1", "--vm", "1", "--compare",
                      "--metric", "availability", "--end-time", "200",
                      "--warmup", "20", "--max-replications", "3",
                      "--half-width", "0.2"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("| algorithm"), std::string::npos);
  EXPECT_NE(r.out.find("rrs"), std::string::npos);
  EXPECT_NE(r.out.find("scs"), std::string::npos);
  EXPECT_NE(r.out.find("sedf"), std::string::npos);
  EXPECT_NE(r.out.find("priority"), std::string::npos);
}

TEST(Cli, MissingScenarioFileFails) {
  const auto r = run({"--scenario", "/nonexistent/path.scn"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(Cli, LintDefaultSystemIsClean) {
  const auto r = run({"lint"});
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("0 error(s), 0 warning(s)"), std::string::npos);
}

TEST(Cli, LintJsonOutput) {
  const auto r = run({"lint", "--json"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '{');
  EXPECT_NE(r.out.find("\"model\":\"Virtual_System\""), std::string::npos);
  EXPECT_NE(r.out.find("\"errors\":0"), std::string::npos);
}

TEST(Cli, LintAllAlgorithmsIsClean) {
  const auto r = run({"lint", "--all-algorithms", "--strict"});
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
}

TEST(Cli, LintFlagDrivenSystem) {
  const auto r = run({"lint", "--pcpus", "2", "--vm", "3", "--algorithm",
                      "scs", "--sync", "0"});
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
}

TEST(Cli, LintScenarioFilePositional) {
  const std::string path = ::testing::TempDir() + "/vcpusim_lint.scn";
  {
    std::ofstream file(path);
    file << "pcpus = 2\n[vm only]\nvcpus = 2\nsync_ratio = 3\n";
  }
  const auto r = run({"lint", path.c_str()});
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("0 error(s)"), std::string::npos);
}

TEST(Cli, LintUnknownAlgorithmFailsWithValidNames) {
  const auto r = run({"lint", "--algorithm", "warp"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("unknown scheduling algorithm"), std::string::npos);
  EXPECT_NE(r.err.find("valid algorithms"), std::string::npos);
}

TEST(Cli, LintListChecksCatalog) {
  const auto r = run({"lint", "--list-checks"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("dead-activity"), std::string::npos);
  EXPECT_NE(r.out.find("effect-footprint-mismatch"), std::string::npos);
  EXPECT_NE(r.out.find("probe-budget-exceeded"), std::string::npos);
  EXPECT_NE(r.out.find("[info]"), std::string::npos);
  EXPECT_NE(r.out.find("[error]"), std::string::npos);
}

TEST(Cli, LintListChecksJson) {
  const auto r = run({"lint", "--list-checks", "--json"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '{');
  EXPECT_NE(r.out.find("\"checks\":["), std::string::npos);
  EXPECT_NE(r.out.find("\"id\":\"unserialized-shared-write\""),
            std::string::npos);
  EXPECT_NE(r.out.find("\"severity\":\"info\""), std::string::npos);
}

TEST(Cli, LintProveShowsInvariantSection) {
  const auto r = run({"lint", "--prove", "--pcpus", "2", "--vm", "2"});
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
  EXPECT_NE(r.out.find("invariants:"), std::string::npos);
  EXPECT_NE(r.out.find("  invariant: "), std::string::npos);
  EXPECT_NE(r.out.find("  bound: "), std::string::npos);
  EXPECT_NE(r.out.find(" = "), std::string::npos);
}

TEST(Cli, LintProveJsonCarriesInvariantAnalysis) {
  const auto r = run({"lint", "--prove", "--json", "--pcpus", "2", "--vm",
                      "1", "--sync", "0"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("\"invariant_analysis\":{"), std::string::npos);
  EXPECT_NE(r.out.find("\"budget_exhausted\":false"), std::string::npos);
  EXPECT_NE(r.out.find("\"invariants\":["), std::string::npos);
  EXPECT_NE(r.out.find("\"bounds\":["), std::string::npos);
}

TEST(Cli, LintWithoutProveOmitsInvariantSection) {
  const auto r = run({"lint", "--pcpus", "2", "--vm", "2"});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(r.out.find("invariants:"), std::string::npos);
}

TEST(Cli, LintProveStrictAcceptsShippedModel) {
  const auto r = run({"lint", "--prove", "--strict", "--pcpus", "4", "--vm",
                      "2", "--vm", "2"});
  EXPECT_EQ(r.exit_code, 0) << r.out << r.err;
}

TEST(Cli, LintHelpShowsVerb) {
  const auto r = run({"--help"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("vcpusim lint"), std::string::npos);
  EXPECT_NE(r.out.find("--strict"), std::string::npos);
  EXPECT_NE(r.out.find("--all-algorithms"), std::string::npos);
}

}  // namespace
}  // namespace vcpusim::cli
