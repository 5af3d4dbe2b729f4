// Byte-pins `vcpusim lint --prove --json` against recorded fixtures.
//
// The invariant engine's output (incidence columns, P-invariants, token
// bounds, trampoline census) depends on every gate's declared effects,
// including the scheduler bridge's per-(VCPU, PCPU) assign/deschedule
// micro-steps. The fixtures under tests/testing/golden/lint_prove/ were
// captured from the eager-declaration implementation; any change to how
// effects are declared or expanded must reproduce them byte for byte.
//
// To re-record after an intentional output change:
//   vcpusim lint --prove --json <args> > tests/testing/golden/lint_prove/<name>.json
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace vcpusim::cli {
namespace {

const std::string kDir = VCPUSIM_TEST_DIR "/testing/golden/lint_prove/";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_matches_fixture(std::vector<const char*> args,
                            const std::string& fixture) {
  args.insert(args.begin(), {"vcpusim", "lint", "--prove", "--json"});
  std::ostringstream out, err;
  const int code =
      run_cli(static_cast<int>(args.size()), args.data(), out, err);
  ASSERT_EQ(code, 0) << err.str();
  const std::string expected = read_file(kDir + fixture);
  ASSERT_FALSE(expected.empty());
  EXPECT_TRUE(out.str() == expected)
      << "lint --prove --json output diverged from " << fixture;
}

TEST(LintProveGolden, ThreeVmsOnFourPcpus) {
  expect_matches_fixture({"--pcpus", "4", "--vm", "2", "--vm", "2", "--vm", "1"},
                         "p4_vm2_vm2_vm1.json");
}

TEST(LintProveGolden, FourVmsOnEightPcpusWithDvfs) {
  expect_matches_fixture({"--pcpus", "8", "--vm", "4", "--vm", "4", "--vm",
                          "2", "--vm", "2", "--dvfs"},
                         "p8_vm4x2_vm2x2_dvfs.json");
}

TEST(LintProveGolden, SpinlockScenario) {
  const std::string scenario = kDir + "spinlock.scn";
  expect_matches_fixture({scenario.c_str()}, "spinlock.json");
}

}  // namespace
}  // namespace vcpusim::cli
