// Per-test scratch directories for tests that write files. ctest runs
// every TEST as its own process, possibly in parallel, so a directory
// shared by several tests would be deleted under a sibling's feet. Each
// directory is named after the running test plus the process id.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

namespace owlcl::test {

/// Creates (emptied) and returns <TempDir>/<Suite>.<Test>-<pid>; call it
/// from inside a test (SetUp or the body). Fixtures remove theirs in
/// TearDown; whatever is left is removed when the process exits normally
/// (a crash-drill child that dies by _exit leaves its parent's directory
/// alone).
inline std::string perTestDir() {
  namespace fs = std::filesystem;
  struct Registry {
    std::vector<fs::path> dirs;
    ~Registry() {
      std::error_code ec;
      for (const fs::path& d : dirs) fs::remove_all(d, ec);
    }
  };
  static Registry registry;

  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (std::string(info->test_suite_name()) + "." +
                        info->name() + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  registry.dirs.push_back(dir);
  return dir.string();
}

}  // namespace owlcl::test
