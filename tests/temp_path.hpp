// Per-process scratch paths for tests.
//
// gtest_discover_tests registers every test case as its own ctest entry, and
// `ctest -j` runs those processes concurrently. A fixed file name under
// ::testing::TempDir() is therefore shared by every process that uses it:
// one can truncate or remove() the file while another is still reading it.
// Prefixing the process id gives each test process its own path; the rest
// of the name (extensions, ".<core>.mbt" suffixes) is kept as given.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace mb {

inline std::string testTempPath(const std::string& name) {
  return ::testing::TempDir() + "mb" + std::to_string(::getpid()) + "_" + name;
}

}  // namespace mb
