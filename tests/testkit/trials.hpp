#pragma once

/// \file trials.hpp
/// Trial-count scaling shared by the seeded fuzz and oracle suites.

#include <cstdlib>

namespace arb::testkit {

/// 5x trials when ARB_LONG_TESTS=1 (any non-empty value but "0").
inline int trial_multiplier() {
  const char* flag = std::getenv("ARB_LONG_TESTS");
  return (flag != nullptr && flag[0] != '\0' && flag[0] != '0') ? 5 : 1;
}

}  // namespace arb::testkit
