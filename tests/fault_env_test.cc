// The fault registry arms itself from TRAP_FAULTS and TRAP_TESTING_FAULT on
// its first consultation. This binary sets both before main, and nothing
// in it configures the registry before the test does.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/fault.h"

namespace trap::common {
namespace {

const bool kEnvironmentSet =
    setenv("TRAP_FAULTS", "engine.whatif.timeout@p=1", 1) == 0 &&
    setenv("TRAP_TESTING_FAULT", "invert_index_benefit", 1) == 0;

TEST(FaultEnvTest, ArmsFromEnvironmentOnFirstUse) {
  ASSERT_TRUE(kEnvironmentSet);
  EXPECT_TRUE(FaultShouldFire(FaultSite::kWhatIfTimeout, 1));
  EXPECT_TRUE(FaultShouldFire(FaultSite::kWhatIfInvertBenefit, 2));
  EXPECT_FALSE(FaultShouldFire(FaultSite::kWhatIfCostError, 3));
  EXPECT_EQ(FaultRegistry::Global().hits(FaultSite::kWhatIfTimeout), 1);
  // Configuring replaces the environment's spec; nothing is armed after.
  FaultRegistry::Global().Reset();
  EXPECT_FALSE(FaultShouldFire(FaultSite::kWhatIfTimeout, 1));
  EXPECT_FALSE(FaultShouldFire(FaultSite::kWhatIfInvertBenefit, 2));
}

}  // namespace
}  // namespace trap::common
