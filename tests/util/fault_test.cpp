// Tests for the deterministic fault injector.
#include "util/fault.h"

#include <gtest/gtest.h>

#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/alloc.h"

namespace bigmap {
namespace {

TEST(FaultInjectorTest, TriggerFiresOnExactOccurrenceOnly) {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kExecAbort, /*instance=*/3,
                           /*nth=*/2});
  FaultInjector inj(1, plan);

  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(inj.fire(FaultSite::kExecAbort, 2)) << i;
  }
  EXPECT_FALSE(inj.fire(FaultSite::kExecAbort, 3));  // n = 0
  EXPECT_FALSE(inj.fire(FaultSite::kExecAbort, 3));  // n = 1
  EXPECT_TRUE(inj.fire(FaultSite::kExecAbort, 3));   // n = 2
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(inj.fire(FaultSite::kExecAbort, 3)) << i;
  }
}

TEST(FaultInjectorTest, CountersAreIndependentPerSiteAndInstance) {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kInstanceKill, 0, 0});
  FaultInjector inj(7, plan);

  // Burning occurrences of other sites / instances must not consume the
  // kInstanceKill counter of instance 0.
  EXPECT_FALSE(inj.fire(FaultSite::kExecAbort, 0));
  EXPECT_FALSE(inj.fire(FaultSite::kInstanceKill, 1));
  EXPECT_TRUE(inj.fire(FaultSite::kInstanceKill, 0));
}

TEST(FaultInjectorTest, RateDecisionsAreSeedDeterministic) {
  FaultPlan plan;
  plan.rates.push_back({FaultSite::kPublishDrop, /*per_million=*/200000});

  std::vector<bool> first, second;
  FaultInjector a(42, plan);
  FaultInjector b(42, plan);
  for (int i = 0; i < 500; ++i) {
    first.push_back(a.fire(FaultSite::kPublishDrop, 1));
    second.push_back(b.fire(FaultSite::kPublishDrop, 1));
  }
  EXPECT_EQ(first, second);

  // ~20% of 500 occurrences; the exact count is seed-determined, so a wide
  // bracket is safe and permanent.
  const u64 injected = a.stats().injected[
      static_cast<usize>(FaultSite::kPublishDrop)];
  EXPECT_GT(injected, 50u);
  EXPECT_LT(injected, 200u);
}

TEST(FaultInjectorTest, RateInstanceFilterApplies) {
  FaultPlan plan;
  plan.rates.push_back(
      {FaultSite::kExecAbort, /*per_million=*/1000000, /*instance=*/5});
  FaultInjector inj(3, plan);
  EXPECT_TRUE(inj.fire(FaultSite::kExecAbort, 5));
  EXPECT_FALSE(inj.fire(FaultSite::kExecAbort, 4));
}

TEST(FaultInjectorTest, StatsAndPerInstanceAccounting) {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kExecAbort, 0, 0});
  plan.triggers.push_back({FaultSite::kTransientHang, 1, 0});
  FaultInjector inj(9, plan);

  EXPECT_TRUE(inj.fire(FaultSite::kExecAbort, 0));
  EXPECT_FALSE(inj.fire(FaultSite::kExecAbort, 0));
  EXPECT_TRUE(inj.fire(FaultSite::kTransientHang, 1));

  const FaultStats s = inj.stats();
  EXPECT_EQ(s.checked_total(), 3u);
  EXPECT_EQ(s.injected_total(), 2u);
  EXPECT_EQ(s.injected[static_cast<usize>(FaultSite::kExecAbort)], 1u);
  EXPECT_EQ(inj.injected_for(0), 1u);
  EXPECT_EQ(inj.injected_for(1), 1u);
  EXPECT_EQ(inj.injected_for(2), 0u);
}

// kNumFaultSites sizes every per-site array (FaultStats, the telemetry
// mirrors, the shm occurrence mirror); each site below it must be a real,
// named site, so a new one cannot be left out of the count.
TEST(FaultInjectorTest, EverySiteHasAName) {
  std::set<std::string> names;
  for (usize si = 0; si < kNumFaultSites; ++si) {
    const std::string name = fault_site_name(static_cast<FaultSite>(si));
    EXPECT_NE(name, "unknown") << "site " << si;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_STREQ(fault_site_name(FaultSite::kSelfKill), "self-kill");
  EXPECT_STREQ(fault_site_name(FaultSite::kCount), "unknown");
}

TEST(FaultInjectorTest, WithoutDropsOnlyTheNamedSite) {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kSelfKill, 1, 2});
  plan.triggers.push_back({FaultSite::kProcKill, 1, 2});
  plan.rates.push_back({FaultSite::kSelfKill, 1000000});
  plan.rates.push_back({FaultSite::kNetDrop, 1000});
  const FaultPlan rest = plan.without(FaultSite::kSelfKill);
  ASSERT_EQ(rest.triggers.size(), 1u);
  EXPECT_EQ(rest.triggers[0].site, FaultSite::kProcKill);
  ASSERT_EQ(rest.rates.size(), 1u);
  EXPECT_EQ(rest.rates[0].site, FaultSite::kNetDrop);
  EXPECT_EQ(rest.hang_ms, plan.hang_ms);
}

TEST(FaultInjectorTest, ScopedBindingInjectsAllocationFailure) {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kAllocFail, /*instance=*/7, 0});
  FaultInjector inj(5, plan);

  // No binding: the injector is invisible to the allocation path.
  EXPECT_NO_THROW({ PageBuffer ok(4096, PageBacking::kNormal); });

  FaultInjector::ScopedThreadBinding bind(&inj, 7);
  EXPECT_THROW({ PageBuffer fail(4096, PageBacking::kNormal); },
               std::bad_alloc);
  // The trigger was the first occurrence only; the retry succeeds.
  EXPECT_NO_THROW({ PageBuffer retry(4096, PageBacking::kNormal); });
}

TEST(FaultInjectorTest, ThreadBindingIsPerThread) {
  FaultPlan plan;
  plan.rates.push_back({FaultSite::kAllocFail, /*per_million=*/1000000});
  FaultInjector inj(5, plan);
  FaultInjector::ScopedThreadBinding bind(&inj, 0);

  bool other_thread_threw = false;
  std::thread t([&]() {
    try {
      PageBuffer ok(4096, PageBacking::kNormal);
    } catch (const std::bad_alloc&) {
      other_thread_threw = true;
    }
  });
  t.join();
  EXPECT_FALSE(other_thread_threw);
}

}  // namespace
}  // namespace bigmap
