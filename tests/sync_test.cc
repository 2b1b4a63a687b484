// The synchronization layer: mutual exclusion through hcs::Mutex/MutexLock,
// CondVar wakeups, contention/held-time counters, the named-mutex registry,
// and — the part with teeth — the lock-order deadlock detector aborting on
// a seeded A→B/B→A inversion.

#include "src/common/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace hcs {
namespace {

TEST(SyncTest, MutexLockProvidesMutualExclusion) {
  Mutex mu;
  int counter = 0;  // deliberately unsynchronized except through mu
  constexpr int kThreads = 8;
  constexpr int kIncrements = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, kThreads * kIncrements);
  EXPECT_GE(mu.Stats().acquisitions, static_cast<uint64_t>(kThreads * kIncrements));
}

TEST(SyncTest, TryLockFailsWhileHeldAndSucceedsAfter) {
  Mutex mu;
  mu.Lock();
  std::atomic<bool> failed_while_held{false};
  std::thread prober([&] { failed_while_held = !mu.TryLock(); });
  prober.join();
  EXPECT_TRUE(failed_while_held.load());
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(SyncTest, CondVarWakesPredicateWaiter) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::string message;
  std::thread waiter([&] {
    MutexLock lock(mu);
    cv.Wait(mu, [&] { return ready; });
    message += " world";
  });
  {
    MutexLock lock(mu);
    message = "hello";
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
  EXPECT_EQ(message, "hello world");
}

TEST(SyncTest, ContentionCounterSeesForcedContention) {
  Mutex mu("contention-probe");
  std::atomic<bool> holder_has_lock{false};
  std::thread holder([&] {
    MutexLock lock(mu);
    holder_has_lock = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  while (!holder_has_lock.load()) {
    std::this_thread::yield();
  }
  {
    MutexLock lock(mu);  // must block behind the holder
  }
  holder.join();
  MutexStats stats = mu.Stats();
  EXPECT_EQ(stats.acquisitions, 2u);
  EXPECT_GE(stats.contended, 1u);
}

TEST(SyncTest, TimingAccountsWaitAndHeldTime) {
  SetMutexTimingEnabled(true);
  Mutex mu("timing-probe");
  {
    MutexLock lock(mu);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  SetMutexTimingEnabled(false);
  MutexStats stats = mu.Stats();
  EXPECT_GE(stats.held_ns, 10u * 1000 * 1000) << "a 20 ms hold must be visible";
}

TEST(SyncTest, RegistryExposesNamedMutexes) {
  Mutex named("registry-probe");
  {
    MutexLock lock(named);
  }
  bool found = false;
  for (const MutexStats& stats : AllMutexStats()) {
    if (stats.name == "registry-probe") {
      found = true;
      EXPECT_GE(stats.acquisitions, 1u);
    }
  }
  EXPECT_TRUE(found) << "named mutexes must appear in AllMutexStats()";
}

TEST(SyncTest, ConsistentLockOrderDoesNotTrip) {
  SetDeadlockDetectorEnabled(true);
  Mutex a("order-a");
  Mutex b("order-b");
  for (int i = 0; i < 3; ++i) {
    MutexLock la(a);
    MutexLock lb(b);  // always a before b: a -> b edge only, no cycle
  }
  SetDeadlockDetectorEnabled(false);
}

// No detector state may outlive its Mutex: short-lived mutexes, made and
// destroyed in a loop, must not grow the process. Each of these
// mutexes also leaves an edge from a long-lived lock, so the graph's edge
// records are covered as well as its per-mutex entries.
TEST(SyncTest, DestroyedMutexesLeaveNoDetectorState) {
  SetDeadlockDetectorEnabled(true);
  Mutex outer("graph-probe-outer");
  const size_t graph_before = LockOrderGraphEntriesForTest();
  const size_t named_before = AllMutexStats().size();
  for (int i = 0; i < 100000; ++i) {
    Mutex inner("graph-probe-inner");
    MutexLock lo(outer);
    MutexLock li(inner);  // records outer -> inner
  }
  EXPECT_EQ(LockOrderGraphEntriesForTest(), graph_before);
  EXPECT_EQ(AllMutexStats().size(), named_before);
  SetDeadlockDetectorEnabled(false);
}

// The acceptance-criteria death test: seed the graph with A -> B, then
// acquire in the inverted order. The detector must abort before the
// processes could deadlock, naming both acquisition contexts.
TEST(SyncDeathTest, LockOrderInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetDeadlockDetectorEnabled(true);
        ResetLockOrderGraph();
        Mutex a("inversion-a");
        Mutex b("inversion-b");
        {
          MutexLock la(a);
          MutexLock lb(b);  // records a -> b
        }
        {
          MutexLock lb(b);
          MutexLock la(a);  // b -> a closes the cycle: abort
        }
      },
      "lock-order inversion");
}

// Three-lock cycle through an intermediate edge: A -> B, B -> C, then C -> A.
TEST(SyncDeathTest, TransitiveInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetDeadlockDetectorEnabled(true);
        ResetLockOrderGraph();
        Mutex a("chain-a");
        Mutex b("chain-b");
        Mutex c("chain-c");
        {
          MutexLock la(a);
          MutexLock lb(b);
        }
        {
          MutexLock lb(b);
          MutexLock lc(c);
        }
        {
          MutexLock lc(c);
          MutexLock la(a);  // c -> a, but a -> b -> c is on record
        }
      },
      "lock-order inversion");
}

}  // namespace
}  // namespace hcs
