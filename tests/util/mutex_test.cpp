// The lock-order checker: ABBA cycles become deterministic diagnostics
// naming both locks, ordered acquisition stays silent, and the wrappers
// keep their RAII contracts (including CondVar relock bookkeeping).
#include "util/mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace jps::util {
namespace {

// Every test runs with a capturing hook installed: diagnostics land in
// `reports_` instead of stderr, and kAbort mode asserts instead of dying.
class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lockorder::reset();
    lockorder::set_report_hook(
        [this](const std::string& message) { reports_.push_back(message); });
    lockorder::set_mode(lockorder::Mode::kAbort);
  }
  void TearDown() override {
    lockorder::set_mode(lockorder::Mode::kOff);
    lockorder::set_report_hook(nullptr);
    lockorder::reset();
  }

  std::vector<std::string> reports_;
};

TEST_F(LockOrderTest, AbbaCycleDiagnosticNamesBothLocks) {
  Mutex a("test.lock_a");
  Mutex b("test.lock_b");

  {
    MutexLock lock_a(a);
    MutexLock lock_b(b);  // establishes a -> b
  }
  EXPECT_TRUE(reports_.empty());

  {
    MutexLock lock_b(b);
    MutexLock lock_a(a);  // b -> a closes the cycle
  }
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_NE(reports_[0].find("test.lock_a"), std::string::npos);
  EXPECT_NE(reports_[0].find("test.lock_b"), std::string::npos);
  EXPECT_NE(reports_[0].find("cycle"), std::string::npos);
}

TEST_F(LockOrderTest, CycleDiagnosticIsDeterministicOnEveryRecurrence) {
  Mutex a("test.det_a");
  Mutex b("test.det_b");
  {
    MutexLock lock_a(a);
    MutexLock lock_b(b);
  }
  // The contradictory edge is never admitted to the graph, so each
  // offending acquisition re-fires the same diagnostic.
  for (int i = 1; i <= 3; ++i) {
    MutexLock lock_b(b);
    MutexLock lock_a(a);
    ASSERT_EQ(reports_.size(), static_cast<std::size_t>(i));
    EXPECT_NE(reports_.back().find("test.det_a"), std::string::npos);
    EXPECT_NE(reports_.back().find("test.det_b"), std::string::npos);
  }
}

TEST_F(LockOrderTest, TransitiveCycleIsDetected) {
  Mutex a("test.tri_a");
  Mutex b("test.tri_b");
  Mutex c("test.tri_c");
  {
    MutexLock lock_a(a);
    MutexLock lock_b(b);  // a -> b
  }
  {
    MutexLock lock_b(b);
    MutexLock lock_c(c);  // b -> c
  }
  {
    MutexLock lock_c(c);
    MutexLock lock_a(a);  // c -> a closes a three-lock cycle
  }
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_NE(reports_[0].find("test.tri_a"), std::string::npos);
  EXPECT_NE(reports_[0].find("test.tri_c"), std::string::npos);
}

TEST_F(LockOrderTest, ConsistentOrderNeverReports) {
  Mutex outer("test.ordered_outer");
  Mutex inner("test.ordered_inner");
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        MutexLock lock_outer(outer);
        MutexLock lock_inner(inner);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(reports_.empty());
}

TEST_F(LockOrderTest, RecursiveAcquisitionOfSameInstanceIsReported) {
  // Raw lock() calls (no RAII) so the double-acquire does not deadlock:
  // report fires on the second lock() *bookkeeping*, tested via try_lock
  // which never blocks.
  Mutex m("test.recursive");
  m.lock();
  ASSERT_FALSE(m.try_lock());  // std::mutex: second acquire would deadlock
  m.unlock();
  EXPECT_TRUE(reports_.empty());

  SharedMutex s("test.recursive_shared");
  s.lock_shared();
  s.lock_shared();  // UB on std::shared_mutex in general: must be flagged
  ASSERT_GE(reports_.size(), 1u);
  EXPECT_NE(reports_[0].find("recursive"), std::string::npos);
  EXPECT_NE(reports_[0].find("test.recursive_shared"), std::string::npos);
  s.unlock_shared();
  s.unlock_shared();
}

TEST_F(LockOrderTest, UnnamedMutexesStayOutOfTheGraph) {
  Mutex a;  // unnamed: excluded so default names cannot alias
  Mutex b;
  {
    MutexLock lock_a(a);
    MutexLock lock_b(b);
  }
  {
    MutexLock lock_b(b);
    MutexLock lock_a(a);
  }
  EXPECT_TRUE(reports_.empty());
}

TEST_F(LockOrderTest, OffModeIsSilent) {
  lockorder::set_mode(lockorder::Mode::kOff);
  Mutex a("test.off_a");
  Mutex b("test.off_b");
  {
    MutexLock lock_a(a);
    MutexLock lock_b(b);
  }
  {
    MutexLock lock_b(b);
    MutexLock lock_a(a);
  }
  EXPECT_TRUE(reports_.empty());
}

TEST_F(LockOrderTest, CondVarWaitReleasesTheHold) {
  // While a thread waits, it must not be considered a holder: the waiter
  // takes `waited` first, the poker takes `poke` then `waited` — an ABBA
  // shape that is NOT a deadlock because wait() releases `waited`.  The
  // checker must agree (the relock feeds on_release/on_acquire).
  Mutex waited("test.cv_waited");
  Mutex poke("test.cv_poke");
  CondVar cv;
  std::atomic<bool> ready{false};

  std::thread waiter([&] {
    MutexLock lock(waited);
    while (!ready.load()) cv.wait(lock);
  });
  {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    MutexLock lock_poke(poke);
    MutexLock lock_waited(waited);  // poke -> waited
    ready.store(true);
  }
  cv.notify_all();
  waiter.join();

  // Now waited -> poke on one thread: only a cycle if the waiter's released
  // hold had leaked into the graph as waited -> poke ordering conflicts.
  {
    MutexLock lock_waited(waited);
    MutexLock lock_poke(poke);
  }
  // waited->poke vs poke->waited IS a real inversion; assert it is caught —
  // proving the waiter's frames were tracked through the wait correctly.
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_NE(reports_[0].find("test.cv_poke"), std::string::npos);
  EXPECT_NE(reports_[0].find("test.cv_waited"), std::string::npos);
}

TEST_F(LockOrderTest, ViolationsCounterIsMonotone) {
  const std::uint64_t before = lockorder::violations();
  Mutex a("test.count_a");
  Mutex b("test.count_b");
  {
    MutexLock lock_a(a);
    MutexLock lock_b(b);
  }
  {
    MutexLock lock_b(b);
    MutexLock lock_a(a);
  }
  EXPECT_EQ(lockorder::violations(), before + 1);
}

TEST_F(LockOrderTest, LocksInThreadExitDestructorsAreSkipped) {
  // A thread_local constructed before the checker's held-lock stack is
  // destroyed after it, and its destructor still locks a Mutex, as the
  // shared ThreadPool's static destructor does on the main thread at exit.
  // The hooks must leave the destroyed stack alone.
  Mutex late("test.thread_exit");
  std::thread([&late] {
    struct LocksOnExit {
      Mutex* m;
      ~LocksOnExit() { MutexLock lock(*m); }
    };
    thread_local LocksOnExit on_exit{&late};
    MutexLock lock(late);  // builds this thread's held-lock stack
  }).join();
  EXPECT_TRUE(reports_.empty());
}

TEST(MutexWrappers, MidScopeUnlockAndSharedReaders) {
  SharedMutex m("test.wrappers_shared");
  {
    SharedLock r1(m);
    SharedLock r2(m);  // two concurrent readers are legal
    EXPECT_TRUE(r1.owns_lock());
  }
  {
    MutexLock w(m);
    EXPECT_TRUE(w.owns_lock());
    w.unlock();  // mid-scope release; destructor must not double-release
    EXPECT_FALSE(w.owns_lock());
    SharedLock r(m);  // lock is free again
  }
  Mutex plain("test.wrappers_plain");
  EXPECT_TRUE(plain.try_lock());
  plain.unlock();
}

TEST(MutexWrappers, CondVarTimedWaitTimesOut) {
  Mutex m;
  CondVar cv;
  MutexLock lock(m);
  const auto t0 = std::chrono::steady_clock::now();
  const std::cv_status status =
      cv.wait_for(lock, std::chrono::milliseconds(5));
  EXPECT_EQ(status, std::cv_status::timeout);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(4));
}

}  // namespace
}  // namespace jps::util
