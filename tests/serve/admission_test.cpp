#include "serve/admission.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"

namespace hpmm {
namespace {

TEST(CircuitBreaker, ClosedUntilThresholdConsecutiveFailures) {
  CircuitBreaker cb(3, 100.0);
  EXPECT_EQ(cb.state(0.0), CircuitBreaker::State::kClosed);
  cb.record_failure(1.0);
  cb.record_failure(2.0);
  EXPECT_TRUE(cb.can_admit(3.0));
  EXPECT_EQ(cb.consecutive_failures(), 2u);
  cb.record_failure(3.0);  // third consecutive: trips
  EXPECT_EQ(cb.state(3.0), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(cb.can_admit(3.0));
  EXPECT_EQ(cb.trips(), 1u);
}

TEST(CircuitBreaker, SuccessResetsTheFailureStreak) {
  CircuitBreaker cb(2, 100.0);
  cb.record_failure(1.0);
  cb.record_success();
  cb.record_failure(2.0);
  // Never two *consecutive* failures, so still closed.
  EXPECT_EQ(cb.state(2.0), CircuitBreaker::State::kClosed);
  EXPECT_EQ(cb.trips(), 0u);
}

TEST(CircuitBreaker, HalfOpenAfterCooldownAdmitsOneProbe) {
  CircuitBreaker cb(1, 100.0);
  cb.record_failure(0.0);
  EXPECT_FALSE(cb.can_admit(99.0));  // still cooling
  EXPECT_EQ(cb.state(100.0), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(cb.admit(100.0));    // the probe
  EXPECT_FALSE(cb.admit(101.0));   // probe in flight: nothing else
  cb.record_success();
  EXPECT_EQ(cb.state(101.0), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.can_admit(101.0));
}

TEST(CircuitBreaker, FailedProbeReopensAndCountsATrip) {
  CircuitBreaker cb(1, 100.0);
  cb.record_failure(0.0);
  ASSERT_TRUE(cb.admit(100.0));
  cb.record_failure(150.0);
  EXPECT_EQ(cb.state(150.0), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(cb.can_admit(200.0));  // cooldown restarts at 150
  EXPECT_EQ(cb.state(250.0), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(cb.trips(), 2u);
}

TEST(CircuitBreaker, CanAdmitAloneDoesNotConsumeTheProbe) {
  // can_admit is the read side; only note_admitted reserves the half-open
  // probe. A request the breaker passes but a later admission check rejects
  // must leave the probe available.
  CircuitBreaker cb(1, 100.0);
  cb.record_failure(0.0);
  EXPECT_TRUE(cb.can_admit(100.0));
  EXPECT_TRUE(cb.can_admit(100.0));  // still available
  cb.note_admitted(100.0);
  EXPECT_FALSE(cb.can_admit(100.0));  // now it is not
}

TEST(CircuitBreaker, InvalidLimitsAreRejected) {
  EXPECT_THROW(CircuitBreaker(0, 10.0), PreconditionError);
  EXPECT_THROW(CircuitBreaker(1, -1.0), PreconditionError);
}

AdmissionConfig small_config() {
  AdmissionConfig c;
  c.queue_capacity = 3;
  c.tenant_quota = 2;
  c.breaker_threshold = 2;
  c.breaker_cooldown = 100.0;
  return c;
}

TEST(AdmissionController, AdmitsUntilTenantQuota) {
  AdmissionController ac(small_config());
  EXPECT_EQ(ac.try_admit("a", 0.0), ServeOutcome::kOk);
  EXPECT_EQ(ac.try_admit("a", 1.0), ServeOutcome::kOk);
  EXPECT_EQ(ac.try_admit("a", 2.0), ServeOutcome::kRejectedQuota);
  EXPECT_EQ(ac.tenant_in_flight("a"), 2u);
  // Another tenant is unaffected by a's quota.
  EXPECT_EQ(ac.try_admit("b", 2.0), ServeOutcome::kOk);
  EXPECT_EQ(ac.in_flight(), 3u);
}

TEST(AdmissionController, QueueBoundIsServerWide) {
  AdmissionConfig cfg = small_config();
  cfg.tenant_quota = 3;  // quota never binds in this test
  AdmissionController ac(cfg);
  EXPECT_EQ(ac.try_admit("a", 0.0), ServeOutcome::kOk);
  EXPECT_EQ(ac.try_admit("b", 0.0), ServeOutcome::kOk);
  EXPECT_EQ(ac.try_admit("c", 0.0), ServeOutcome::kOk);
  EXPECT_EQ(ac.try_admit("d", 0.0), ServeOutcome::kRejectedQueueFull);
  // A completion frees the slot for the next arrival.
  ac.on_final("a", 1.0, true);
  EXPECT_EQ(ac.try_admit("d", 2.0), ServeOutcome::kOk);
}

TEST(AdmissionController, FinalFailuresTripTheTenantBreaker) {
  AdmissionController ac(small_config());
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(ac.try_admit("a", double(i)), ServeOutcome::kOk);
    ac.on_final("a", double(i), false);
  }
  EXPECT_EQ(ac.try_admit("a", 50.0), ServeOutcome::kRejectedBreaker);
  const CircuitBreaker* cb = ac.breaker("a");
  ASSERT_NE(cb, nullptr);
  EXPECT_EQ(cb->trips(), 1u);
  // Rejected arrivals hold no units.
  EXPECT_EQ(ac.in_flight(), 0u);
  // After the cooldown, the half-open probe gets through and its success
  // closes the breaker for good.
  EXPECT_EQ(ac.try_admit("a", 200.0), ServeOutcome::kOk);
  ac.on_final("a", 201.0, true);
  EXPECT_EQ(ac.try_admit("a", 202.0), ServeOutcome::kOk);
}

TEST(AdmissionController, BreakerCheckPrecedesQueueAndQuota) {
  // The rejection reason must be deterministic: an open breaker wins even
  // when the queue is also full.
  AdmissionConfig cfg = small_config();
  cfg.breaker_threshold = 1;
  AdmissionController ac(cfg);
  ASSERT_EQ(ac.try_admit("a", 0.0), ServeOutcome::kOk);
  ac.on_final("a", 0.0, false);  // trips a's breaker
  ASSERT_EQ(ac.try_admit("b", 1.0), ServeOutcome::kOk);
  ASSERT_EQ(ac.try_admit("b", 1.0), ServeOutcome::kOk);
  ASSERT_EQ(ac.try_admit("c", 1.0), ServeOutcome::kOk);  // queue now full
  EXPECT_EQ(ac.try_admit("a", 1.0), ServeOutcome::kRejectedBreaker);
  EXPECT_EQ(ac.try_admit("d", 1.0), ServeOutcome::kRejectedQueueFull);
}

TEST(AdmissionController, BreakerIsNullBeforeFirstArrival) {
  AdmissionController ac(small_config());
  EXPECT_EQ(ac.breaker("never-seen"), nullptr);
}

TEST(AdmissionController, FinalWithoutAnAdmittedRequestThrows) {
  AdmissionController ac(small_config());
  ASSERT_EQ(ac.try_admit("a", 0.0), ServeOutcome::kOk);
  // "a" holds a unit, "b" none: the failed check leaves both untouched.
  try {
    ac.on_final("b", 1.0, true);
    ADD_FAILURE() << "on_final for an idle tenant did not throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "on_final: tenant 'b' has no admitted request in flight"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ac.in_flight(), 1u);
  EXPECT_EQ(ac.tenant_in_flight("a"), 1u);
  EXPECT_EQ(ac.tenant_in_flight("b"), 0u);
  EXPECT_EQ(ac.breaker("b"), nullptr);
  ac.on_final("a", 2.0, true);
  EXPECT_THROW(ac.on_final("a", 3.0, true), PreconditionError);
}

TEST(ServeOutcomeNames, RejectionsAndStrings) {
  EXPECT_STREQ(to_string(ServeOutcome::kOk), "ok");
  EXPECT_STREQ(to_string(ServeOutcome::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(to_string(ServeOutcome::kRejectedQueueFull),
               "rejected_queue_full");
  EXPECT_FALSE(is_rejection(ServeOutcome::kOk));
  EXPECT_FALSE(is_rejection(ServeOutcome::kFailed));
  EXPECT_TRUE(is_rejection(ServeOutcome::kRejectedBreaker));
  EXPECT_TRUE(is_rejection(ServeOutcome::kRejectedQuota));
}

}  // namespace
}  // namespace hpmm
