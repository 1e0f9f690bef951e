#include "dvfs/core/task.h"

#include <gtest/gtest.h>

#include <limits>

namespace dvfs::core {
namespace {

TEST(Task, DefaultsAreBatchWithoutDeadline) {
  Task t;
  t.cycles = 100;
  EXPECT_EQ(t.klass, TaskClass::kBatch);
  EXPECT_FALSE(t.has_deadline());
  EXPECT_TRUE(is_valid(t));
}

TEST(Task, ZeroCyclesIsInvalid) {
  Task t;
  EXPECT_FALSE(is_valid(t));
}

TEST(Task, NegativeArrivalIsInvalid) {
  Task t{.id = 1, .cycles = 10, .arrival = -1.0};
  EXPECT_FALSE(is_valid(t));
}

TEST(Task, DeadlineMustExceedArrival) {
  Task t{.id = 1, .cycles = 10, .arrival = 5.0, .deadline = 5.0};
  EXPECT_FALSE(is_valid(t));
  t.deadline = 5.1;
  EXPECT_TRUE(is_valid(t));
  EXPECT_TRUE(t.has_deadline());
}

TEST(Task, NonFiniteTimesAreInvalid) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double arrival : {nan, kNoDeadline, -kNoDeadline}) {
    Task t{.id = 1, .cycles = 10, .arrival = arrival};
    EXPECT_FALSE(is_valid(t));
  }
  Task t{.id = 1, .cycles = 10, .arrival = 1.0, .deadline = nan};
  EXPECT_FALSE(is_valid(t));
}

TEST(Task, InfiniteDeadlineMeansUnconstrained) {
  Task t{.id = 1, .cycles = 10, .arrival = 100.0, .deadline = kNoDeadline};
  EXPECT_FALSE(t.has_deadline());
  EXPECT_TRUE(is_valid(t));
}

TEST(Task, InteractiveOutranksNonInteractive) {
  EXPECT_GT(priority_of(TaskClass::kInteractive),
            priority_of(TaskClass::kNonInteractive));
  Task i{.id = 1, .cycles = 1, .klass = TaskClass::kInteractive};
  Task n{.id = 2, .cycles = 1, .klass = TaskClass::kNonInteractive};
  EXPECT_GT(i.priority(), n.priority());
}

TEST(Task, ToStringNamesEveryClass) {
  EXPECT_STREQ(to_string(TaskClass::kBatch), "batch");
  EXPECT_STREQ(to_string(TaskClass::kInteractive), "interactive");
  EXPECT_STREQ(to_string(TaskClass::kNonInteractive), "non-interactive");
}

TEST(Task, DescribeMentionsIdAndClass) {
  Task t{.id = 42, .cycles = 7, .klass = TaskClass::kInteractive};
  const std::string s = describe(t);
  EXPECT_NE(s.find("task#42"), std::string::npos);
  EXPECT_NE(s.find("interactive"), std::string::npos);
  EXPECT_EQ(s.find(" D="), std::string::npos) << "no deadline => no D field";
}

TEST(Task, DescribeIncludesFiniteDeadline) {
  Task t{.id = 1, .cycles = 7, .arrival = 0.0, .deadline = 3.5};
  EXPECT_NE(describe(t).find(" D="), std::string::npos);
}

}  // namespace
}  // namespace dvfs::core
