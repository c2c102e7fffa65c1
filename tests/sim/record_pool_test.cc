#include "src/sim/record_pool.h"

#include <gtest/gtest.h>

#include <string>

namespace mfc {
namespace {

TEST(RecordPoolTest, RenewKeepsTheRecordAndStalesEveryEarlierHandle) {
  RecordPool<std::string> pool;
  auto first = pool.Acquire();
  *pool.Find(first) = "kept";
  auto second = pool.Renew(first);
  auto third = pool.Renew(second);
  EXPECT_EQ(pool.Find(first), nullptr);
  EXPECT_EQ(pool.Find(second), nullptr);
  ASSERT_NE(pool.Find(third), nullptr);
  EXPECT_EQ(*pool.Find(third), "kept");
  EXPECT_EQ(RecordPool<std::string>::IndexOf(third), RecordPool<std::string>::IndexOf(first));
  EXPECT_EQ(pool.HandleOf(RecordPool<std::string>::IndexOf(first)), third);
}

TEST(RecordPoolTest, ForgedHandleNamingAFreeRecordIsRejected) {
  RecordPool<int> pool;
  auto a = pool.Acquire();
  auto b = pool.Acquire();
  pool.Release(a);
  // A handle carrying the free record's current generation, as a caller
  // could forge it: it names no live record.
  auto forged = pool.HandleOf(RecordPool<int>::IndexOf(a));
  EXPECT_NE(forged, a);
  EXPECT_EQ(pool.Find(forged), nullptr);
  // Zero and out-of-range handles name nothing either.
  EXPECT_EQ(pool.Find(0), nullptr);
  EXPECT_EQ(pool.Find(pool.HandleOf(RecordPool<int>::IndexOf(b)) + 5), nullptr);
  // The free list is intact: the next two acquisitions get distinct records.
  auto c = pool.Acquire();
  auto d = pool.Acquire();
  EXPECT_NE(RecordPool<int>::IndexOf(c), RecordPool<int>::IndexOf(d));
  EXPECT_NE(pool.Find(c), pool.Find(d));
  EXPECT_NE(pool.Find(b), nullptr);
}

}  // namespace
}  // namespace mfc
