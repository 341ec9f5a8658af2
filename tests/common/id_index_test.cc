#include "common/id_index.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace lla {
namespace {

// The position std::lower_bound finds, or -1 for a non-member.
int Search(const std::vector<std::uint32_t>& ids, std::uint32_t id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  return it != ids.end() && *it == id ? static_cast<int>(it - ids.begin())
                                      : -1;
}

// Every id in and around the span, word boundaries and the wrap below the
// first id included, finds what a binary search finds.
TEST(IdIndexTest, FindsWhatABinarySearchFinds) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::set<std::uint32_t> members;
    const auto draw = [&](std::uint32_t n) {
      return static_cast<std::uint32_t>(rng.Next() % n);
    };
    const std::uint32_t base = trial % 3 == 0 ? 0u : draw(1000);
    const std::uint32_t span = 1 + draw(400);
    const std::uint32_t count = 1 + draw(40);
    members.insert(base);
    for (std::uint32_t i = 0; i < count; ++i) members.insert(base + draw(span));
    const std::vector<std::uint32_t> ids(members.begin(), members.end());
    const IdIndex index(ids);
    std::vector<std::uint32_t> probes = {0u, 0xFFFFFFFFu, ids.back() + 1,
                                         ids.back() + 64};
    if (base > 0) probes.push_back(base - 1);
    for (std::uint32_t id = base; id <= ids.back(); ++id) probes.push_back(id);
    for (const std::uint32_t id : probes) {
      EXPECT_EQ(index.Find(id), Search(ids, id)) << "trial " << trial
                                                 << " id " << id;
    }
  }
}

TEST(IdIndexTest, EmptySetHasNoMember) {
  const IdIndex index(std::vector<std::uint32_t>{});
  EXPECT_EQ(index.Find(0), -1);
  EXPECT_EQ(index.Find(0xFFFFFFFFu), -1);
  EXPECT_EQ(IdIndex().Find(3), -1);
}

}  // namespace
}  // namespace lla
