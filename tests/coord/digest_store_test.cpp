// DigestStore + diff_rows: the delta algebra every tier of the fabric
// applies must round-trip — diff(baseline, now) applied to baseline yields
// now, with multiset (not set) semantics throughout.
#include <gtest/gtest.h>

#include "coord/digest_store.hpp"

namespace tulkun::coord {
namespace {

using Rows = std::vector<std::string>;

TEST(DigestStoreTest, DiffThenApplyRoundTrips) {
  const Rows baseline = {"a", "b", "b", "d"};
  const Rows now = {"a", "b", "c", "c", "e"};
  const auto d = diff_rows(7, baseline, now);
  EXPECT_FALSE(d.full);
  EXPECT_EQ(d.removed, (Rows{"b", "d"}));
  EXPECT_EQ(d.added, (Rows{"c", "c", "e"}));

  DigestStore store;
  store.replace(7, baseline);
  store.apply({d});
  ASSERT_NE(store.rows_for(7), nullptr);
  EXPECT_EQ(*store.rows_for(7), now);
}

TEST(DigestStoreTest, EmptyBaselineForcesFullAnchor) {
  const auto d = diff_rows(3, {}, {"x", "y"});
  EXPECT_TRUE(d.full);
  EXPECT_EQ(d.added, (Rows{"x", "y"}));
  EXPECT_TRUE(d.removed.empty());
}

TEST(DigestStoreTest, ForcedAnchorReplacesWholeDevice) {
  // A reborn rank without a snapshot anchors over whatever stale rows the
  // receiver still holds for the device: the anchor must replace them.
  DigestStore store;
  store.replace(1, {"old1", "old2"});
  dvm::DigestDelta d;
  d.device = 1;
  d.full = true;
  d.added = {"new"};
  store.apply({d});
  EXPECT_EQ(*store.rows_for(1), (Rows{"new"}));
}

TEST(DigestStoreTest, MultisetSubtractConsumesOnePerRemoval) {
  DigestStore store;
  store.replace(2, {"r", "r", "r"});
  dvm::DigestDelta d;
  d.device = 2;
  d.removed = {"r"};
  store.apply({d});
  EXPECT_EQ(*store.rows_for(2), (Rows{"r", "r"}));
}

TEST(DigestStoreTest, UnknownRemovalsAreIgnored) {
  DigestStore store;
  store.replace(4, {"keep"});
  dvm::DigestDelta d;
  d.device = 4;
  d.removed = {"never-there"};
  d.added = {"new"};
  store.apply({d});
  EXPECT_EQ(*store.rows_for(4), (Rows{"keep", "new"}));
}

TEST(DigestStoreTest, EmptiedDevicesDisappear) {
  DigestStore store;
  store.replace(5, {"only"});
  dvm::DigestDelta d;
  d.device = 5;
  d.removed = {"only"};
  store.apply({d});
  EXPECT_EQ(store.rows_for(5), nullptr);
  EXPECT_EQ(store.device_count(), 0u);
  EXPECT_TRUE(store.devices().empty());
}

TEST(DigestStoreTest, RowsSortedIsTheUnionAcrossDevices) {
  DigestStore store;
  store.replace(9, {"z", "m"});
  store.replace(1, {"a", "m"});
  EXPECT_EQ(store.rows_sorted(), (Rows{"a", "m", "m", "z"}));
  EXPECT_EQ(store.row_count(), 4u);
  EXPECT_EQ(store.devices(), (std::vector<std::uint32_t>{1, 9}));
}

TEST(DigestStoreTest, FullForServesOnlyHeldDevices) {
  DigestStore store;
  store.replace(2, {"b"});
  store.replace(6, {"f"});
  const auto snap = store.full_for({1, 2, 3, 6});
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].device, 2u);
  EXPECT_TRUE(snap[0].full);
  EXPECT_EQ(snap[0].added, (Rows{"b"}));
  EXPECT_EQ(snap[1].device, 6u);
}

}  // namespace
}  // namespace tulkun::coord
