/**
 * @file
 * MoS tag-array tests: indexing, persistence-relevant state and the
 * direct-mapped geometry of the NVDIMM cache.
 */

#include <gtest/gtest.h>

#include <random>

#include "core/mos_tag_array.hh"
#include "sim/logging.hh"

namespace hams {
namespace {

TEST(MosTagArray, GeometryDerivesSets)
{
    MosTagArray t(1ull << 30, 128 * 1024);
    EXPECT_EQ(t.sets(), (1ull << 30) / (128 * 1024));
    EXPECT_EQ(t.pageBytes(), 128u * 1024);
}

TEST(MosTagArray, IndexAndTagPartitionAddress)
{
    MosTagArray t(64ull << 20, 128 * 1024);
    Addr a = Addr(3) * (64ull << 20) + 5 * 128 * 1024 + 77;
    EXPECT_EQ(t.indexOf(a), 5u);
    EXPECT_EQ(t.tagOf(a), 3u);
    // Reconstruction inverts (tag, index) -> page address.
    EXPECT_EQ(t.mosPageAddr(3, 5), Addr(3) * (64ull << 20) + 5 * 128 * 1024);
}

TEST(MosTagArray, AliasingAddressesShareASet)
{
    MosTagArray t(64ull << 20, 128 * 1024);
    Addr a = 128 * 1024 * 7;
    Addr b = a + (64ull << 20); // same index, different tag
    EXPECT_EQ(t.indexOf(a), t.indexOf(b));
    EXPECT_NE(t.tagOf(a), t.tagOf(b));
}

TEST(MosTagArray, HitRequiresValidAndMatchingTag)
{
    MosTagArray t(64ull << 20, 128 * 1024);
    Addr a = 128 * 1024 * 9 + 64;
    EXPECT_FALSE(t.hit(a));
    MosTagEntry& e = t.entry(t.indexOf(a));
    e.tag = t.tagOf(a);
    e.valid = true;
    EXPECT_TRUE(t.hit(a));
    e.tag += 1;
    EXPECT_FALSE(t.hit(a));
}

TEST(MosTagArray, CountsResidentAndDirty)
{
    MosTagArray t(1ull << 20, 128 * 1024);
    EXPECT_EQ(t.residentCount(), 0u);
    t.entry(0).valid = true;
    t.entry(1).valid = true;
    t.entry(1).dirty = true;
    EXPECT_EQ(t.residentCount(), 2u);
    EXPECT_EQ(t.dirtyCount(), 1u);
}

TEST(MosTagArray, ClearBusyPreservesTags)
{
    MosTagArray t(1ull << 20, 128 * 1024);
    t.entry(2).valid = true;
    t.entry(2).dirty = true;
    t.entry(2).busy = true;
    t.clearBusyBits();
    EXPECT_TRUE(t.entry(2).valid);
    EXPECT_TRUE(t.entry(2).dirty);
    EXPECT_FALSE(t.entry(2).busy);
}

TEST(MosTagArray, InvalidateAllResetsEverything)
{
    MosTagArray t(1ull << 20, 128 * 1024);
    t.entry(0).valid = true;
    t.invalidateAll();
    EXPECT_EQ(t.residentCount(), 0u);
}

TEST(MosTagArray, RejectsBadPageSize)
{
    EXPECT_THROW(MosTagArray(1 << 20, 100000), FatalError);
    EXPECT_THROW(MosTagArray(1024, 128 * 1024), FatalError);
}

TEST(MosTagArray, SweepPageSizesRoundTrip)
{
    // Property: for every supported page size, (tag,index) decomposition
    // must invert across the whole cache.
    for (std::uint32_t page = 4096; page <= 1024 * 1024; page *= 2) {
        MosTagArray t(64ull << 20, page);
        for (Addr a = 0; a < (256ull << 20); a += (17ull << 20) + page) {
            Addr page_addr = a - a % page;
            EXPECT_EQ(t.mosPageAddr(t.tagOf(a), t.indexOf(a)), page_addr);
        }
    }
}

TEST(MosTagArray, ShiftDecodeMatchesDivision)
{
    // 512 sets take the shift/mask decode, 768 sets keep div/mod; both
    // must agree with the division formula on every sampled address.
    constexpr std::uint32_t page = 128 * 1024;
    for (std::uint64_t sets : {512ull, 768ull}) {
        MosTagArray t(sets * page, page);
        ASSERT_EQ(t.sets(), sets);
        std::mt19937_64 rng(sets);
        for (int i = 0; i < 4096; ++i) {
            // Tag boundaries first (the first byte of a tag's span, or
            // the last byte of the previous one), then random addresses
            // up to 64 GiB.
            Addr a = i < 8 ? Addr(i) * sets * page - (i & 1)
                           : rng() % (64ull << 30);
            std::uint64_t p = a / page;
            EXPECT_EQ(t.indexOf(a), p % sets) << sets << " sets, " << a;
            EXPECT_EQ(t.tagOf(a), p / sets) << sets << " sets, " << a;
            EXPECT_EQ(t.mosPageAddr(t.tagOf(a), t.indexOf(a)), a - a % page)
                << sets << " sets, " << a;
        }
    }
}

} // namespace
} // namespace hams
