#include "pfs/file.hpp"

#include <gtest/gtest.h>

namespace das::pfs {
namespace {

FileMeta meta_of(std::uint64_t size, std::uint64_t strip,
                 std::uint32_t element = 4) {
  FileMeta m;
  m.name = "f";
  m.size_bytes = size;
  m.strip_size = strip;
  m.element_size = element;
  return m;
}

TEST(FileMetaTest, NumStripsRoundsUp) {
  EXPECT_EQ(meta_of(100, 100).num_strips(), 1U);
  EXPECT_EQ(meta_of(101, 100).num_strips(), 2U);
  EXPECT_EQ(meta_of(1000, 100).num_strips(), 10U);
}

TEST(FileMetaTest, StripRefsTileTheFile) {
  const FileMeta m = meta_of(250, 100);
  EXPECT_EQ(m.strip(0), (StripRef{0, 0, 100}));
  EXPECT_EQ(m.strip(1), (StripRef{1, 100, 100}));
  EXPECT_EQ(m.strip(2), (StripRef{2, 200, 50}));  // partial tail
}

TEST(FileMetaTest, StripOfByte) {
  const FileMeta m = meta_of(250, 100);
  EXPECT_EQ(m.strip_of_byte(0), 0U);
  EXPECT_EQ(m.strip_of_byte(99), 0U);
  EXPECT_EQ(m.strip_of_byte(100), 1U);
  EXPECT_EQ(m.strip_of_byte(249), 2U);
}

TEST(FileMetaTest, StripOfElementMatchesPaperEq1) {
  // strip(i) = i * E / strip_size.
  const FileMeta m = meta_of(4096, 256, 4);
  EXPECT_EQ(m.strip_of_element(0), 0U);
  EXPECT_EQ(m.strip_of_element(63), 0U);   // 63*4 = 252 < 256
  EXPECT_EQ(m.strip_of_element(64), 1U);   // 256
  EXPECT_EQ(m.strip_of_element(1000), 1000U * 4 / 256);
}

TEST(FileMetaTest, StripOfElementSurvivesThe4GiBByteBoundary) {
  // The element whose byte offset is exactly 4 GiB: i * element_size
  // overflows 32-bit arithmetic, so the mapping must run in 64-bit.
  const FileMeta m = meta_of(8ULL << 30, 64 * 1024, 4);
  const std::uint64_t boundary = (4ULL << 30) / 4;
  EXPECT_EQ(m.strip_of_element(boundary), (4ULL << 30) / (64 * 1024));
  EXPECT_EQ(m.strip_of_element(boundary - 1),
            (4ULL << 30) / (64 * 1024) - 1);
  EXPECT_EQ(m.strip_of_element(m.num_elements() - 1), m.num_strips() - 1);
}

TEST(FileMetaDeathTest, StripOfElementRejectsOutOfRangeIndexes) {
  const FileMeta m = meta_of(4096, 256, 4);
  EXPECT_DEATH((void)m.strip_of_element(m.num_elements()), "DAS_REQUIRE");
  const FileMeta big = meta_of(8ULL << 30, 64 * 1024, 4);
  EXPECT_DEATH((void)big.strip_of_element((8ULL << 30) / 4), "DAS_REQUIRE");
}

TEST(FileMetaTest, ElementCounts) {
  const FileMeta m = meta_of(1000, 256, 4);
  EXPECT_EQ(m.num_elements(), 250U);
  EXPECT_EQ(m.elements_in_strip(0), 64U);
  EXPECT_EQ(m.elements_in_strip(3), (1000U - 3 * 256) / 4);
}

TEST(FileMetaDeathTest, OutOfRangeAccessAborts) {
  const FileMeta m = meta_of(250, 100);
  EXPECT_DEATH((void)m.strip(3), "DAS_REQUIRE");
  EXPECT_DEATH((void)m.strip_of_byte(250), "DAS_REQUIRE");
}

}  // namespace
}  // namespace das::pfs
