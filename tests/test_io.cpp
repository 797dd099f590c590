/// \file test_io.cpp
/// \brief Unit tests for the h5lite hierarchical container.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "io/h5lite.hpp"
#include "support/error.hpp"

namespace v2d::io {
namespace {

TEST(H5Lite, AttrsOfAllKinds) {
  H5File f;
  f.root().set_attr("i", std::int64_t{-42});
  f.root().set_attr("d", 3.25);
  f.root().set_attr("s", std::string("hello"));
  EXPECT_EQ(f.root().attr_i64("i"), -42);
  EXPECT_DOUBLE_EQ(f.root().attr_f64("d"), 3.25);
  EXPECT_EQ(f.root().attr_str("s"), "hello");
  EXPECT_TRUE(f.root().has_attr("i"));
  EXPECT_FALSE(f.root().has_attr("missing"));
  EXPECT_THROW(f.root().attr("missing"), Error);
}

TEST(H5Lite, DatasetDimsMustMatch) {
  H5File f;
  const std::vector<double> d = {1, 2, 3, 4, 5, 6};
  EXPECT_NO_THROW(f.root().write("ok", std::span<const double>(d), {2, 3}));
  EXPECT_THROW(f.root().write("bad", std::span<const double>(d), {2, 2}),
               Error);
}

TEST(H5Lite, NestedGroups) {
  H5File f;
  Group& mesh = f.root().create_group("mesh");
  Group& fields = mesh.create_group("fields");
  fields.set_attr("n", std::int64_t{1});
  EXPECT_TRUE(f.root().has_group("mesh"));
  EXPECT_EQ(f.root().group("mesh").group("fields").attr_i64("n"), 1);
  EXPECT_THROW(f.root().group("nope"), Error);
  // create_group is idempotent.
  EXPECT_EQ(&f.root().create_group("mesh"), &mesh);
}

TEST(H5Lite, SerializeRoundTrip) {
  H5File f;
  f.root().set_attr("time", 1.25);
  Group& g = f.root().create_group("fields");
  const std::vector<double> e = {0.5, 1.5, 2.5, 3.5};
  g.write("energy", std::span<const double>(e), {2, 2});
  const std::vector<std::int64_t> ids = {7, 8, 9};
  g.write("ids", std::span<const std::int64_t>(ids), {3});

  const H5File back = H5File::deserialize(f.serialize());
  EXPECT_DOUBLE_EQ(back.root().attr_f64("time"), 1.25);
  const Dataset& d = back.root().group("fields").dataset("energy");
  EXPECT_EQ(d.type, Dataset::Type::F64);
  ASSERT_EQ(d.dims, (std::vector<std::uint64_t>{2, 2}));
  EXPECT_DOUBLE_EQ(d.f64[3], 3.5);
  const Dataset& di = back.root().group("fields").dataset("ids");
  EXPECT_EQ(di.type, Dataset::Type::I64);
  EXPECT_EQ(di.i64[2], 9);
}

TEST(H5Lite, TruncatedStreamRejected) {
  H5File f;
  f.root().set_attr("x", 1.0);
  auto bytes = f.serialize();
  bytes.resize(bytes.size() - 4);
  EXPECT_THROW(H5File::deserialize(bytes), Error);
}

/// Inflated length fields must fail as structured errors before they size
/// an allocation: a 2^32-ish rank, a dim of 2^40 elements, and dims whose
/// product overflows 64 bits.
TEST(H5Lite, InflatedDatasetLengthsRejected) {
  H5File f;
  const std::vector<double> clock = {1.0, 2.0, 3.0};
  f.root().write("clock", std::span<const double>(clock), {3});
  const auto bytes = f.serialize();
  // Layout after the 8-byte header and the root's empty attr table:
  // u32 dataset count, u32 name length, name, u8 type, u32 ndims, u64 dims.
  const std::size_t ndims_at = 8 + 4 + 4 + 4 + 5 + 1;
  const std::size_t dim0_at = ndims_at + 4;
  ASSERT_EQ(bytes[ndims_at], 1u);
  ASSERT_EQ(bytes[dim0_at], 3u);

  auto rank = bytes;
  for (int i = 0; i < 4; ++i) rank[ndims_at + i] = i == 0 ? 0xF0 : 0xFF;
  EXPECT_THROW(H5File::deserialize(rank), Error);

  auto dim = bytes;
  dim[dim0_at] = 0;
  dim[dim0_at + 5] = 0x01;  // 2^40 elements
  EXPECT_THROW(H5File::deserialize(dim), Error);

  Dataset wide;
  wide.dims = {std::uint64_t{1} << 40, std::uint64_t{1} << 40};
  EXPECT_THROW((void)wide.element_count(), Error);
}

TEST(H5Lite, BadMagicRejected) {
  std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_THROW(H5File::deserialize(junk), Error);
}

TEST(H5Lite, TrailingBytesRejected) {
  H5File f;
  auto bytes = f.serialize();
  bytes.push_back(0);
  EXPECT_THROW(H5File::deserialize(bytes), Error);
}

TEST(H5Lite, SaveAndLoadFile) {
  const std::string path = ::testing::TempDir() + "/h5lite_test.h5l";
  {
    H5File f;
    f.root().set_attr("step", std::int64_t{12});
    const std::vector<double> d = {1.0, 2.0};
    f.root().write("v", std::span<const double>(d), {2});
    f.save(path);
  }
  const H5File back = H5File::load(path);
  EXPECT_EQ(back.root().attr_i64("step"), 12);
  EXPECT_DOUBLE_EQ(back.root().dataset("v").f64[1], 2.0);
  std::remove(path.c_str());
}

TEST(H5Lite, LoadMissingFileThrows) {
  EXPECT_THROW(H5File::load("/nonexistent/path/file.h5l"), Error);
}

TEST(H5Lite, EmptyFileRoundTrips) {
  const H5File back = H5File::deserialize(H5File{}.serialize());
  EXPECT_TRUE(back.root().groups().empty());
  EXPECT_TRUE(back.root().datasets().empty());
}

/// save() is atomic: bytes land on a side file first, then rename onto
/// the real path.  A stale torn side file (a crashed earlier writer) is
/// simply overwritten, and the real path never holds a half-written
/// checkpoint.
TEST(H5Lite, SaveIsAtomicAndSurvivesAStaleTornSideFile) {
  const std::string path = ::testing::TempDir() + "/h5_atomic.h5l";
  {
    // A previous writer died mid-save, leaving garbage on the side file.
    std::ofstream torn(path + ".tmp", std::ios::binary);
    torn << "H5L!garbage";
  }
  H5File f;
  f.root().set_attr("step", std::int64_t{4});
  f.save(path);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());  // renamed away
  EXPECT_EQ(H5File::load(path).root().attr_i64("step"), 4);

  // Overwrite through the same path is also atomic.
  f.root().set_attr("step", std::int64_t{8});
  f.save(path);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  EXPECT_EQ(H5File::load(path).root().attr_i64("step"), 8);
  std::remove(path.c_str());
}

TEST(H5Lite, DatasetOverwriteReplaces) {
  H5File f;
  const std::vector<double> a = {1.0}, b = {2.0, 3.0};
  f.root().write("x", std::span<const double>(a), {1});
  f.root().write("x", std::span<const double>(b), {2});
  EXPECT_EQ(f.root().dataset("x").element_count(), 2u);
}

}  // namespace
}  // namespace v2d::io
