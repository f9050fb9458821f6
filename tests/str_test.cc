// String, statistics and rendering helpers (src/support/str.h).
#include "src/support/str.h"

#include <gtest/gtest.h>

namespace nsf {
namespace {

TEST(Stats, GeoMeanAndMedian) {
  EXPECT_DOUBLE_EQ(GeoMean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(GeoMean({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(GeoMean({}), 0.0);
}

TEST(Render, TableAlignsColumns) {
  std::string t = RenderTable({{"name", "value"}, {"x", "12345"}});
  EXPECT_NE(t.find("name"), std::string::npos);
  EXPECT_NE(t.find("-----"), std::string::npos);
  EXPECT_NE(t.find("12345"), std::string::npos);
}

TEST(Render, BarsScaleToWidth) {
  std::string b = RenderBars({{"one", 1.0}, {"two", 2.0}}, 1.0, "x", 10);
  EXPECT_NE(b.find("##########"), std::string::npos);  // max bar is full width
}

}  // namespace
}  // namespace nsf
