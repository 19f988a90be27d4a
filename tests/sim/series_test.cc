#include "sim/series.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace cdt {
namespace sim {
namespace {

TEST(SeriesTest, CollectsPoints) {
  Series s("cmab-hs");
  s.Add(1.0, 2.0);
  s.Add(3.0, 4.0);
  ASSERT_EQ(s.points().size(), 2u);
  EXPECT_DOUBLE_EQ(s.points()[1].x, 3.0);
  EXPECT_DOUBLE_EQ(s.points()[1].y, 4.0);
}

TEST(FigureDataTest, AddSeriesReturnsStablePointers) {
  FigureData fig("fig07", "revenue vs N", "N", "revenue");
  Series* a = fig.AddSeries("a");
  for (int i = 0; i < 50; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    fig.AddSeries(name);
  }
  a->Add(1.0, 1.0);  // must not be dangling
  EXPECT_EQ(fig.series()[0]->points().size(), 1u);
}

TEST(FigureDataTest, LongCsvHasOneRowPerPoint) {
  FigureData fig("figX", "t", "x", "y");
  Series* a = fig.AddSeries("a");
  a->Add(1, 10);
  a->Add(2, 20);
  Series* b = fig.AddSeries("b");
  b->Add(1, 30);
  auto csv = fig.ToCsvLong();
  EXPECT_EQ(csv.header,
            (util::CsvRow{"figure", "series", "x", "y"}));
  ASSERT_EQ(csv.rows.size(), 3u);
  EXPECT_EQ(csv.rows[2][1], "b");
}

TEST(FigureDataTest, PrintTableAlignsSharedXGrid) {
  FigureData fig("figY", "title", "N", "val");
  Series* a = fig.AddSeries("alpha");
  Series* b = fig.AddSeries("beta");
  a->Add(5, 1.5);
  a->Add(10, 2.5);
  b->Add(5, 3.5);  // ragged: beta missing second row
  std::ostringstream os;
  fig.PrintTable(os);
  std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  EXPECT_NE(out.find("figY"), std::string::npos);
  EXPECT_NE(out.find("2.500"), std::string::npos);
}

TEST(FigureDataTest, EmptyFigurePrintsPlaceholder) {
  FigureData fig("figZ", "empty", "x", "y");
  std::ostringstream os;
  fig.PrintTable(os);
  EXPECT_NE(os.str().find("(no data)"), std::string::npos);
}

}  // namespace
}  // namespace sim
}  // namespace cdt
