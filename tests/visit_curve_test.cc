#include "model/visit_curve.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace randrank {
namespace {

VisitRateCurve MakePowerLaw() {
  // F(x) = 2 * x^0.5 tabulated on a log grid.
  std::vector<double> xs;
  std::vector<double> fs;
  for (int i = 0; i <= 20; ++i) {
    const double x = std::exp(-6.0 + 0.3 * i);
    xs.push_back(x);
    fs.push_back(2.0 * std::sqrt(x));
  }
  return VisitRateCurve(xs, fs, 0.001);
}

// F(x) = value everywhere, f0 included.
VisitRateCurve Flat(double value) {
  return VisitRateCurve({0.01, 1.0}, {value, value}, value);
}

TEST(VisitRateCurveTest, InterpolatesExactlyAtNodes) {
  const VisitRateCurve curve = MakePowerLaw();
  for (size_t i = 0; i < curve.grid().size(); ++i) {
    EXPECT_NEAR(curve(curve.grid()[i]), curve.values()[i],
                curve.values()[i] * 1e-12);
  }
}

TEST(VisitRateCurveTest, LogLogInterpolationIsExactForPowerLaws) {
  const VisitRateCurve curve = MakePowerLaw();
  // Between nodes, log-log-linear interpolation reproduces a pure power law.
  const double x = std::exp(-4.85);
  EXPECT_NEAR(curve(x), 2.0 * std::sqrt(x), 2.0 * std::sqrt(x) * 1e-9);
}

TEST(VisitRateCurveTest, ClampsOutsideGrid) {
  const VisitRateCurve curve = MakePowerLaw();
  EXPECT_DOUBLE_EQ(curve(1e-12), curve.values().front());
  EXPECT_DOUBLE_EQ(curve(100.0), curve.values().back());
}

TEST(VisitRateCurveTest, ZeroAndNegativeReturnF0) {
  const VisitRateCurve curve = MakePowerLaw();
  EXPECT_DOUBLE_EQ(curve(0.0), 0.001);
  EXPECT_DOUBLE_EQ(curve(-1.0), 0.001);
}

TEST(VisitRateCurveTest, BlendIsGeometric) {
  const VisitRateCurve a = Flat(1.0);
  const VisitRateCurve b = Flat(4.0);
  const VisitRateCurve half = a.BlendWith(b, 0.5);
  EXPECT_NEAR(half(0.1), 2.0, 1e-12);  // sqrt(1*4)
  EXPECT_NEAR(half.f0(), 2.0, 1e-12);
  const VisitRateCurve none = a.BlendWith(b, 0.0);
  EXPECT_NEAR(none(0.1), 1.0, 1e-12);
}

TEST(VisitRateCurveTest, LogDistanceAndF0Weight) {
  const VisitRateCurve a = Flat(1.0);
  VisitRateCurve b({0.01, 1.0}, {1.0, 1.0}, std::exp(1.0));  // only f0 differs
  EXPECT_NEAR(a.LogDistance(b), 1.0, 1e-12);
  EXPECT_NEAR(a.LogDistance(b, 0.25), 0.25, 1e-12);
  EXPECT_NEAR(a.LogDistance(b, 0.0), 0.0, 1e-12);
}

}  // namespace
}  // namespace randrank
