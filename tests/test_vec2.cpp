#include "geom/vec2.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace iprism::geom {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vec2{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vec2{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Vec2{2.0, 4.0}));
  EXPECT_EQ(-a, (Vec2{-1.0, -2.0}));
}

TEST(Vec2, DotAndCross) {
  const Vec2 a{1.0, 0.0};
  const Vec2 b{0.0, 1.0};
  EXPECT_DOUBLE_EQ(a.dot(b), 0.0);
  EXPECT_DOUBLE_EQ(a.cross(b), 1.0);
  EXPECT_DOUBLE_EQ(b.cross(a), -1.0);
}

TEST(Vec2, NormAndNormalize) {
  const Vec2 v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm_sq(), 25.0);
  const Vec2 n = v.normalized();
  EXPECT_NEAR(n.norm(), 1.0, 1e-12);
  EXPECT_EQ(Vec2{}.normalized(), (Vec2{0.0, 0.0}));
}

TEST(Vec2, RotationIsLengthPreserving) {
  const Vec2 v{2.0, 1.0};
  const Vec2 r = v.rotated(1.2345);
  EXPECT_NEAR(r.norm(), v.norm(), 1e-12);
}

TEST(Vec2, QuarterRotation) {
  const Vec2 v{1.0, 0.0};
  const Vec2 r = v.rotated(M_PI / 2.0);
  EXPECT_NEAR(r.x, 0.0, 1e-12);
  EXPECT_NEAR(r.y, 1.0, 1e-12);
  EXPECT_EQ(v.perp(), (Vec2{0.0, 1.0}));
}

TEST(Vec2, LerpAndDistance) {
  const Vec2 a{0.0, 0.0};
  const Vec2 b{10.0, 0.0};
  EXPECT_EQ(lerp(a, b, 0.25), (Vec2{2.5, 0.0}));
  EXPECT_DOUBLE_EQ(distance(a, b), 10.0);
}

TEST(Vec2, HeadingVec) {
  const Vec2 h = heading_vec(M_PI);
  EXPECT_NEAR(h.x, -1.0, 1e-12);
  EXPECT_NEAR(h.y, 0.0, 1e-12);
}

class WrapAngleTest : public ::testing::TestWithParam<double> {};

TEST_P(WrapAngleTest, StaysInPrincipalRange) {
  const double w = wrap_angle(GetParam());
  EXPECT_GE(w, -M_PI);
  EXPECT_LT(w, M_PI);
  // Wrapping preserves the angle modulo 2*pi.
  EXPECT_NEAR(std::cos(w), std::cos(GetParam()), 1e-9);
  EXPECT_NEAR(std::sin(w), std::sin(GetParam()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, WrapAngleTest,
                         ::testing::Values(-10.0, -M_PI, -1.0, 0.0, 1.0, M_PI, 4.0, 10.0,
                                           100.0, -100.0));

TEST(WrapAngle, BoundaryIsExactlyMinusPi) {
  // The range is [-pi, pi): both boundaries land on -pi, bit for bit.
  EXPECT_EQ(wrap_angle(M_PI), -M_PI);
  EXPECT_EQ(wrap_angle(-M_PI), -M_PI);
  EXPECT_EQ(wrap_angle(3.0 * M_PI), -M_PI);
  EXPECT_EQ(angle_diff(M_PI, 0.0), -M_PI);
  // The documented rounding exception: the double just below -pi wraps to pi.
  EXPECT_EQ(wrap_angle(std::nextafter(-M_PI, -4.0)), M_PI);
}

TEST(AngleDiff, ShortestPath) {
  EXPECT_NEAR(angle_diff(0.1, -0.1), 0.2, 1e-12);
  EXPECT_NEAR(angle_diff(-3.1, 3.1), 2.0 * M_PI - 6.2, 1e-9);  // wraps through pi
}

}  // namespace
}  // namespace iprism::geom
