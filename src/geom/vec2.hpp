// 2-D vector and angle arithmetic. All simulator and reachability geometry
// lives in a planar world frame (metres, radians, x east / y north).
#pragma once

#include <cmath>

namespace iprism::geom {

/// Plain 2-D vector. A value type with no invariant (Core Guidelines C.2),
/// hence a struct with public members.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

  constexpr Vec2 operator+(const Vec2& o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(const Vec2& o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  constexpr Vec2 operator-() const { return {-x, -y}; }
  Vec2& operator+=(const Vec2& o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  Vec2& operator-=(const Vec2& o) {
    x -= o.x;
    y -= o.y;
    return *this;
  }
  // NOLINTNEXTLINE(iprism-float-eq) exact: value identity for grid keys and tests, not tolerance
  constexpr bool operator==(const Vec2& o) const { return x == o.x && y == o.y; }

  constexpr double dot(const Vec2& o) const { return x * o.x + y * o.y; }
  /// z-component of the 3-D cross product; positive when `o` is CCW of this.
  constexpr double cross(const Vec2& o) const { return x * o.y - y * o.x; }
  double norm() const { return std::hypot(x, y); }
  constexpr double norm_sq() const { return x * x + y * y; }

  /// Unit vector; returns (0, 0) for the zero vector rather than dividing
  /// by zero — callers treat a zero direction as "no preferred direction".
  Vec2 normalized() const {
    const double n = norm();
    return n > 0.0 ? Vec2{x / n, y / n} : Vec2{};
  }

  Vec2 rotated(double angle) const {
    const double c = std::cos(angle);
    const double s = std::sin(angle);
    return {x * c - y * s, x * s + y * c};
  }

  /// Perpendicular (rotated +90 degrees).
  constexpr Vec2 perp() const { return {-y, x}; }
};

constexpr Vec2 operator*(double s, const Vec2& v) { return v * s; }

inline double distance(const Vec2& a, const Vec2& b) { return (a - b).norm(); }

inline Vec2 lerp(const Vec2& a, const Vec2& b, double t) { return a + (b - a) * t; }

/// Unit vector with the given heading.
inline Vec2 heading_vec(double heading) { return {std::cos(heading), std::sin(heading)}; }

/// Wraps an angle to [-pi, pi): pi itself maps to -pi. (The one double just
/// below -pi rounds up to pi.)
inline double wrap_angle(double a) {
  a = std::fmod(a + M_PI, 2.0 * M_PI);
  if (a < 0.0) a += 2.0 * M_PI;
  return a - M_PI;
}

/// Signed smallest rotation from `from` to `to`, in [-pi, pi) as wrap_angle.
inline double angle_diff(double to, double from) { return wrap_angle(to - from); }

}  // namespace iprism::geom
