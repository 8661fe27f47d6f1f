// Oriented bounding box and the exact separating-axis intersection test.
// Vehicle footprints (and reach-tube collision probes) are oriented
// rectangles; OBB–OBB overlap is the simulator's ground-truth collision
// predicate.
#pragma once

#include <array>

#include "geom/aabb.hpp"
#include "geom/vec2.hpp"

namespace iprism::geom {

/// Oriented rectangle: centre, half extents along its local axes, heading of
/// the local +x axis in the world frame.
class OrientedBox {
 public:
  OrientedBox() = default;
  /// half_length/half_width must be non-negative (checked).
  OrientedBox(const Vec2& center, double half_length, double half_width, double heading);

  const Vec2& center() const { return center_; }
  double half_length() const { return half_length_; }
  double half_width() const { return half_width_; }
  double heading() const { return heading_; }

  /// Corners in CCW order starting at (+x, +y) in the local frame.
  std::array<Vec2, 4> corners() const;

  /// Local axes (unit forward, unit left); cached at construction.
  Vec2 axis_long() const { return axis_; }
  Vec2 axis_lat() const { return axis_.perp(); }

  /// Radius of the circumscribed circle — cheap broad-phase bound.
  double circumradius() const;

  Aabb aabb() const;

  bool contains(const Vec2& p) const;

  /// Exact overlap test: the circumscribed-circle pretest, then
  /// intersects_sat(). Touching boxes count as intersecting.
  bool intersects(const OrientedBox& other) const;

  /// The separating-axis half of intersects() (4 candidate axes), without
  /// the circle pretest — for callers that already ran that pretest on the
  /// same operands (the reach tube, with circumradii precomputed).
  bool intersects_sat(const OrientedBox& other) const;

  /// Minimum distance from `p` to this box (0 if inside).
  double distance_to(const Vec2& p) const;

 private:
  Vec2 center_{};
  double half_length_ = 0.0;
  double half_width_ = 0.0;
  double heading_ = 0.0;
  Vec2 axis_{1.0, 0.0};  // unit vector along heading, cached
};

}  // namespace iprism::geom
