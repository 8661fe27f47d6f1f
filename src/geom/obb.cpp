#include "geom/obb.hpp"

#include <cmath>

#include "common/check.hpp"

namespace iprism::geom {

OrientedBox::OrientedBox(const Vec2& center, double half_length, double half_width,
                         double heading)
    : center_(center),
      half_length_(half_length),
      half_width_(half_width),
      heading_(heading),
      axis_(heading_vec(heading)) {
  IPRISM_CHECK(half_length >= 0.0 && half_width >= 0.0,
               "OrientedBox: extents must be non-negative");
}

std::array<Vec2, 4> OrientedBox::corners() const {
  const Vec2 fwd = axis_long() * half_length_;
  const Vec2 left = axis_lat() * half_width_;
  return {center_ + fwd + left, center_ - fwd + left, center_ - fwd - left,
          center_ + fwd - left};
}

double OrientedBox::circumradius() const { return std::hypot(half_length_, half_width_); }

Aabb OrientedBox::aabb() const {
  Aabb box;
  for (const auto& c : corners()) box.expand(c);
  return box;
}

bool OrientedBox::contains(const Vec2& p) const {
  const Vec2 d = p - center_;
  return std::abs(d.dot(axis_long())) <= half_length_ &&
         std::abs(d.dot(axis_lat())) <= half_width_;
}

bool OrientedBox::intersects(const OrientedBox& other) const {
  // Broad phase: circumscribed circles.
  const double r = circumradius() + other.circumradius();
  if ((other.center_ - center_).norm_sq() > r * r) return false;
  return intersects_sat(other);
}

bool OrientedBox::intersects_sat(const OrientedBox& other) const {
  const Vec2 d = other.center_ - center_;
  const std::array<Vec2, 4> axes = {axis_long(), axis_lat(), other.axis_long(),
                                    other.axis_lat()};
  auto projected_radius = [](const OrientedBox& b, const Vec2& axis) {
    return b.half_length_ * std::abs(b.axis_long().dot(axis)) +
           b.half_width_ * std::abs(b.axis_lat().dot(axis));
  };
  for (const auto& axis : axes) {
    const double sep = std::abs(d.dot(axis));
    if (sep > projected_radius(*this, axis) + projected_radius(other, axis)) return false;
  }
  return true;
}

double OrientedBox::distance_to(const Vec2& p) const {
  const Vec2 d = p - center_;
  const double lx = std::abs(d.dot(axis_long())) - half_length_;
  const double ly = std::abs(d.dot(axis_lat())) - half_width_;
  const double cx = std::max(lx, 0.0);
  const double cy = std::max(ly, 0.0);
  return std::hypot(cx, cy);
}

}  // namespace iprism::geom
