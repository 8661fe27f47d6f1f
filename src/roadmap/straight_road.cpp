#include "roadmap/straight_road.hpp"

#include <cmath>

#include "common/check.hpp"

namespace iprism::roadmap {

double DrivableMap::curvature_at(double /*s*/, double /*d*/) const { return 0.0; }

bool DrivableMap::contains_box(const geom::OrientedBox& box, double margin) const {
  // The four margin-shrunk extent corners must lie on the drivable surface.
  const geom::Vec2& center = box.center();
  const geom::Vec2 fwd = box.axis_long() * std::max(box.half_length() - margin, 0.0);
  const geom::Vec2 left = box.axis_lat() * std::max(box.half_width() - margin, 0.0);
  return contains(center + fwd + left) && contains(center + fwd - left) &&
         contains(center - fwd + left) && contains(center - fwd - left);
}

StraightRoad::StraightRoad(int lanes, double lane_width, double length)
    : lanes_(lanes), lane_width_(lane_width), length_(length) {
  IPRISM_CHECK(lanes >= 1, "StraightRoad: need at least one lane");
  IPRISM_CHECK(lane_width > 0.0 && length > 0.0,
               "StraightRoad: lane_width and length must be positive");
}

bool StraightRoad::contains(const geom::Vec2& p) const {
  return p.x >= 0.0 && p.x <= length_ && p.y >= 0.0 && p.y <= lanes_ * lane_width_;
}

int StraightRoad::lane_at(const geom::Vec2& p) const {
  if (!contains(p)) return -1;
  const int lane = static_cast<int>(p.y / lane_width_);
  return std::min(lane, lanes_ - 1);
}

double StraightRoad::lane_center_offset(int lane) const {
  IPRISM_CHECK(lane >= 0 && lane < lanes_, "StraightRoad: lane index out of range");
  return (lane + 0.5) * lane_width_;
}

bool StraightRoad::contains_box(const geom::OrientedBox& box, double margin) const {
  // Exact: the box corners define the extremes on an axis-aligned band.
  const geom::Aabb bb = box.aabb().inflated(-margin);
  if (bb.empty()) return contains(box.center());
  return bb.lo.x >= 0.0 && bb.hi.x <= length_ && bb.lo.y >= 0.0 &&
         bb.hi.y <= lanes_ * lane_width_;
}

}  // namespace iprism::roadmap
