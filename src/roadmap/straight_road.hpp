// Straight multi-lane road along +x. Lane 0 is the rightmost (lowest-y)
// lane; the road surface spans y in [0, lane_count * lane_width] and
// x in [0, length].
#pragma once

#include "roadmap/map.hpp"

namespace iprism::roadmap {

class StraightRoad final : public DrivableMap {
 public:
  /// lanes >= 1, lane_width > 0, length > 0 (checked).
  StraightRoad(int lanes, double lane_width, double length);

  int lane_count() const override { return lanes_; }
  double lane_width() const override { return lane_width_; }
  double road_length() const override { return length_; }

  bool contains(const geom::Vec2& p) const override;
  int lane_at(const geom::Vec2& p) const override;

  double arclength(const geom::Vec2& p) const override { return p.x; }
  double lateral(const geom::Vec2& p) const override { return p.y; }
  geom::Vec2 point_at(double s, double d) const override { return {s, d}; }
  double heading_at(double /*s*/) const override { return 0.0; }

  double lane_center_offset(int lane) const override;

  bool contains_box(const geom::OrientedBox& box, double margin) const override;

 private:
  int lanes_;
  double lane_width_;
  double length_;
};

}  // namespace iprism::roadmap
