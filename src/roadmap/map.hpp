// Drivable-area model M (paper Eq. 1): the map consulted by the reach-tube
// computation ("within the boundary of M"), the scenario generator, and the
// agents. Two concrete maps cover the paper's evaluation: a straight
// multi-lane road (all five NHTSA typologies) and a ring road (the
// roundabout extension of §V-C).
//
// Maps expose a lane-relative (Frenet) frame: `s` is distance along the
// road, `d` is signed lateral offset from the road reference line
// (positive = left of travel).
#pragma once

#include <memory>

#include "geom/obb.hpp"
#include "geom/vec2.hpp"

namespace iprism::roadmap {

/// Abstract drivable area with lane structure and a Frenet frame.
class DrivableMap {
 public:
  virtual ~DrivableMap() = default;

  /// Number of parallel lanes (>= 1).
  virtual int lane_count() const = 0;
  /// Lane width in metres (uniform across lanes).
  virtual double lane_width() const = 0;
  /// Usable longitudinal extent [0, road_length] in the Frenet frame.
  virtual double road_length() const = 0;

  /// True if the point lies on the drivable surface.
  virtual bool contains(const geom::Vec2& p) const = 0;

  /// Lane index at the point (0 = rightmost), or -1 if off-road.
  virtual int lane_at(const geom::Vec2& p) const = 0;

  /// Frenet longitudinal coordinate of the point.
  virtual double arclength(const geom::Vec2& p) const = 0;
  /// Frenet lateral coordinate (signed offset from the road reference line).
  virtual double lateral(const geom::Vec2& p) const = 0;
  /// World point for Frenet coordinates (s, d).
  virtual geom::Vec2 point_at(double s, double d) const = 0;
  /// Travel-direction heading at longitudinal coordinate s.
  virtual double heading_at(double s) const = 0;
  /// Signed curvature of the path followed at lateral offset d (1/m,
  /// positive = turning left). Zero for straight roads.
  virtual double curvature_at(double s, double d) const;

  /// Lateral (Frenet d) coordinate of the centre of the given lane.
  virtual double lane_center_offset(int lane) const = 0;

  /// True if the whole footprint (a margin-shrunk version of the box) lies
  /// on the drivable surface. The default checks the four corners pulled in
  /// by `margin` metres toward the centre; analytic maps may override with
  /// an exact band test.
  virtual bool contains_box(const geom::OrientedBox& box, double margin = 0.0) const;
};

using MapPtr = std::shared_ptr<const DrivableMap>;

}  // namespace iprism::roadmap
