// Compiled with -ffp-contract=off (see src/dynamics/CMakeLists.txt).
#include "dynamics/bicycle.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace iprism::dynamics {

namespace {

/// The one copy of the bicycle step. BicycleModel::step and every
/// step_batch lane run this exact expression sequence, so the two agree to
/// the bit. `tan_steer` is std::tan(steer).
VehicleState step_lane(const VehicleState& s, double accel, double tan_steer, double dt,
                       double wheelbase, double max_speed) {
  // Speed first: if braking reaches standstill inside the step, split the
  // step at the stop time so the vehicle does not reverse.
  const double v0 = s.speed;
  const double v1 = std::clamp(v0 + accel * dt, 0.0, max_speed);
  double move_dt = dt;
  // NOLINTNEXTLINE(iprism-float-eq) exact: std::clamp pins a full stop to literal 0.0
  if (v1 == 0.0 && v0 > 0.0 && accel < 0.0) {
    move_dt = std::min(dt, v0 / -accel);
  }
  const double v_mid = 0.5 * (v0 + v1);

  const double yaw_rate = v_mid / wheelbase * tan_steer;
  const double heading_mid = s.heading + 0.5 * yaw_rate * move_dt;

  VehicleState out;
  out.x = s.x + v_mid * std::cos(heading_mid) * move_dt;
  out.y = s.y + v_mid * std::sin(heading_mid) * move_dt;
  out.heading = geom::wrap_angle(s.heading + yaw_rate * move_dt);
  out.speed = v1;
  return out;
}

}  // namespace

BicycleModel::BicycleModel(common::Meters wheelbase, common::MetersPerSec max_speed)
    : wheelbase_(wheelbase.value()), max_speed_(max_speed.value()) {
  IPRISM_CHECK(wheelbase_ > 0.0, "BicycleModel: wheelbase must be positive");
  IPRISM_CHECK(max_speed_ > 0.0, "BicycleModel: max_speed must be positive");
}

VehicleState BicycleModel::step(const VehicleState& s, const Control& u,
                                common::Seconds dt) const {
  return step_lane(s, u.accel, std::tan(u.steer), dt.value(), wheelbase_, max_speed_);
}

void step_batch(std::size_t n, const StepBatchIn& in, const StepBatchOut& out, double dt,
                double wheelbase, double max_speed) {
  for (std::size_t i = 0; i < n; ++i) {
    const VehicleState ns = step_lane({in.x[i], in.y[i], in.heading[i], in.speed[i]},
                                      in.accel[i], in.tan_steer[i], dt, wheelbase, max_speed);
    out.x[i] = ns.x;
    out.y[i] = ns.y;
    out.heading[i] = ns.heading;
    out.speed[i] = ns.speed;
  }
}

}  // namespace iprism::dynamics
