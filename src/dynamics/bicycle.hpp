// Kinematic bicycle model (paper §III-A, refs [42]-[44]): the forward model
// used both to propagate reach-tube samples and to integrate vehicle motion
// in the simulator. Parameters follow the passenger-car configuration used
// by [46] (wheelbase ~2.7 m, steering |phi| <= 0.5 rad).
#pragma once

#include <cstddef>

#include "common/units.hpp"
#include "dynamics/state.hpp"

namespace iprism::dynamics {

/// Kinematic bicycle:
///   x'     = v cos(theta)
///   y'     = v sin(theta)
///   theta' = v / L * tan(phi)
///   v'     = a            (v clamped at 0 and at v_max)
///
/// The public surface is unit-typed (common/units.hpp): wheelbase is a
/// length, max_speed a speed, and step's dt a duration — so a transposed
/// `(wheelbase, max_speed)` pair or a speed handed to the dt parameter is a
/// compile error, not a silently wrong tube.
class BicycleModel {
 public:
  /// wheelbase must be positive; v_max bounds the speed reachable under
  /// sustained acceleration (physical top speed, not a control limit).
  explicit BicycleModel(common::Meters wheelbase = common::Meters{2.7},
                        common::MetersPerSec max_speed = common::MetersPerSec{40.0});

  common::Meters wheelbase() const { return common::Meters{wheelbase_}; }
  common::MetersPerSec max_speed() const { return common::MetersPerSec{max_speed_}; }

  /// Integrates one step of length dt (midpoint rule on heading so that
  /// constant-steer arcs are followed accurately at simulator step sizes).
  VehicleState step(const VehicleState& s, const Control& u, common::Seconds dt) const;

 private:
  double wheelbase_;
  double max_speed_;
};

// --- Structure-of-arrays batch form (DESIGN.md §13) -------------------------
//
// The reach-tube propagation steps every parent×control pair of a slice in
// blocks of parallel lanes, with tan(steer) computed once per control rather
// than once per step. step_batch and BicycleModel::step share one per-lane
// function, so a lane's result is bit-identical to step() by construction.

/// Input lanes: parent state (x/y/heading/speed) plus the control per lane.
/// `tan_steer` carries std::tan(steer), precomputed by the caller: the same
/// libm call on the same input bits step() makes inline.
struct StepBatchIn {
  const double* x;
  const double* y;
  const double* heading;
  const double* speed;
  const double* accel;
  const double* tan_steer;
};

/// Output lanes (may not alias the inputs).
struct StepBatchOut {
  double* x;
  double* y;
  double* heading;
  double* speed;
};

/// Steps `n` lanes through the kinematic bicycle model. Bit-identical per
/// lane to BicycleModel{wheelbase, max_speed}.step(state, control, dt).
void step_batch(std::size_t n, const StepBatchIn& in, const StepBatchOut& out, double dt,
                double wheelbase, double max_speed);

}  // namespace iprism::dynamics
