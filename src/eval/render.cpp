#include "eval/render.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"

namespace iprism::eval {
namespace {

/// Canvas indexed [row][col]; row 0 is the *left* road edge (the paper's
/// figures put the leftmost lane on top).
class Canvas {
 public:
  Canvas(int rows, int cols) : cols_(cols), cells_(static_cast<std::size_t>(rows) * cols, ' ') {}

  int rows() const { return static_cast<int>(cells_.size()) / cols_; }
  int cols() const { return cols_; }

  void put(int row, int col, char c, bool overwrite = true) {
    if (row < 0 || row >= rows() || col < 0 || col >= cols_) return;
    char& cell = cells_[static_cast<std::size_t>(row) * cols_ + col];
    if (overwrite || cell == ' ') cell = c;
  }

  std::string str() const {
    std::string out;
    out.reserve(cells_.size() + static_cast<std::size_t>(rows()));
    for (int r = 0; r < rows(); ++r) {
      out.append(cells_.begin() + static_cast<std::size_t>(r) * cols_,
                 cells_.begin() + static_cast<std::size_t>(r + 1) * cols_);
      out.push_back('\n');
    }
    return out;
  }

 private:
  int cols_;
  std::vector<char> cells_;
};

}  // namespace

std::string render_scene(const core::SceneSnapshot& scene, const core::ReachTube* tube,
                         const RenderOptions& options) {
  IPRISM_CHECK(scene.map != nullptr, "render_scene: snapshot has no map");
  IPRISM_CHECK(options.x_scale > 0.0 && options.y_scale > 0.0,
               "render_scene: scales must be positive");
  const auto& map = *scene.map;
  const double road_width = map.lane_count() * map.lane_width();
  const double ego_s = map.arclength(scene.ego.state.position());

  const int cols =
      static_cast<int>((options.behind + options.ahead) / options.x_scale) + 1;
  const int rows = static_cast<int>(road_width / options.y_scale) + 3;  // edges
  Canvas canvas(rows, cols);

  auto to_cell = [&](double s, double d, int& row, int& col) {
    col = static_cast<int>((s - (ego_s - options.behind)) / options.x_scale);
    // d grows to the left; row 0 is the left edge.
    row = 1 + static_cast<int>((road_width - d) / options.y_scale);
  };

  // Road edges and lane lines.
  for (int c = 0; c < cols; ++c) {
    int row, col;
    to_cell(ego_s, road_width, row, col);
    canvas.put(row - 1, c, '#');
    to_cell(ego_s, 0.0, row, col);
    canvas.put(row + 1, c, '#');
    for (int lane = 1; lane < map.lane_count(); ++lane) {
      to_cell(ego_s, lane * map.lane_width(), row, col);
      if (c % 3 != 2) canvas.put(row, c, '=', /*overwrite=*/false);
    }
  }

  // Reach-tube occupancy (under the actors).
  if (tube != nullptr) {
    for (const auto& slice : tube->slices) {
      for (const auto& state : slice) {
        int row, col;
        to_cell(map.arclength(state.position()), map.lateral(state.position()), row, col);
        canvas.put(row, col, '.', /*overwrite=*/false);
      }
    }
  }

  // Actors: footprint extent along the road.
  auto draw_actor = [&](const core::ActorSnapshot& actor, char symbol) {
    const double s = map.arclength(actor.state.position());
    const double d = map.lateral(actor.state.position());
    const int half = std::max(static_cast<int>(actor.dims.length / 2.0 / options.x_scale), 0);
    for (int k = -half; k <= half; ++k) {
      int row, col;
      to_cell(s, d, row, col);
      canvas.put(row, col + k, symbol);
    }
  };
  char symbol = 'A';
  for (const auto& other : scene.others) {
    draw_actor(other, symbol);
    symbol = symbol == 'Z' ? 'A' : static_cast<char>(symbol + 1);
  }
  draw_actor(scene.ego, 'E');

  return canvas.str();
}

std::string render_world(const sim::World& world, bool with_tube,
                         const RenderOptions& options) {
  const core::SceneSnapshot scene = core::snapshot_of(world);
  if (!with_tube) return render_scene(scene, nullptr, options);
  const core::ReachTubeComputer rt;
  const auto forecasts = core::cvtr_forecasts(world, rt.params().horizon, rt.params().dt);
  core::RiskSession session;
  const core::ReachTube tube = rt.compute(session, world.map(), scene.ego.state,
                                          common::Seconds{scene.time}, forecasts);
  return render_scene(scene, &tube, options);
}

}  // namespace iprism::eval
