#include "rl/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/check.hpp"

namespace iprism::rl {
namespace {

// Two doubles per vector: SSE2, the x86-64 baseline, so no target flag is
// needed (DESIGN.md §15). Lanes are independent samples or independent
// units, so a vector operation rounds exactly as the scalar one per lane.
typedef double V2 __attribute__((vector_size(16)));
typedef long long V2i __attribute__((vector_size(16)));
constexpr int kLanes = 2;
constexpr int kBlock = Mlp::kBlock;
constexpr int kVecs = kBlock / kLanes;  // vectors per unit of a block

V2 vload(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
void vstore(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }
V2 splat(double x) { return V2{x, x}; }

/// std::max(a, 0.0) per lane, without a branch: +0.0 where a < 0, else a
/// itself (so -0.0 and NaN pass through, as they do through std::max).
V2 relu(V2 a) { return (V2)((V2i)a & ~(V2i)(a < V2{})); }

/// Outputs o .. o+R-1 of one layer for a whole block, unit-major:
/// y[u * kBlock + s] = b[u] + w[u][0] * x[0 * kBlock + s] + w[u][1] * x[1 * kBlock + s]
/// + ..., summed in that order as forward() does, then the ReLU on hidden layers.
/// The R x kBlock accumulators stay in registers; each load of x feeds R outputs.
/// With `rows`, the first `m` samples are also stored sample-major,
/// rows[s * out + u], for the backward pass.
template <int R>
void forward_units(const Mlp::Layer& layer, int o, bool apply_relu, const double* x, double* y,
                   double* rows, int m) {
  const int in = layer.in;
  V2 acc[R][kVecs];
  for (int r = 0; r < R; ++r) {
    const V2 bias = splat(layer.biases[static_cast<std::size_t>(o + r)]);
    for (int v = 0; v < kVecs; ++v) acc[r][v] = bias;
  }
  const double* w = &layer.weights[static_cast<std::size_t>(o) * in];
  for (int i = 0; i < in; ++i) {
    V2 xv[kVecs];
    for (int v = 0; v < kVecs; ++v) xv[v] = vload(x + i * kBlock + v * kLanes);
    for (int r = 0; r < R; ++r) {
      const V2 c = splat(w[r * in + i]);
      for (int v = 0; v < kVecs; ++v) acc[r][v] += c * xv[v];
    }
  }
  for (int r = 0; r < R; ++r) {
    double* yu = y + (o + r) * kBlock;
    for (int v = 0; v < kVecs; ++v) {
      vstore(yu + v * kLanes, apply_relu ? relu(acc[r][v]) : acc[r][v]);
    }
    if (rows != nullptr) {
      for (int s = 0; s < m; ++s) rows[s * layer.out + o + r] = yu[s];
    }
  }
}

/// K vectors of y, held in registers across the whole term list:
/// y[j] = ((y[j] + c[0] * r[0][j]) + c[1] * r[1][j]) + ... for j in [i, i + K * kLanes).
template <int K>
void axpy_chunk(double* y, const double* coef, const double* const* rows, int terms, int i) {
  V2 acc[K];
  for (int k = 0; k < K; ++k) acc[k] = vload(y + i + k * kLanes);
  for (int t = 0; t < terms; ++t) {
    const V2 c = splat(coef[t]);
    const double* r = rows[t] + i;
    for (int k = 0; k < K; ++k) acc[k] += c * vload(r + k * kLanes);
  }
  for (int k = 0; k < K; ++k) vstore(y + i + k * kLanes, acc[k]);
}

/// y[j] += c[0] * r[0][j], then += c[1] * r[1][j], ... for j in [0, n): the
/// terms strictly in list order for every element.
void axpy_list(double* y, int n, const double* coef, const double* const* rows, int terms) {
  int i = 0;
  for (; i + 8 * kLanes <= n; i += 8 * kLanes) axpy_chunk<8>(y, coef, rows, terms, i);
  for (; i + kLanes <= n; i += kLanes) axpy_chunk<1>(y, coef, rows, terms, i);
  for (; i < n; ++i) {
    double a = y[i];
    for (int t = 0; t < terms; ++t) a += coef[t] * rows[t][i];
    y[i] = a;
  }
}

double lane_sqrt(double x) { return std::sqrt(x); }
V2 lane_sqrt(V2 x) { return V2{std::sqrt(x[0]), std::sqrt(x[1])}; }

/// One Adam update, on a double or on a V2 of independent parameters: every
/// lane rounds exactly as the scalar expression does.
struct AdamStep {
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEps = 1e-8;
  double learning_rate, inv_n, bias1, bias2;

  /// Returns the updated weight w; g is the summed gradient, m and v the
  /// moments, updated in place.
  template <class T>
  T apply(T w, T g, T& m, T& v) const {
    const T grad = g * inv_n;
    m = kBeta1 * m + (1.0 - kBeta1) * grad;
    v = kBeta2 * v + (1.0 - kBeta2) * grad * grad;
    const T mh = m / bias1;
    const T vh = v / bias2;
    return w - learning_rate * mh / (lane_sqrt(vh) + kEps);
  }
};

}  // namespace

Mlp::Mlp(const std::vector<int>& sizes) : sizes_(sizes) {
  IPRISM_CHECK(sizes.size() >= 2, "Mlp: need at least input and output sizes");
  for (int s : sizes) IPRISM_CHECK(s > 0, "Mlp: layer sizes must be positive");
  layers_.resize(sizes.size() - 1);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Layer& layer = layers_[l];
    layer.in = sizes[l];
    layer.out = sizes[l + 1];
    const std::size_t n = static_cast<std::size_t>(layer.in) * layer.out;
    layer.weights.assign(n, 0.0);
    layer.biases.assign(static_cast<std::size_t>(layer.out), 0.0);
    layer.grad_w.assign(n, 0.0);
    layer.grad_b.assign(static_cast<std::size_t>(layer.out), 0.0);
    layer.m_w.assign(n, 0.0);
    layer.v_w.assign(n, 0.0);
    layer.m_b.assign(static_cast<std::size_t>(layer.out), 0.0);
    layer.v_b.assign(static_cast<std::size_t>(layer.out), 0.0);
  }
  const auto widest = static_cast<std::size_t>(*std::max_element(sizes.begin(), sizes.end()));
  for (std::vector<double>& buffer : ping_) buffer.assign(widest * kBlock, 0.0);
  row_offset_.assign(sizes.size(), 0);
  std::size_t rows = 0;
  for (std::size_t l = 1; l + 1 < sizes.size(); ++l) {
    row_offset_[l] = rows;
    rows += static_cast<std::size_t>(sizes[l]) * kBlock;
  }
  rows_.assign(rows, 0.0);
  list_rows_.assign(std::max(widest, static_cast<std::size_t>(kBlock)), nullptr);
  list_coef_.assign(list_rows_.size(), 0.0);
}

Mlp::Mlp(const std::vector<int>& sizes, common::Rng& rng) : Mlp(sizes) {
  for (Layer& layer : layers_) {
    const double scale = std::sqrt(2.0 / layer.in);  // He init for ReLU
    for (double& w : layer.weights) w = rng.normal(0.0, scale);
  }
}

std::vector<double> Mlp::forward(std::span<const double> input) const {
  IPRISM_CHECK(static_cast<int>(input.size()) == input_size(), "Mlp: input size mismatch");
  std::vector<double> x(input.begin(), input.end());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<double> y(static_cast<std::size_t>(layer.out), 0.0);
    for (int o = 0; o < layer.out; ++o) {
      double acc = layer.biases[static_cast<std::size_t>(o)];
      const double* w = &layer.weights[static_cast<std::size_t>(o) * layer.in];
      for (int i = 0; i < layer.in; ++i) acc += w[i] * x[static_cast<std::size_t>(i)];
      // ReLU on hidden layers, linear output head.
      y[static_cast<std::size_t>(o)] =
          (l + 1 < layers_.size()) ? std::max(acc, 0.0) : acc;
    }
    x = std::move(y);
  }
  return x;
}

void Mlp::forward_block(std::span<const std::span<const double>> inputs,
                        std::span<double> q) {
  const int m = static_cast<int>(inputs.size());
  IPRISM_CHECK(m <= kBlock, "Mlp: a block holds at most kBlock inputs");
  IPRISM_CHECK(q.size() == inputs.size() * static_cast<std::size_t>(output_size()),
               "Mlp: output span size mismatch");
  if (m == 0) return;
  const double* y = forward_rows(inputs, false);
  const int out = output_size();
  for (int k = 0; k < m; ++k) {
    for (int o = 0; o < out; ++o) q[static_cast<std::size_t>(k * out + o)] = y[o * kBlock + k];
  }
}

const double* Mlp::forward_rows(std::span<const std::span<const double>> inputs,
                                bool keep_rows) {
  const int m = static_cast<int>(inputs.size());
  IPRISM_DCHECK(m > 0 && m <= kBlock, "Mlp: block size out of range");
  const int in = input_size();
  double* x = ping_[0].data();
  for (int s = 0; s < kBlock; ++s) {
    if (s < m) {
      IPRISM_CHECK(static_cast<int>(inputs[static_cast<std::size_t>(s)].size()) == in,
                   "Mlp: input size mismatch");
      const double* row = inputs[static_cast<std::size_t>(s)].data();
      for (int i = 0; i < in; ++i) x[i * kBlock + s] = row[i];
    } else {
      for (int i = 0; i < in; ++i) x[i * kBlock + s] = 0.0;  // padding lanes
    }
  }
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const bool hidden = l + 1 < layers_.size();
    const double* xl = ping_[l % 2].data();
    double* y = ping_[(l + 1) % 2].data();
    double* rows = keep_rows && hidden ? rows_.data() + row_offset_[l + 1] : nullptr;
    int o = 0;
    for (; o + 2 <= layer.out; o += 2) forward_units<2>(layer, o, hidden, xl, y, rows, m);
    if (o < layer.out) forward_units<1>(layer, o, hidden, xl, y, rows, m);
  }
  return ping_[layers_.size() % 2].data();
}

void Mlp::accumulate_gradient(std::span<const Sample> samples, std::span<double> td_errors) {
  IPRISM_CHECK(td_errors.size() == samples.size(), "Mlp: TD error span size mismatch");
  for (const Sample& sample : samples) {
    IPRISM_CHECK(static_cast<int>(sample.input.size()) == input_size(),
                 "Mlp: input size mismatch");
    IPRISM_CHECK(sample.action >= 0 && sample.action < output_size(),
                 "Mlp: action out of range");
  }
  for (std::size_t b = 0; b < samples.size(); b += kBlock) {
    const std::size_t m = std::min(samples.size() - b, static_cast<std::size_t>(kBlock));
    accumulate_block(samples.subspan(b, m), td_errors.subspan(b, m));
  }
}

void Mlp::accumulate_block(std::span<const Sample> samples, std::span<double> td_errors) {
  const int m = static_cast<int>(samples.size());
  std::span<const double> inputs[kBlock];
  for (int s = 0; s < m; ++s) inputs[s] = samples[static_cast<std::size_t>(s)].input;
  const double* q = forward_rows({inputs, samples.size()}, true);

  // dL/dy at the output, sample-major: the TD error on the sample's action,
  // 0 elsewhere. The forward output is read before its buffer is reused.
  const std::size_t last = layers_.size() - 1;
  double* delta = ping_[1 - layers_.size() % 2].data();
  double* prev = ping_[layers_.size() % 2].data();  // holds q until read below
  const int n_out = output_size();
  std::fill(delta, delta + m * n_out, 0.0);
  for (int s = 0; s < m; ++s) {
    const Sample& sample = samples[static_cast<std::size_t>(s)];
    const double td = q[sample.action * kBlock + s] - sample.target;
    td_errors[static_cast<std::size_t>(s)] = td;
    delta[s * n_out + sample.action] = td;
  }

  for (std::size_t l = layers_.size(); l-- > 0;) {
    Layer& layer = layers_[l];
    const int in = layer.in;
    const int out = layer.out;
    const double* in_rows[kBlock];
    for (int s = 0; s < m; ++s) {
      in_rows[s] = l == 0 ? inputs[s].data() : rows_.data() + row_offset_[l] + s * in;
    }
    // ReLU derivative on hidden layers: a unit whose output is <= 0 passes
    // nothing back (-0.0 and 0.0 alike; NaN passes).
    if (l != last) {
      const double* act = rows_.data() + row_offset_[l + 1];
      for (int k = 0; k < m * out; ++k) delta[k] = act[k] <= 0.0 ? 0.0 : delta[k];
    }

    // Weight and bias gradients: per output, its live samples in sample
    // order, as the per-sample loop added them.
    for (int o = 0; o < out; ++o) {
      int terms = 0;
      for (int s = 0; s < m; ++s) {
        const double d = delta[s * out + o];
        list_rows_[static_cast<std::size_t>(terms)] = in_rows[s];
        list_coef_[static_cast<std::size_t>(terms)] = d;
        // NOLINTNEXTLINE(iprism-float-eq) exact: dead units carry a literal 0.0
        terms += d != 0.0 ? 1 : 0;
      }
      double& gb = layer.grad_b[static_cast<std::size_t>(o)];
      for (int t = 0; t < terms; ++t) gb += list_coef_[static_cast<std::size_t>(t)];
      axpy_list(&layer.grad_w[static_cast<std::size_t>(o) * in], in, list_coef_.data(),
                list_rows_.data(), terms);
    }
    if (l == 0) break;  // the input layer's delta would be discarded

    // The delta of the layer below: per sample, its live outputs in output
    // order, each row summed up from 0.0.
    for (int s = 0; s < m; ++s) {
      int terms = 0;
      for (int o = 0; o < out; ++o) {
        const double d = delta[s * out + o];
        list_rows_[static_cast<std::size_t>(terms)] =
            &layer.weights[static_cast<std::size_t>(o) * in];
        list_coef_[static_cast<std::size_t>(terms)] = d;
        // NOLINTNEXTLINE(iprism-float-eq) exact: dead units carry a literal 0.0
        terms += d != 0.0 ? 1 : 0;
      }
      double* p = prev + s * in;
      std::fill(p, p + in, 0.0);
      axpy_list(p, in, list_coef_.data(), list_rows_.data(), terms);
    }
    std::swap(delta, prev);
  }
  grad_count_ += static_cast<std::size_t>(m);
}

void Mlp::apply_adam(double learning_rate) {
  if (grad_count_ == 0) return;
  ++adam_t_;
  const double bias1 = 1.0 - std::pow(AdamStep::kBeta1, static_cast<double>(adam_t_));
  const double bias2 = 1.0 - std::pow(AdamStep::kBeta2, static_cast<double>(adam_t_));
  const double inv_n = 1.0 / static_cast<double>(grad_count_);

  const AdamStep step{learning_rate, inv_n, bias1, bias2};
  auto update = [&](std::vector<double>& w, std::vector<double>& g, std::vector<double>& m,
                    std::vector<double>& v) {
    std::size_t i = 0;
    for (; i + kLanes <= w.size(); i += kLanes) {
      V2 mi = vload(&m[i]);
      V2 vi = vload(&v[i]);
      vstore(&w[i], step.apply(vload(&w[i]), vload(&g[i]), mi, vi));
      vstore(&m[i], mi);
      vstore(&v[i], vi);
      vstore(&g[i], V2{});
    }
    for (; i < w.size(); ++i) {
      w[i] = step.apply(w[i], g[i], m[i], v[i]);
      g[i] = 0.0;
    }
  };
  for (Layer& layer : layers_) {
    update(layer.weights, layer.grad_w, layer.m_w, layer.v_w);
    update(layer.biases, layer.grad_b, layer.m_b, layer.v_b);
  }
  grad_count_ = 0;
}

void Mlp::copy_weights_from(const Mlp& other) {
  IPRISM_CHECK(sizes_ == other.sizes_, "Mlp: architecture mismatch in copy_weights_from");
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].weights = other.layers_[l].weights;
    layers_[l].biases = other.layers_[l].biases;
  }
}

void Mlp::save(std::ostream& os) const {
  os << sizes_.size() << '\n';
  for (int s : sizes_) os << s << ' ';
  os << '\n';
  os.precision(17);
  for (const Layer& layer : layers_) {
    for (double w : layer.weights) os << w << ' ';
    os << '\n';
    for (double b : layer.biases) os << b << ' ';
    os << '\n';
  }
}

Mlp Mlp::load(std::istream& is) {
  std::size_t n = 0;
  is >> n;
  IPRISM_CHECK(is.good() && n >= 2 && n < 64, "Mlp::load: bad layer count");
  std::vector<int> sizes(n);
  for (int& s : sizes) is >> s;
  Mlp net(sizes);
  for (Layer& layer : net.layers_) {
    for (double& w : layer.weights) is >> w;
    for (double& b : layer.biases) is >> b;
  }
  IPRISM_CHECK(is.good() || is.eof(), "Mlp::load: truncated stream");
  return net;
}

}  // namespace iprism::rl
