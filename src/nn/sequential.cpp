#include "nn/sequential.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace soteria::nn {

namespace {
constexpr std::uint32_t kMagic = 0x53544e4e;  // "STNN"
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  if (layer == nullptr) {
    throw std::invalid_argument("Sequential::add: null layer");
  }
  layers_.push_back(std::move(layer));
  activations_.clear();  // the last batch no longer matches the chain
  return *this;
}

math::Matrix Sequential::forward(const math::Matrix& input) {
  if (layers_.empty()) {
    throw std::logic_error("Sequential::forward: no layers");
  }
  activations_.clear();
  const std::size_t rows = input.rows();
  widths_.assign(1, input.cols());
  std::size_t total = rows * input.cols();
  for (const auto& layer : layers_) {
    widths_.push_back(layer->output_dimension(widths_.back()));
    total += rows * widths_.back();
  }
  if (arena_.size() < total) arena_.resize(total);
  float* slot = arena_.data();
  std::copy(input.data().begin(), input.data().end(), slot);
  activations_.push_back(slot);
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    slot += rows * widths_[i];
    activations_.push_back(
        layers_[i]->forward_into(activations_[i], rows, widths_[i], slot));
  }
  batch_rows_ = rows;
  const float* out = activations_.back();
  return math::Matrix(rows, widths_.back(),
                      std::vector<float>(out, out + rows * widths_.back()));
}

void Sequential::infer_into(const float* in, std::size_t rows,
                            std::size_t width, float* out,
                            Scratch& scratch) const {
  if (layers_.empty()) {
    throw std::logic_error("Sequential::infer_into: no layers");
  }
  const float* cur = in;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const std::size_t out_width = layers_[i]->output_dimension(width);
    float* dst = out;
    if (i + 1 < layers_.size()) {
      // The scratch buffer not holding the current activation.
      std::vector<float>& buf =
          cur == scratch.a.data() ? scratch.b : scratch.a;
      if (buf.size() < rows * out_width) buf.resize(rows * out_width);
      dst = buf.data();
    }
    cur = layers_[i]->infer_into(cur, rows, width, dst);
    width = out_width;
  }
  // Only a trailing inference-identity layer leaves the result outside
  // `out`.
  if (cur != out) std::copy(cur, cur + rows * width, out);
}

math::Matrix Sequential::predict(const math::Matrix& input) const {
  math::Matrix out(input.rows(), output_dimension(input.cols()));
  Scratch scratch;
  infer_into(input.data().data(), input.rows(), input.cols(),
             out.data().data(), scratch);
  return out;
}

math::Matrix Sequential::backward(const math::Matrix& grad_output) {
  if (activations_.empty()) {
    throw std::logic_error("Sequential::backward: no forward before it");
  }
  if (grad_output.rows() != batch_rows_ ||
      grad_output.cols() != widths_.back()) {
    throw std::invalid_argument("Sequential::backward: gradient shape " +
                                grad_output.shape_string() +
                                " differs from the last forward's output");
  }
  // Ping-pong gradient buffers, freed on return: kept between batches
  // they would outlive training in every trained model.
  Scratch grads;
  const float* grad = grad_output.data().data();
  for (std::size_t i = layers_.size(); i-- > 0;) {
    std::vector<float>& buf = grad == grads.a.data() ? grads.b : grads.a;
    if (buf.size() < batch_rows_ * widths_[i]) {
      buf.resize(batch_rows_ * widths_[i]);
    }
    grad = layers_[i]->backward_into(activations_[i], activations_[i + 1],
                                     grad, batch_rows_, widths_[i],
                                     buf.data());
  }
  const std::size_t size = batch_rows_ * widths_[0];
  return math::Matrix(batch_rows_, widths_[0],
                      std::vector<float>(grad, grad + size));
}

std::vector<ParamRef> Sequential::parameters() {
  std::vector<ParamRef> params;
  for (auto& layer : layers_) {
    layer->collect_parameters(params);
  }
  return params;
}

void Sequential::zero_gradients() {
  for (auto& layer : layers_) layer->zero_gradients();
}

std::size_t Sequential::parameter_count() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->parameter_count();
  return total;
}

std::size_t Sequential::output_dimension(std::size_t input_dim) const {
  std::size_t dim = input_dim;
  for (const auto& layer : layers_) {
    dim = layer->output_dimension(dim);
  }
  return dim;
}

std::string Sequential::summary() const {
  std::string text;
  for (const auto& layer : layers_) {
    text += layer->name();
    text += '\n';
  }
  text += "total parameters: " + std::to_string(parameter_count()) + '\n';
  return text;
}

void Sequential::save_parameters(std::ostream& out) const {
  // parameters() is non-const (it hands out mutable ParamRefs for
  // optimizers); serialization only reads them.
  const auto params = const_cast<Sequential*>(this)->parameters();
  out.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  const auto count = static_cast<std::uint64_t>(params.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& p : params) {
    const auto size = static_cast<std::uint64_t>(p.value->size());
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(reinterpret_cast<const char*>(p.value->data().data()),
              static_cast<std::streamsize>(size * sizeof(float)));
  }
  if (!out) {
    throw std::runtime_error("Sequential::save_parameters: write failed");
  }
}

void Sequential::load_parameters(std::istream& in) {
  std::uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in || magic != kMagic) {
    throw std::runtime_error(
        "Sequential::load_parameters: bad magic or truncated stream");
  }
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  const auto params = parameters();
  if (!in || count != params.size()) {
    throw std::runtime_error(
        "Sequential::load_parameters: parameter count mismatch");
  }
  for (const auto& p : params) {
    std::uint64_t size = 0;
    in.read(reinterpret_cast<char*>(&size), sizeof(size));
    if (!in || size != p.value->size()) {
      throw std::runtime_error(
          "Sequential::load_parameters: tensor size mismatch");
    }
    in.read(reinterpret_cast<char*>(p.value->data().data()),
            static_cast<std::streamsize>(size * sizeof(float)));
    if (!in) {
      throw std::runtime_error(
          "Sequential::load_parameters: truncated tensor data");
    }
  }
}

}  // namespace soteria::nn
