#pragma once
// Synthetic stand-ins for MNIST and Fashion-MNIST plus the paper's exact
// preprocessing pipeline (28x28 -> center-crop 24x24 -> average-pool to
// 4x4 -> 16 rotation angles).
//
// The real datasets are unavailable offline; SyntheticImages draws
// class-structured 28x28 grayscale images from per-class template patterns
// (distinct oriented strokes/blobs per class, in the spirit of digit /
// garment silhouettes) with per-example jitter and pixel noise. The
// difficulty knob controls inter-class separation so tasks land in the
// paper's accuracy regimes (2-class "easy", 4-class "hard"). What the
// paper studies -- how noisy on-chip gradients and pruning affect
// training -- sees an image only through the 16 encoder angles of this
// pipeline, so it depends on the task's class count and separability,
// which the stand-ins set, not on the pixels of real digits or garments.
// Absolute accuracies on the real datasets they cannot reproduce.

#include <cstdint>
#include <vector>

#include "qoc/common/prng.hpp"
#include "qoc/data/dataset.hpp"

namespace qoc::data {

/// A 28x28 grayscale image with values in [0, 1].
struct Image {
  static constexpr int kSize = 28;
  std::vector<double> pixels;  // row-major, kSize * kSize

  Image() : pixels(kSize * kSize, 0.0) {}
  double& at(int row, int col) { return pixels[row * kSize + col]; }
  double at(int row, int col) const { return pixels[row * kSize + col]; }
};

/// Paper pipeline step 1: center-crop 28x28 -> 24x24.
std::vector<double> center_crop(const Image& img, int crop = 24);

/// Paper pipeline step 2: average-pool a square image down to out x out
/// (24x24 -> 4x4 uses 6x6 pooling windows).
std::vector<double> downsample(const std::vector<double>& img, int in_size,
                               int out_size);

/// Full pipeline: 28x28 image -> 16 features scaled to [0, pi] rotation
/// angles (the paper puts the classical values directly into the phases
/// of the 16 encoder rotation gates).
std::vector<double> image_to_features(const Image& img,
                                      double angle_scale = 3.14159265358979);

/// Deterministic class-structured image source.
class SyntheticImages {
 public:
  enum class Style {
    Digits,   // MNIST stand-in: stroke-like class templates
    Fashion,  // Fashion stand-in: blockier garment-like silhouettes
  };

  /// difficulty in [0,1]: 0 = well-separated classes, 1 = heavy template
  /// overlap + noise. The per-style defaults used by the benches are
  /// chosen so accuracies land in the paper's reported ranges.
  SyntheticImages(Style style, int n_classes, std::uint64_t seed,
                  double difficulty = 0.35);

  /// Remap class labels to specific template prototypes (e.g. the paper's
  /// MNIST-2 task is digits {3, 6}). templates.size() must equal
  /// n_classes; entries index the style's prototype set (0..9).
  void set_templates(std::vector<int> templates);

  /// Generate the i-th image of class `label` (deterministic in (seed,
  /// label, index)).
  Image generate(int label, std::uint64_t index) const;

  /// Build a dataset of `n` examples with (approximately) balanced round-
  /// robin classes, already run through the 16-feature pipeline.
  Dataset make_dataset(std::size_t n) const;

  int num_classes() const { return n_classes_; }
  Style style() const { return style_; }

 private:
  void paint_template(Image& img, int label, Prng& rng) const;

  Style style_;
  int n_classes_;
  std::uint64_t seed_;
  double difficulty_;
  std::vector<int> templates_;  // label -> prototype id
};

/// Convenience factories matching the five paper tasks' image datasets.
/// The class counts/splits mirror Sec. 4.1: 2-class tasks use 500 train /
/// 300 validation, 4-class tasks 100 train / 300 validation.
struct TaskData {
  Dataset train;
  Dataset val;
};

TaskData make_mnist2(std::uint64_t seed = 7);    // digits 3 vs 6
TaskData make_mnist4(std::uint64_t seed = 11);   // digits 0..3
TaskData make_fashion2(std::uint64_t seed = 13); // dress vs shirt
TaskData make_fashion4(std::uint64_t seed = 17); // 4 garment classes

}  // namespace qoc::data
