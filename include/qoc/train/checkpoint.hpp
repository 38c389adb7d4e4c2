#pragma once
// Tiny text checkpoint format for trained parameters and training history
// so example runs and long on-chip sessions (queue time on real devices is
// hours) can be resumed and their results inspected offline.
//
// Format: a line "qoc-theta v1 <n>" followed by n parameter values, one
// per line, printed with 17 significant digits (round-trip exact for
// IEEE-754 doubles).

#include <string>
#include <vector>

#include "qoc/train/training_engine.hpp"

namespace qoc::train {

/// Write theta to `path`; throws std::runtime_error on I/O failure.
void save_theta(const std::string& path, const std::vector<double>& theta);

/// Read theta back; throws std::runtime_error on I/O or format errors,
/// including a header count the file cannot hold and any non-whitespace
/// after the last value.
std::vector<double> load_theta(const std::string& path);

/// Write a training history as CSV: step,inferences,train_loss,val_acc,lr.
void save_history_csv(const std::string& path,
                      const std::vector<TrainingRecord>& history);

}  // namespace qoc::train
