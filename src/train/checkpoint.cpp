#include "qoc/train/checkpoint.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>

namespace qoc::train {

void save_theta(const std::string& path, const std::vector<double>& theta) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_theta: cannot open " + path);
  out << "qoc-theta v1 " << theta.size() << "\n";
  out << std::setprecision(17);
  for (const double t : theta) out << t << "\n";
  if (!out) throw std::runtime_error("save_theta: write failed for " + path);
}

std::vector<double> load_theta(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_theta: cannot open " + path);
  std::string magic, version;
  std::size_t n = 0;
  in >> magic >> version >> n;
  if (!in || magic != "qoc-theta" || version != "v1")
    throw std::runtime_error("load_theta: bad header in " + path);
  // Every value takes at least two characters (a separator and a digit),
  // so a count the rest of the file cannot hold is rejected before
  // anything is allocated for it.
  const std::streampos body = in.tellg();
  in.seekg(0, std::ios::end);
  const auto rest = static_cast<std::size_t>(in.tellg() - body);
  in.seekg(body);
  if (!in || n > rest / 2)
    throw std::runtime_error("load_theta: truncated file " + path);
  std::vector<double> theta(n);
  for (auto& t : theta) {
    in >> t;
    if (!in) throw std::runtime_error("load_theta: truncated file " + path);
  }
  in >> std::ws;
  if (!in.eof())
    throw std::runtime_error("load_theta: trailing data in " + path);
  return theta;
}

void save_history_csv(const std::string& path,
                      const std::vector<TrainingRecord>& history) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_history_csv: cannot open " + path);
  out << "step,inferences,train_loss,val_accuracy,learning_rate\n";
  out << std::setprecision(10);
  for (const auto& rec : history)
    out << rec.step << ',' << rec.inferences << ',' << rec.train_loss << ','
        << rec.val_accuracy << ',' << rec.learning_rate << "\n";
  if (!out)
    throw std::runtime_error("save_history_csv: write failed for " + path);
}

}  // namespace qoc::train
