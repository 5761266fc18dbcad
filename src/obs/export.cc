#include "obs/export.h"

#include <cctype>
#include <limits>
#include <sstream>

namespace randrank::obs {

namespace {

std::string Sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':')) {
      c = '_';
    }
  }
  return out;
}

}  // namespace

std::string PrometheusText(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const auto& [name, value] : snapshot.counters) {
    const std::string metric = Sanitize(name) + "_total";
    os << "# TYPE " << metric << " counter\n" << metric << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string metric = Sanitize(name);
    os << "# TYPE " << metric << " gauge\n" << metric << ' ' << value << '\n';
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string metric = Sanitize(name);
    os << "# TYPE " << metric << " histogram\n";
    uint64_t cumulative = 0;
    for (uint32_t b = 0; b < hist.counts.size(); ++b) {
      if (hist.counts[b] == 0) continue;
      cumulative += hist.counts[b];
      os << metric << "_bucket{le=\"" << LatencyHistogram::BucketHi(b)
         << "\"} " << cumulative << '\n';
    }
    os << metric << "_bucket{le=\"+Inf\"} " << hist.total << '\n'
       << metric << "_sum " << hist.sum << '\n'
       << metric << "_count " << hist.total << '\n';
  }
  return os.str();
}

}  // namespace randrank::obs
