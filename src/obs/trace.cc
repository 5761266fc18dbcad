#include "obs/trace.h"

#include <limits>
#include <ostream>
#include <sstream>

namespace randrank::obs {

TraceLog::TraceLog(TraceOptions options) : opts_(options) {}

void TraceLog::EmitSpan(const std::string& name, double dur_us,
                        std::initializer_list<Field> fields,
                        std::initializer_list<Label> labels) {
  // Same shape FormatJsonLine produces (max_digits10 doubles, first key
  // "bench"), built outside the lock.
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"bench\":\"span/" << name << "\",\"dur_us\":" << dur_us;
  for (const auto& [key, value] : fields) {
    os << ",\"" << key << "\":" << value;
  }
  for (const auto& [key, value] : labels) {
    os << ",\"" << key << "\":\"" << value << '"';
  }
  os << '}';

  std::lock_guard<std::mutex> lock(mutex_);
  if (lines_.size() >= kCapacity) {
    ++dropped_;
    return;
  }
  lines_.push_back(os.str());
  ++emitted_;
}

std::vector<std::string> TraceLog::Drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> drained;
  drained.swap(lines_);
  return drained;
}

void TraceLog::WriteTo(std::ostream& os) {
  for (const std::string& line : Drain()) os << line << '\n';
}

uint64_t TraceLog::emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return emitted_;
}

uint64_t TraceLog::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

}  // namespace randrank::obs
