#ifndef RANDRANK_OBS_EXPORT_H_
#define RANDRANK_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"

namespace randrank::obs {

/// Prometheus text exposition of a registry snapshot. Metric names are
/// sanitized ([^a-zA-Z0-9_:] -> '_'); counters become `<name>_total`,
/// histograms the standard cumulative `<name>_bucket{le="..."}` series
/// (non-empty buckets plus "+Inf") with `_sum` and `_count`. This is the
/// string a /metrics endpoint would serve.
std::string PrometheusText(const MetricsSnapshot& snapshot);

}  // namespace randrank::obs

#endif  // RANDRANK_OBS_EXPORT_H_
