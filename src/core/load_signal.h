// LoadSignal: the one typed view of a service's load.
//
// Every load consumer — the client's decide() path, the frontend's
// admission control, the cluster router's least-loaded placement and
// rebalancer — reads this struct, through
// SuffixService::load_signal(session, horizon); there is no other k
// accessor. It is produced by core::LoadEstimator over the predictor layer
// (src/predict/), so swapping the reactive value for a forecast needs no
// per-consumer surgery: the producer fills k_forecast and backlog_sec for
// the caller's horizon and the consumers are done.
#pragma once

#include "common/units.h"

namespace lp::core {

struct LoadSignal {
  /// The influential factor as published right now (>= 1, reactive).
  double k_now = 1.0;
  /// k forecast `horizon` ahead by the session's predictor (>= 1). Equals
  /// k_now under the default last-value predictor, or while the predictor
  /// has no observations yet.
  double k_forecast = 1.0;
  /// Predicted queue delay a new arrival would see at the horizon: the
  /// live backlog plus the forecast drift (zero drift under last-value).
  double backlog_sec = 0.0;
  /// Staleness of the newest observation behind the forecast; 0 when the
  /// predictor is empty.
  DurationNs age_ns = 0;
  /// Predictor trust in [0, 1] (0 = no observations yet).
  double confidence = 0.0;
};

}  // namespace lp::core
