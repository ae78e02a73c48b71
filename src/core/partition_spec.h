// The PartitionSpec wire/option type, split from core/partition.h the same
// way analysis/ensemble_spec.h is split from analysis/ensemble.h: the
// service envelope codec (io/envelope.cpp — semsim_io, which the simulation
// libraries link, not the reverse) carries the spec without pulling the
// engine headers or a link cycle into the io layer. Everything here is
// header-only; the partition planner itself lives in core/partition.h.
//
// See analysis/run_fields.inc (SEMSIM_PARTITION_FIELD) for the
// single-source field table these scalars are declared in.
#pragma once

#include <cmath>
#include <cstdint>

#include "base/error.h"

namespace semsim {

/// Domain-decomposition request for a single measurement run: split the
/// junction graph into weakly-coupled clusters and advance them under
/// conservative time windowing (core/partition.h).
struct PartitionSpec {
  /// Presence flag: a request without a partition section is exactly a
  /// disabled spec, and a disabled spec contributes nothing to the run
  /// fingerprint or the result document (pre-partition compatibility).
  bool enabled = false;

  /// Requested cluster count (--partitions). The planner never cuts a
  /// strongly-coupled component, so the effective count may be lower;
  /// 1 runs the whole circuit on the solo engine path (bitwise identical
  /// to a non-partitioned run).
  std::uint32_t clusters = 1;

  /// Synchronization window [s]; 0 = auto: 256 k / Gamma_total for k
  /// clusters and the circuit's initial total rate Gamma_total, about 256
  /// events per cluster per window.
  double window = 0.0;

  /// Relative kappa threshold |k_ij| / sqrt(k_ii * k_jj) above which two
  /// islands must share a cluster. The default brackets the 0.5 aF
  /// inter-island coupling against the ~23 aF self-capacitance of the SET
  /// logic family (ratio ~ 0.022): couplings at or below that strength are
  /// cuttable, anything stronger is glued.
  double coupling_threshold = 0.025;

  /// Throws Error on structural nonsense. Header-only so the io codec can
  /// validate without linking semsim_core.
  void validate() const {
    require(clusters >= 1, "partition: clusters must be >= 1");
    require(std::isfinite(window) && window >= 0.0,
            "partition: window must be finite and >= 0");
    require(std::isfinite(coupling_threshold) && coupling_threshold > 0.0,
            "partition: coupling_threshold must be finite and > 0");
  }
};

}  // namespace semsim
