#pragma once

// Runtime integrity for the serving layer (docs/robustness.md).
//
// The paper's hybrid scheme keeps a built layout resident for the lifetime
// of a model generation, so load-time gates (blob CRCs, ModelStore
// quarantine at open()) stop protecting it the moment a worker starts
// serving. This header holds the pieces the ForestServer's integrity
// monitor is built from:
//
//   * layout_crc32() — a replica checksum over a *built* layout, defined
//     to equal the chained per-section CRC32s that layout_io writes into
//     the v2 blob for the same layout (a cross-check property the tests
//     pin); it covers the packed node records every kernel reads.
//     image_crc32() covers the FIL baseline's device image;
//     replica_crc32() picks the one a Classifier serves from. The scrubber
//     captures that per worker at install time and re-verifies it on a
//     timer; any drift means silent memory corruption.
//   * corrupt_replica_copy() — the corrupt:replica fault payload: a deep
//     copy of a layout with every internal-node threshold clobbered.
//     Structural validation still passes (topology is untouched), so only
//     the scrubber's CRC or a shadow audit can catch it — which is the
//     point. The copy-and-swap shape keeps readers race-free: a live
//     replica's bytes are never mutated in place.
//   * IntegrityOptions / SelfHealStats — the server-facing configuration
//     and drain-time summary of the scrubber, the sampled shadow audits,
//     and the worker watchdog.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "gpukernels/device_image.hpp"
#include "layout/csr.hpp"
#include "layout/hierarchical.hpp"

namespace hrf::serve {

/// Configuration of the server's integrity monitor. Everything defaults
/// to off so an unconfigured server pays nothing; see ServerOptions.
struct IntegrityOptions {
  /// Scrubber cadence: every interval each worker replica's CRC is
  /// re-verified against the value captured at install. 0 = scrubber off.
  double scrub_interval_seconds = 0.0;

  /// Shadow audits: every Nth completed request is re-executed on the CPU
  /// oracle (the pristine forest) and compared. 0 = audits off.
  std::size_t audit_sample_every = 0;

  /// Consecutive audit mismatches on one replica that trigger the
  /// quarantine-and-rebuild path (a single mismatch could be the audit
  /// racing a legitimate reload; K in a row cannot).
  int audit_mismatch_threshold = 3;

  /// Worker watchdog: a worker whose heartbeat is older than this while a
  /// request is in flight is declared hung — its request is answered on
  /// the CPU oracle (as a degradation, never a lost response) and the
  /// thread is replaced. 0 = watchdog off.
  double hang_timeout_seconds = 0.0;

  /// Monitor loop cadence; the scrubber and watchdog share one thread and
  /// wake this often to check their timers.
  double monitor_poll_seconds = 0.002;

  /// Preferred rebuild source for a quarantined replica: when set and the
  /// store's current generation matches the corrupted replica's, the
  /// repair re-loads the blobs from disk (their CRCs re-verified on read)
  /// instead of recompiling from the in-memory forest.
  std::string rebuild_store_dir;

  /// hang:worker fault site: how long a wedged worker sleeps at dispatch.
  /// Finite (unlike a real hang) so runs without a watchdog still drain.
  double inject_hang_seconds = 0.05;
};

/// Self-heal ledger reported on drain (and as scrub.*/audit.*/watchdog.*
/// counter families in the metrics snapshot).
struct SelfHealStats {
  std::uint64_t scrub_passes = 0;        // per-replica CRC verifications
  std::uint64_t scrub_corruptions = 0;   // CRC drifts detected
  std::uint64_t scrub_repairs = 0;       // replicas rebuilt (scrub or audit)
  std::uint64_t audit_sampled = 0;       // requests shadow-audited
  std::uint64_t audit_mismatches = 0;    // oracle disagreements
  std::uint64_t watchdog_missed_heartbeats = 0;
  std::uint64_t watchdog_worker_restarts = 0;
};

/// CRC-32 of a built layout's resident arrays. Feeds bytes in exactly the
/// order and framing save_csr()/save_hierarchical() buffer their v2
/// section payloads (header pods, then each array as u64 count + raw
/// elements), so the result equals folding the blob's per-section CRCs
/// with the incremental crc32() — the cross-check the tests enforce.
std::uint32_t layout_crc32(const CsrForest& layout);
std::uint32_t layout_crc32(const HierarchicalForest& layout);

/// CRC-32 of the FIL baseline's device image (same u64 count + raw
/// elements framing): the node records its kernel reads.
std::uint32_t image_crc32(const gpukernels::DeviceImage& image);

/// Reference CRC of a replica's resident state: the CRC of what its
/// kernels read — its layout, or, for FilBaseline, which keeps no layout
/// besides its device image, that image.
std::uint32_t replica_crc32(const Classifier& clf);

/// Deep-copies `layout` with every internal-node threshold forced to an
/// extreme, silently re-routing traversals while keeping the topology
/// valid. Requires at least one internal node (any trained forest has
/// them) so the copy's CRC always differs from the original's.
CsrForest corrupt_replica_copy(const CsrForest& layout);
HierarchicalForest corrupt_replica_copy(const HierarchicalForest& layout);

}  // namespace hrf::serve
