// Materialized per-device digest rows, maintained from delta streams.
//
// Three parties keep one of these:
//  - every device rank keeps its *baseline*: the rows it last shipped,
//    against which the next collect's deltas are computed;
//  - every aggregator rank keeps a *mirror* of its subtree, updated as it
//    merges and forwards verdict rollups — this is what lets it serve a
//    reborn child a snapshot without asking the root;
//  - the root keeps the authoritative store the final digest is read from.
//
// Because every party applies the identical delta stream (collect rounds
// are sequenced and idempotent — a re-asked round re-ships byte-identical
// deltas and appliers skip already-applied sequence numbers), all three
// agree after every completed round. Rows are multisets (ties kept), so
// apply/diff use multiset subtraction, matching the sorted-union digest
// the differential tests byte-compare.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dvm/digest_delta.hpp"

namespace tulkun::coord {

class DigestStore {
 public:
  /// Applies a delta list: full entries replace the device's rows, partial
  /// entries remove then add with multiset semantics. Unknown removals are
  /// ignored, so a hostile or skewed peer cannot corrupt more than its own
  /// device's rows (which stay wrong until that device anchors again).
  void apply(const std::vector<dvm::DigestDelta>& deltas);

  void replace(std::uint32_t device, std::vector<std::string> rows);

  /// Full-anchor deltas for every held device in `devices` (devices with
  /// no rows are skipped). Used to serve catch-up snapshots.
  [[nodiscard]] std::vector<dvm::DigestDelta> full_for(
      const std::vector<std::uint32_t>& devices) const;

  [[nodiscard]] const std::vector<std::string>* rows_for(
      std::uint32_t device) const;

  /// Sorted union over all devices — the whole-network canonical digest.
  [[nodiscard]] std::vector<std::string> rows_sorted() const;

  /// Devices currently holding at least one row (ascending).
  [[nodiscard]] std::vector<std::uint32_t> devices() const;

  [[nodiscard]] std::size_t device_count() const { return rows_.size(); }
  [[nodiscard]] std::size_t row_count() const;
  void clear() { rows_.clear(); }

 private:
  std::map<std::uint32_t, std::vector<std::string>> rows_;  // each sorted
};

/// The sender side: the delta that turns `baseline` into `now` (both must
/// be sorted). An empty baseline yields a full anchor — a delta would be no
/// smaller, and the receiver may hold stale rows for the device (a reborn
/// rank without a snapshot) that the anchor must replace.
[[nodiscard]] dvm::DigestDelta diff_rows(std::uint32_t device,
                                         const std::vector<std::string>& baseline,
                                         const std::vector<std::string>& now);

}  // namespace tulkun::coord
