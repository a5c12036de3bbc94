#include "coord/digest_store.hpp"

#include <algorithm>

namespace tulkun::coord {

void DigestStore::apply(const std::vector<dvm::DigestDelta>& deltas) {
  for (const auto& d : deltas) {
    auto& rows = rows_[d.device];
    if (d.full) {
      rows = d.added;
      std::sort(rows.begin(), rows.end());
      if (rows.empty()) rows_.erase(d.device);
      continue;
    }
    // Multiset subtract: one removal consumes one matching row.
    for (const auto& gone : d.removed) {
      const auto it = std::lower_bound(rows.begin(), rows.end(), gone);
      if (it != rows.end() && *it == gone) rows.erase(it);
    }
    for (const auto& add : d.added) {
      rows.insert(std::upper_bound(rows.begin(), rows.end(), add), add);
    }
    if (rows.empty()) rows_.erase(d.device);
  }
}

void DigestStore::replace(std::uint32_t device,
                          std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  if (rows.empty()) {
    rows_.erase(device);
  } else {
    rows_[device] = std::move(rows);
  }
}

std::vector<dvm::DigestDelta> DigestStore::full_for(
    const std::vector<std::uint32_t>& devices) const {
  std::vector<dvm::DigestDelta> out;
  for (const std::uint32_t dev : devices) {
    const auto it = rows_.find(dev);
    if (it == rows_.end()) continue;
    dvm::DigestDelta d;
    d.device = dev;
    d.full = true;
    d.added = it->second;
    out.push_back(std::move(d));
  }
  return out;
}

const std::vector<std::string>* DigestStore::rows_for(
    std::uint32_t device) const {
  const auto it = rows_.find(device);
  return it == rows_.end() ? nullptr : &it->second;
}

std::vector<std::string> DigestStore::rows_sorted() const {
  std::vector<std::string> out;
  out.reserve(row_count());
  for (const auto& [dev, rows] : rows_) {
    out.insert(out.end(), rows.begin(), rows.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint32_t> DigestStore::devices() const {
  std::vector<std::uint32_t> out;
  out.reserve(rows_.size());
  for (const auto& [dev, rows] : rows_) out.push_back(dev);
  return out;
}

std::size_t DigestStore::row_count() const {
  std::size_t n = 0;
  for (const auto& [dev, rows] : rows_) n += rows.size();
  return n;
}

dvm::DigestDelta diff_rows(std::uint32_t device,
                           const std::vector<std::string>& baseline,
                           const std::vector<std::string>& now) {
  dvm::DigestDelta d;
  d.device = device;
  if (baseline.empty()) {
    d.full = true;
    d.added = now;
    return d;
  }
  // Two-pointer multiset difference over the sorted row lists.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < baseline.size() && j < now.size()) {
    if (baseline[i] == now[j]) {
      ++i;
      ++j;
    } else if (baseline[i] < now[j]) {
      d.removed.push_back(baseline[i++]);
    } else {
      d.added.push_back(now[j++]);
    }
  }
  for (; i < baseline.size(); ++i) d.removed.push_back(baseline[i]);
  for (; j < now.size(); ++j) d.added.push_back(now[j]);
  return d;
}

}  // namespace tulkun::coord
