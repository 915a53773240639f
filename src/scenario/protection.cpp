#include "scenario/protection.hpp"

#include <utility>

#include "core/contracts.hpp"
#include "netsim/paths.hpp"

namespace hp::scenario {

void BackupTable::install(PairKey pair, std::vector<BackupRoute> backups) {
  if (const auto it = pairs_.find(pair); it != pairs_.end()) {
    backup_count_ -= it->second.backups.size();
    pairs_.erase(it);
  }
  if (backups.empty()) return;
  for (const BackupRoute& b : backups) {
    // A hitless swap copies these fields straight into the live route
    // table; an empty label list would install an unroutable "backup"
    // that only surfaces packets later, so reject it at install time.
    HP_CHECK(!b.segments.labels.empty(),
             "BackupTable::install: backup route without labels");
    HP_CHECK(!b.path.empty(), "BackupTable::install: backup route "
                              "without a link path");
  }
  backup_count_ += backups.size();
  pairs_.emplace(pair, PairProtection{std::move(backups), kNone});
}

void BackupTable::clear() {
  pairs_.clear();
  backup_count_ = 0;
}

const std::vector<BackupRoute>* BackupTable::backups_for(PairKey pair) const {
  const auto it = pairs_.find(pair);
  return it == pairs_.end() ? nullptr : &it->second.backups;
}

const BackupRoute* BackupTable::activate(PairKey pair,
                                         const std::vector<char>& link_down) {
  const auto it = pairs_.find(pair);
  if (it == pairs_.end()) return nullptr;
  PairProtection& p = it->second;
  for (std::size_t i = 0; i < p.backups.size(); ++i) {
    if (!netsim::path_is_up(p.backups[i].path, link_down)) continue;
    p.active = i;
    HP_DCHECK(p.active < p.backups.size(),
              "BackupTable::activate: active index out of range");
    return &p.backups[i];
  }
  return nullptr;
}

void BackupTable::release(PairKey pair) {
  if (const auto it = pairs_.find(pair); it != pairs_.end()) {
    it->second.active = kNone;
  }
}

std::size_t BackupTable::active_index(PairKey pair) const {
  const auto it = pairs_.find(pair);
  return it == pairs_.end() ? kNone : it->second.active;
}

}  // namespace hp::scenario
