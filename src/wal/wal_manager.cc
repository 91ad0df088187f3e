#include "wal/wal_manager.h"

namespace starfish {

Result<std::unique_ptr<WalManager>> WalManager::Open(
    std::unique_ptr<LogFile> file, const WalScan& scan,
    uint64_t rebuild_base_lsn, uint64_t rebuild_generation,
    WalManagerOptions options) {
  auto wal =
      std::unique_ptr<WalManager>(new WalManager(std::move(file), options));
  if (scan.found && scan.header_valid) {
    if (scan.torn_tail) {
      // Durably cut the garbage off: appends must follow validated bytes,
      // or the next scan would stop at the old tear forever.
      std::string prefix = EncodeWalHeader(scan.base_lsn);
      for (const WalRecord& r : scan.records) {
        AppendWalRecord(&prefix, r.kind, r.flags, r.lsn, r.payload);
      }
      STARFISH_RETURN_NOT_OK(wal->file_->Replace(prefix));
      wal->durable_lsn_ = scan.next_lsn - 1;
    } else {
      // The records were read back, but the previous process may never have
      // fsynced them: durable only from the base, until the first sync
      // covers the whole file.
      wal->durable_lsn_ = scan.base_lsn == 0 ? 0 : scan.base_lsn - 1;
    }
    wal->next_lsn_ = scan.next_lsn;
  } else {
    // Missing or header-corrupt log: rebuild fresh. The tail (if any ever
    // existed) is gone — the caller recovers by scrubbing to the committed
    // catalog before trusting this.
    std::string fresh = EncodeWalHeader(rebuild_base_lsn);
    uint64_t next = rebuild_base_lsn;
    if (rebuild_generation > 0) {
      AppendWalRecord(&fresh, WalRecordKind::kCheckpoint, 0, rebuild_base_lsn,
                      EncodeWalCheckpointPayload(rebuild_generation));
      next = rebuild_base_lsn + 1;
    }
    STARFISH_RETURN_NOT_OK(wal->file_->Replace(fresh));
    wal->next_lsn_ = next;
    wal->durable_lsn_ = next - 1;
  }
  return {std::move(wal)};
}

uint64_t WalManager::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

uint64_t WalManager::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

Status WalManager::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poison_;
}

void WalManager::SetCheckpointPageCount(uint64_t page_count) {
  std::lock_guard<std::mutex> lock(mu_);
  checkpoint_page_count_ = page_count;
}

bool WalManager::NeedsPreimage(PageId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return id < checkpoint_page_count_ && imaged_pages_.count(id) == 0;
}

void WalManager::PoisonLocked(const Status& s) {
  if (poison_.ok()) poison_ = s;
}

void WalManager::SpillLocked() {
  const Status s = file_->Append(pending_);
  if (!s.ok()) {
    PoisonLocked(s);
    return;
  }
  pending_.clear();
}

Result<uint64_t> WalManager::AppendOp(WalRecordKind kind, uint8_t flags,
                                      const WalOpPayload& op) {
  // Encode outside mu_: the payload copy (pre-images + body) is the bulk of
  // the work, and writers on disjoint latch sets reach here concurrently.
  const std::string payload = EncodeWalOpPayload(op);
  std::lock_guard<std::mutex> lock(mu_);
  if (!poison_.ok()) return poison_;
  const uint64_t lsn = next_lsn_++;
  AppendWalRecord(&pending_, kind, flags, lsn, payload);
  for (const auto& [id, image] : op.preimages) {
    (void)image;
    imaged_pages_.insert(id);
  }
  // Bound memory between checkpoints: overflow goes to the file un-synced
  // (durable_lsn_ does not move; the next epoch's fsync covers it). Skipped
  // while a leader holds the file — appends must stay ordered.
  if (pending_.size() >= kWalSpillBytes && !leader_active_) {
    SpillLocked();
    if (!poison_.ok()) return poison_;
  }
  return lsn;
}

Result<uint64_t> WalManager::AppendTxnMarker(WalRecordKind kind,
                                             uint64_t txn_id) {
  const std::string payload = EncodeWalTxnPayload(txn_id);
  std::lock_guard<std::mutex> lock(mu_);
  if (!poison_.ok()) return poison_;
  const uint64_t lsn = next_lsn_++;
  AppendWalRecord(&pending_, kind, 0, lsn, payload);
  if (pending_.size() >= kWalSpillBytes && !leader_active_) {
    SpillLocked();
    if (!poison_.ok()) return poison_;
  }
  return lsn;
}

Status WalManager::Commit(uint64_t lsn) {
  if (options_.sync == WalSyncPolicy::kNone) return Status::OK();
  return EnsureDurable(lsn);
}

Status WalManager::EnsureDurable(uint64_t lsn) {
  if (lsn == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!poison_.ok()) return poison_;
    if (durable_lsn_ >= lsn) return Status::OK();
    if (!leader_active_) break;
    cv_.wait(lock);  // follower: the leader's epoch may cover us
  }

  // This thread leads the epoch: writers arriving while it syncs queue
  // behind it and join the next one.
  leader_active_ = true;
  std::string batch = std::move(pending_);
  pending_.clear();
  const uint64_t target = next_lsn_ - 1;
  lock.unlock();

  Status s = Status::OK();
  if (!batch.empty()) s = file_->Append(batch);
  if (s.ok()) s = file_->Sync();  // also covers earlier spilled bytes

  lock.lock();
  leader_active_ = false;
  if (!s.ok()) {
    PoisonLocked(s);
    cv_.notify_all();
    return poison_;
  }
  if (target > durable_lsn_) durable_lsn_ = target;
  cv_.notify_all();
  // The caller's record predates this epoch's snapshot, so target >= lsn.
  return Status::OK();
}

Status WalManager::SyncAll() {
  uint64_t target = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!poison_.ok()) return poison_;
    target = next_lsn_ - 1;
  }
  return EnsureDurable(target);
}

Status WalManager::TruncateAt(uint64_t checkpoint_lsn, uint64_t generation,
                              uint64_t page_count) {
  std::unique_lock<std::mutex> lock(mu_);
  // Quiesce: a late committer may still be leading an (empty) epoch.
  cv_.wait(lock, [&] { return !leader_active_; });
  if (!poison_.ok()) return poison_;
  std::string fresh = EncodeWalHeader(checkpoint_lsn);
  AppendWalRecord(&fresh, WalRecordKind::kCheckpoint, 0, checkpoint_lsn,
                  EncodeWalCheckpointPayload(generation));
  const Status s = file_->Replace(fresh);
  if (!s.ok()) {
    PoisonLocked(s);
    cv_.notify_all();
    return poison_;
  }
  next_lsn_ = checkpoint_lsn + 1;
  durable_lsn_ = checkpoint_lsn;
  pending_.clear();
  imaged_pages_.clear();
  checkpoint_page_count_ = page_count;
  cv_.notify_all();
  return Status::OK();
}

}  // namespace starfish
