#include "service/dispatcher.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>

#include "core/result_io.hpp"
#include "util/error.hpp"

namespace qufi::service {

namespace {

/// Manifests are persisted beside the attempt files when journaling, so
/// recovery can rebuild the shard set without re-planning (replay, not
/// re-planning, is the recovery contract).
std::string manifest_path(const std::string& campaign_dir,
                          std::uint32_t shard_index) {
  char file[32];
  std::snprintf(file, sizeof file, "shard_%03u.manifest", shard_index);
  return (std::filesystem::path(campaign_dir) / file).string();
}

/// The completion probe: a file counts iff it parses as a sealed partial
/// whose every block checksums clean. Shared verbatim between complete()
/// and recovery's re-adoption pass — "exactly as complete() does today" is
/// the recovery contract, so it is literally the same code.
bool probe_sealed_clean(const std::string& path, std::string* why) {
  try {
    resio::ResultReader probe(path, resio::ReadMode::Sealed);
    for (std::size_t i = 0; i < probe.num_blocks(); ++i) {
      (void)probe.read_block(i);
    }
    return true;
  } catch (const Error& e) {
    if (why != nullptr) *why = e.what();
    return false;
  }
}

/// Where a campaign's final merge writes before the dispatcher, holding
/// its lock again, renames the file to the campaign's csv_path: a CSV at
/// csv_path always belongs to a Completed campaign, even when a divergent
/// duplicate fails the campaign while its merge runs.
std::string staged_csv_path(const std::string& csv_path) {
  return csv_path + ".merging";
}

/// The final merge of a campaign's accepted partials into its staged CSV.
/// Touches no dispatcher state, so it runs without the lock. Returns the
/// failure, empty on success.
std::string merge_staged_csv(const std::vector<std::string>& inputs,
                             const std::string& csv_path,
                             util::ThreadPool* pool) {
  try {
    dist::merge_result_files_to_csv(inputs, staged_csv_path(csv_path), {},
                                    pool);
    return {};
  } catch (const std::exception& e) {
    return e.what();
  }
}

}  // namespace

struct Dispatcher::Shard {
  std::uint32_t index = 0;
  dist::ShardManifest manifest;
  ShardState state = ShardState::Pending;
  std::uint32_t attempts = 0;
  std::uint32_t quarantined = 0;
  std::uint64_t lease_id = 0;  ///< active lease when state == Leased
  std::string accepted_path;
  std::string last_failure;
  /// Outputs of every attempt, minus quarantined ones — the progress()
  /// input set. Attempt-unique paths mean entries are only ever appended
  /// (or removed on quarantine), never rewritten.
  std::vector<std::string> attempt_paths;
};

struct Dispatcher::Campaign {
  std::string name;
  int priority = 0;
  CampaignState state = CampaignState::Queued;
  std::string csv_path;
  std::string dir;
  std::string error;
  std::uint32_t requeues = 0;
  std::vector<Shard> shards;
};

struct Dispatcher::ActiveLease {
  std::string campaign;
  std::uint32_t shard_index = 0;
  std::string output_path;
  std::string worker_id;
  std::int64_t last_beat_ms = 0;
};

Dispatcher::Dispatcher(DispatcherOptions options, Clock& clock)
    : options_(std::move(options)), clock_(clock) {
  require(options_.lease_timeout_ms > 0,
          "Dispatcher: lease_timeout_ms must be positive");
  require(options_.max_retries >= 0,
          "Dispatcher: max_retries must be non-negative");
  if (!options_.journal_path.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    init_journal_locked();
  }
}

Dispatcher::~Dispatcher() = default;

// ---- journal plumbing -------------------------------------------------------

void Dispatcher::init_journal_locked() {
  namespace fs = std::filesystem;
  const std::string& path = options_.journal_path;
  std::error_code ec;
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) fs::create_directories(parent, ec);
  const bool has_bytes = fs::exists(path, ec) && fs::file_size(path, ec) > 0;
  if (!has_bytes) {
    journal_ = std::make_unique<JournalWriter>(path, 1, 0);
    journal_->sync();
    return;
  }
  // Recovery: replay the acknowledged prefix, resume the journal on a clean
  // line boundary, then reconcile the replayed state with the files on
  // disk. Corruption throws out of the constructor with the offset — a
  // dispatcher never starts on a journal it cannot fully account for.
  const JournalReadResult log = read_journal(path);
  recovery_.recovered = !log.events.empty();
  recovery_.journal_truncated = log.truncated_tail;
  recovery_.events_replayed = log.events.size();
  replay_journal_locked(log.events);
  journal_ = std::make_unique<JournalWriter>(path, log.last_seq + 1,
                                             log.valid_bytes == 0
                                                 ? 0
                                                 : log.valid_bytes);
  adopt_disk_state_locked();
  journal_sync_locked();
}

void Dispatcher::replay_journal_locked(
    const std::vector<JournalEvent>& events) {
  namespace fs = std::filesystem;
  const auto shard_of = [&](const JournalEvent& event) -> Shard& {
    Campaign* campaign = find_campaign_locked(event.campaign);
    require(campaign != nullptr,
            "journal " + options_.journal_path + ": record " +
                std::to_string(event.seq) +
                " references unknown campaign: " + event.campaign);
    require(event.shard_index < campaign->shards.size(),
            "journal " + options_.journal_path + ": record " +
                std::to_string(event.seq) + " references shard " +
                std::to_string(event.shard_index) + " beyond campaign " +
                event.campaign);
    return campaign->shards[event.shard_index];
  };

  for (const JournalEvent& event : events) {
    switch (event.type) {
      case JournalEventType::Submit: {
        require(find_campaign_locked(event.campaign) == nullptr,
                "journal " + options_.journal_path +
                    ": duplicate submit for campaign: " + event.campaign);
        auto campaign = std::make_unique<Campaign>();
        campaign->name = event.campaign;
        campaign->priority = event.priority;
        campaign->csv_path = event.path;
        campaign->dir =
            (fs::path(options_.work_dir) / event.campaign).string();
        campaign->shards.reserve(event.shard_count);
        for (std::uint32_t i = 0; i < event.shard_count; ++i) {
          Shard shard;
          shard.index = i;
          // Manifests were persisted before the submit record was
          // acknowledged; a missing file means the work dir was tampered
          // with, which recovery must refuse rather than re-plan around.
          shard.manifest =
              dist::load_manifest(manifest_path(campaign->dir, i));
          campaign->shards.push_back(std::move(shard));
        }
        campaigns_.push_back(std::move(campaign));
        ++recovery_.campaigns_restored;
        break;
      }
      case JournalEventType::Acquire: {
        Shard& shard = shard_of(event);
        Campaign& campaign = *find_campaign_locked(event.campaign);
        shard.attempts = std::max(shard.attempts, event.attempt);
        shard.state = ShardState::Leased;
        shard.lease_id = event.lease_id;
        shard.attempt_paths.push_back(event.path);
        active_[event.lease_id] =
            ActiveLease{event.campaign, event.shard_index, event.path,
                        "recovered", event.at_ms};
        next_lease_id_ = std::max(next_lease_id_, event.lease_id + 1);
        campaign.state = CampaignState::Running;
        break;
      }
      case JournalEventType::HeartbeatBatch: {
        for (const auto& [lease, at] : event.beats) {
          if (auto it = active_.find(lease); it != active_.end()) {
            it->second.last_beat_ms = at;
          }
        }
        break;
      }
      case JournalEventType::Requeue: {
        Shard& shard = shard_of(event);
        Campaign& campaign = *find_campaign_locked(event.campaign);
        if (shard.state == ShardState::Leased) {
          retire_lease_locked(shard.lease_id);
          shard.lease_id = 0;
          shard.state = ShardState::Pending;
        }
        shard.last_failure = event.detail;
        ++campaign.requeues;
        break;
      }
      case JournalEventType::Quarantine: {
        Shard& shard = shard_of(event);
        ++shard.quarantined;
        auto& paths = shard.attempt_paths;
        paths.erase(std::remove(paths.begin(), paths.end(), event.path),
                    paths.end());
        break;
      }
      case JournalEventType::Complete: {
        Shard& shard = shard_of(event);
        retire_lease_locked(event.lease_id);
        if (shard.lease_id == event.lease_id) shard.lease_id = 0;
        shard.state = ShardState::Done;
        shard.accepted_path = event.path;
        break;
      }
      case JournalEventType::FailUnknown:
        break;  // post-mortem breadcrumb only, no state
      case JournalEventType::CampaignTerminal: {
        Campaign* campaign = find_campaign_locked(event.campaign);
        require(campaign != nullptr,
                "journal " + options_.journal_path +
                    ": terminal record for unknown campaign: " +
                    event.campaign);
        if (event.detail.rfind("failed", 0) == 0) {
          campaign->state = CampaignState::Failed;
          campaign->error = event.detail.size() > 7 ? event.detail.substr(7)
                                                    : std::string();
        } else {
          campaign->state = CampaignState::Completed;
        }
        prune_retired_locked(campaign->name);
        break;
      }
    }
  }
}

void Dispatcher::adopt_disk_state_locked() {
  namespace fs = std::filesystem;
  for (const auto& campaign_ptr : campaigns_) {
    Campaign& campaign = *campaign_ptr;
    if (campaign.state == CampaignState::Failed) continue;
    if (campaign.state == CampaignState::Completed) {
      // The CSV write and the terminal record are one accept point, but a
      // crash can still land between rename and append in the other order
      // across restarts of restarts — re-merging from the accepted partials
      // is idempotent, so a missing final CSV is simply re-finalized.
      std::error_code ec;
      if (!fs::exists(campaign.csv_path, ec)) finalize_locked(campaign);
      continue;
    }
    for (Shard& shard : campaign.shards) {
      if (campaign.state == CampaignState::Failed) break;
      if (shard.state == ShardState::Leased) {
        // The lease's worker died with the daemon. Its attempt file decides:
        // sealed + checksum-clean is a finished shard the crash merely
        // prevented from being reported — adopt it; anything else is the
        // torn artifact of a mid-write kill — quarantine and requeue.
        const std::uint64_t lease_id = shard.lease_id;
        std::string output;
        if (auto it = active_.find(lease_id); it != active_.end()) {
          output = it->second.output_path;
        }
        retire_lease_locked(lease_id);
        shard.lease_id = 0;
        std::string why;
        if (!output.empty() && probe_sealed_clean(output, &why)) {
          ++recovery_.shards_adopted;
          journal_append_locked([&] {
            JournalEvent event;
            event.type = JournalEventType::Complete;
            event.lease_id = lease_id;
            event.campaign = campaign.name;
            event.shard_index = shard.index;
            event.path = output;
            return event;
          }());
          accept_completion_locked(campaign, shard, output);
        } else {
          if (!output.empty()) {
            quarantine_locked(campaign, shard, output);
            ++recovery_.files_quarantined;
          }
          shard.state = ShardState::Pending;
          ++recovery_.shards_requeued;
          requeue_locked(campaign, shard,
                         "attempt not adopted at recovery: " +
                             (why.empty() ? "no attempt file" : why));
        }
      } else if (shard.state == ShardState::Done) {
        // Done shards are re-verified by checksum exactly as complete()
        // verified them the first time: bit rot between crash and restart
        // costs one retry, never a corrupt final merge.
        std::string why;
        if (!probe_sealed_clean(shard.accepted_path, &why)) {
          const std::string bad = shard.accepted_path;
          shard.accepted_path.clear();
          shard.state = ShardState::Pending;
          quarantine_locked(campaign, shard, bad);
          ++recovery_.files_quarantined;
          ++recovery_.shards_requeued;
          requeue_locked(campaign, shard,
                         "accepted partial failed re-verification at "
                         "recovery: " + why);
        }
      }
    }
    // Every shard Done but no terminal record (a crash between the last
    // complete record and the terminal one, or the last shard adopted
    // above): merge now.
    if ((campaign.state == CampaignState::Running ||
         campaign.state == CampaignState::Queued) &&
        !campaign.shards.empty() &&
        std::all_of(campaign.shards.begin(), campaign.shards.end(),
                    [](const Shard& s) {
                      return s.state == ShardState::Done;
                    })) {
      finalize_locked(campaign);
    }
  }
}

void Dispatcher::journal_append_locked(JournalEvent event) {
  if (!journal_) return;
  if (event.type != JournalEventType::HeartbeatBatch) flush_beats_locked();
  event.at_ms = clock_.now_ms();
  journal_->append(std::move(event));
}

void Dispatcher::flush_beats_locked() {
  if (!journal_ || dirty_beats_.empty()) return;
  JournalEvent event;
  event.type = JournalEventType::HeartbeatBatch;
  event.at_ms = clock_.now_ms();
  event.beats.assign(dirty_beats_.begin(), dirty_beats_.end());
  dirty_beats_.clear();
  journal_->append(std::move(event));
}

void Dispatcher::journal_sync_locked() {
  if (!journal_) return;
  journal_->sync();
}

// ---- submission -------------------------------------------------------------

void check_campaign_name(const std::string& name) {
  require(!name.empty(), "campaign name is empty");
  require(name.find('/') == std::string::npos &&
              name.find('\\') == std::string::npos,
          "campaign name must not contain path separators: " + name);
  require(name != "." && name != "..",
          "campaign name must not be a relative directory: " + name);
}

void Dispatcher::submit(CampaignJob job) {
  check_campaign_name(job.name);
  require(!job.manifests.empty(),
          "Dispatcher::submit: campaign has no shards: " + job.name);
  require(!job.csv_path.empty(),
          "Dispatcher::submit: campaign has no csv_path: " + job.name);

  std::lock_guard<std::mutex> lock(mutex_);
  require(find_campaign_locked(job.name) == nullptr,
          "Dispatcher::submit: duplicate campaign name: " + job.name);

  auto campaign = std::make_unique<Campaign>();
  campaign->name = job.name;
  campaign->priority = job.priority;
  campaign->csv_path = job.csv_path;
  campaign->dir =
      (std::filesystem::path(options_.work_dir) / job.name).string();
  std::filesystem::create_directories(campaign->dir);
  campaign->shards.reserve(job.manifests.size());
  for (std::size_t i = 0; i < job.manifests.size(); ++i) {
    require(job.manifests[i].shard_index == i,
            "Dispatcher::submit: manifests must arrive in shard-index "
            "order (campaign " + job.name + ")");
    Shard shard;
    shard.index = static_cast<std::uint32_t>(i);
    shard.manifest = std::move(job.manifests[i]);
    campaign->shards.push_back(std::move(shard));
  }
  if (journal_) {
    // Manifests hit disk before the submit record: a submit the journal
    // acknowledges is always replayable.
    for (const Shard& shard : campaign->shards) {
      dist::save_manifest(shard.manifest,
                          manifest_path(campaign->dir, shard.index));
    }
    JournalEvent event;
    event.type = JournalEventType::Submit;
    event.campaign = campaign->name;
    event.priority = campaign->priority;
    event.shard_count = static_cast<std::uint32_t>(campaign->shards.size());
    event.path = campaign->csv_path;
    journal_append_locked(std::move(event));
    journal_sync_locked();
  }
  campaigns_.push_back(std::move(campaign));
}

std::optional<ShardLease> Dispatcher::acquire(const std::string& worker_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  expire_leases_locked();

  // Highest priority wins; submission order breaks ties (strict > keeps the
  // earlier campaign when priorities match).
  Campaign* best = nullptr;
  for (const auto& campaign : campaigns_) {
    if (campaign->state != CampaignState::Queued &&
        campaign->state != CampaignState::Running) {
      continue;
    }
    const bool has_pending =
        std::any_of(campaign->shards.begin(), campaign->shards.end(),
                    [](const Shard& s) {
                      return s.state == ShardState::Pending;
                    });
    if (!has_pending) continue;
    if (best == nullptr || campaign->priority > best->priority) {
      best = campaign.get();
    }
  }
  if (best == nullptr) {
    journal_sync_locked();  // expiry requeues above still need durability
    return std::nullopt;
  }

  Shard* shard = nullptr;
  for (Shard& s : best->shards) {
    if (s.state == ShardState::Pending) {
      shard = &s;
      break;
    }
  }

  ++shard->attempts;
  shard->state = ShardState::Leased;
  const std::uint64_t id = next_lease_id_++;
  shard->lease_id = id;
  char file[64];
  std::snprintf(file, sizeof file, "shard_%03u.attempt%u.qp", shard->index,
                shard->attempts);
  const std::string output =
      (std::filesystem::path(best->dir) / file).string();
  shard->attempt_paths.push_back(output);
  active_[id] = ActiveLease{best->name, shard->index, output, worker_id,
                            clock_.now_ms()};
  best->state = CampaignState::Running;

  {
    JournalEvent event;
    event.type = JournalEventType::Acquire;
    event.lease_id = id;
    event.campaign = best->name;
    event.shard_index = shard->index;
    event.attempt = shard->attempts;
    event.path = output;
    journal_append_locked(std::move(event));
    journal_sync_locked();  // the lease id is an acknowledgment
  }

  ShardLease lease;
  lease.id = id;
  lease.campaign = best->name;
  lease.shard_index = shard->index;
  lease.attempt = shard->attempts;
  lease.manifest = shard->manifest;
  lease.output_path = output;
  return lease;
}

bool Dispatcher::heartbeat(std::uint64_t lease_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = active_.find(lease_id);
  if (it == active_.end()) return false;
  it->second.last_beat_ms = clock_.now_ms();
  // Coalesced into one heartbeat-batch record ahead of the next journaled
  // transition (or tick) — heartbeats are the one transition that must not
  // cost an fsync each.
  if (journal_) dirty_beats_[lease_id] = it->second.last_beat_ms;
  return true;
}

void Dispatcher::complete(std::uint64_t lease_id, util::ThreadPool* pool) {
  std::unique_lock<std::mutex> lock(mutex_);
  std::string campaign_name;
  std::uint32_t shard_index = 0;
  std::string output;
  if (auto it = active_.find(lease_id); it != active_.end()) {
    campaign_name = it->second.campaign;
    shard_index = it->second.shard_index;
    output = it->second.output_path;
    retire_lease_locked(lease_id);
  } else if (auto rt = retired_.find(lease_id); rt != retired_.end()) {
    // A presumed-dead worker reporting late: its lease was expired and the
    // shard possibly re-run, but its output is still attempt-unique data —
    // verify it like any other completion.
    campaign_name = rt->second.campaign;
    shard_index = rt->second.shard_index;
    output = rt->second.output_path;
  } else {
    return;  // never issued by this dispatcher, or campaign already terminal
  }

  Campaign* campaign = find_campaign_locked(campaign_name);
  if (campaign == nullptr || campaign->state == CampaignState::Failed) return;
  Shard& shard = campaign->shards[shard_index];
  const bool was_this_lease = shard.lease_id == lease_id;
  if (was_this_lease) shard.lease_id = 0;

  // A completion only counts if the file parses as a sealed partial whose
  // every block checksums clean: a worker that died between its last block
  // flush and finish() leaves an unsealed file, and a flipped bit leaves a
  // checksum mismatch. Constructing the reader validates the header, block
  // index and end marker; the read_block pass validates the block bodies —
  // without it, body corruption would sail through to the final merge and
  // fail the whole campaign instead of costing one retry.
  std::string invalid_reason;
  (void)probe_sealed_clean(output, &invalid_reason);

  if (!invalid_reason.empty()) {
    quarantine_locked(*campaign, shard, output);
    if (shard.state == ShardState::Leased && was_this_lease) {
      shard.state = ShardState::Pending;  // requeue_locked expects no lease
      requeue_locked(*campaign, shard, "corrupt partial: " + invalid_reason);
    }
    journal_sync_locked();
    // Done (another attempt already accepted) or re-leased/pending (a stale
    // late completion): the quarantine alone is the whole response.
    return;
  }

  if (shard.state == ShardState::Done) {
    // Duplicate completion: legal only as a bit-exact reproduction of the
    // accepted partial — shards are deterministic, so divergence means a
    // broken worker, and merging either file would be a guess.
    bool same = false;
    std::string why;
    try {
      same = dist::result_files_equivalent(shard.accepted_path, output);
    } catch (const Error& e) {
      why = e.what();
    }
    if (!same) {
      fail_campaign_locked(
          *campaign,
          "campaign '" + campaign->name + "': shard " +
              std::to_string(shard.index) +
              ": duplicate completion diverges from the accepted partial (" +
              (why.empty() ? output + " vs " + shard.accepted_path : why) +
              "); workers must be deterministic");
      journal_sync_locked();
    }
    return;
  }

  {
    JournalEvent event;
    event.type = JournalEventType::Complete;
    event.lease_id = lease_id;
    event.campaign = campaign->name;
    event.shard_index = shard.index;
    event.path = output;
    journal_append_locked(std::move(event));
  }
  const bool last = accept_completion_locked(*campaign, shard, output);
  journal_sync_locked();  // the completion is acknowledged from here on
  if (!last) return;

  // The final merge runs unlocked: it reads only the accepted partials,
  // which nothing changes once Done, and writes only the staged CSV. The
  // campaign stays Running meanwhile, so idle() stays false; the Campaign
  // object outlives the unlock (campaigns are never erased).
  const std::vector<std::string> inputs = accepted_paths_locked(*campaign);
  const std::string csv_path = campaign->csv_path;
  lock.unlock();
  std::string error = merge_staged_csv(inputs, csv_path, pool);
  lock.lock();
  seal_final_merge_locked(*campaign, std::move(error));
  journal_sync_locked();
}

bool Dispatcher::fail(std::uint64_t lease_id, const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = active_.find(lease_id);
  if (it == active_.end()) {
    // Distinguish "lease retired normally, report changed nothing" from a
    // lease id the in-memory maps have never heard of (a caller bug, or a
    // lease pruned with its terminal campaign): the latter is worth a
    // post-mortem breadcrumb in the journal.
    if (retired_.find(lease_id) == retired_.end()) {
      JournalEvent event;
      event.type = JournalEventType::FailUnknown;
      event.lease_id = lease_id;
      event.detail = reason;
      journal_append_locked(std::move(event));
      journal_sync_locked();
    }
    return false;
  }
  const std::string campaign_name = it->second.campaign;
  const std::uint32_t shard_index = it->second.shard_index;
  retire_lease_locked(lease_id);
  Campaign* campaign = find_campaign_locked(campaign_name);
  if (campaign == nullptr || campaign->state == CampaignState::Completed ||
      campaign->state == CampaignState::Failed) {
    return true;
  }
  Shard& shard = campaign->shards[shard_index];
  if (shard.state != ShardState::Leased || shard.lease_id != lease_id) {
    return true;
  }
  shard.lease_id = 0;
  shard.state = ShardState::Pending;
  requeue_locked(*campaign, shard, "worker failure: " + reason);
  journal_sync_locked();
  return true;
}

std::size_t Dispatcher::tick() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t expired = expire_leases_locked();
  // Persist coalesced heartbeats at the tick cadence so a recovered journal
  // carries recent liveness even across quiet stretches.
  flush_beats_locked();
  journal_sync_locked();
  return expired;
}

std::size_t Dispatcher::expire_leases_locked() {
  const std::int64_t now = clock_.now_ms();
  std::vector<std::uint64_t> expired;
  for (const auto& [id, lease] : active_) {
    if (now - lease.last_beat_ms > options_.lease_timeout_ms) {
      expired.push_back(id);
    }
  }
  for (const std::uint64_t id : expired) {
    const ActiveLease lease = active_.at(id);
    retire_lease_locked(id);
    Campaign* campaign = find_campaign_locked(lease.campaign);
    if (campaign == nullptr ||
        campaign->state == CampaignState::Completed ||
        campaign->state == CampaignState::Failed) {
      continue;
    }
    Shard& shard = campaign->shards[lease.shard_index];
    if (shard.state != ShardState::Leased || shard.lease_id != id) continue;
    shard.lease_id = 0;
    shard.state = ShardState::Pending;
    requeue_locked(*campaign, shard,
                   "lease expired after " +
                       std::to_string(options_.lease_timeout_ms) +
                       " ms without a heartbeat");
  }
  return expired.size();
}

void Dispatcher::retire_lease_locked(std::uint64_t lease_id) {
  auto it = active_.find(lease_id);
  if (it == active_.end()) return;
  // Leases of terminal campaigns are dropped outright: late completions for
  // them change nothing, and remembering them forever is the leak the
  // retired-map prune exists to stop (the journal keeps the forensic
  // record).
  const Campaign* campaign = find_campaign_locked(it->second.campaign);
  if (campaign != nullptr && campaign->state != CampaignState::Completed &&
      campaign->state != CampaignState::Failed) {
    retired_[lease_id] = RetiredLease{it->second.campaign,
                                      it->second.shard_index,
                                      it->second.output_path};
  }
  active_.erase(it);
}

void Dispatcher::prune_retired_locked(const std::string& campaign_name) {
  for (auto it = retired_.begin(); it != retired_.end();) {
    if (it->second.campaign == campaign_name) {
      it = retired_.erase(it);
    } else {
      ++it;
    }
  }
}

void Dispatcher::quarantine_locked(Campaign& campaign, Shard& shard,
                                   const std::string& output_path) {
  const std::string quarantined = output_path + ".quarantined";
  if (std::rename(output_path.c_str(), quarantined.c_str()) == 0) {
    ++shard.quarantined;
  }
  auto& paths = shard.attempt_paths;
  paths.erase(std::remove(paths.begin(), paths.end(), output_path),
              paths.end());
  JournalEvent event;
  event.type = JournalEventType::Quarantine;
  event.campaign = campaign.name;
  event.shard_index = shard.index;
  event.path = output_path;
  journal_append_locked(std::move(event));
}

void Dispatcher::requeue_locked(Campaign& campaign, Shard& shard,
                                const std::string& why) {
  ++campaign.requeues;
  shard.last_failure = why;
  {
    JournalEvent event;
    event.type = JournalEventType::Requeue;
    event.campaign = campaign.name;
    event.shard_index = shard.index;
    event.attempt = shard.attempts;
    event.detail = why;
    journal_append_locked(std::move(event));
  }
  const std::uint32_t max_attempts =
      static_cast<std::uint32_t>(options_.max_retries) + 1;
  if (shard.attempts >= max_attempts) {
    fail_campaign_locked(
        campaign,
        "campaign '" + campaign.name + "': shard " +
            std::to_string(shard.index) +
            " exhausted its retry budget (" + std::to_string(shard.attempts) +
            " of " + std::to_string(max_attempts) +
            " attempts; last failure: " + why + ")");
  }
  // Otherwise the shard is already Pending and the next acquire re-leases
  // it — attempt-unique output paths make the old attempt's file inert.
}

void Dispatcher::fail_campaign_locked(Campaign& campaign,
                                      const std::string& error) {
  campaign.state = CampaignState::Failed;
  campaign.error = error;
  {
    JournalEvent event;
    event.type = JournalEventType::CampaignTerminal;
    event.campaign = campaign.name;
    event.detail = "failed " + error;
    journal_append_locked(std::move(event));
  }
  // Active leases of this campaign are left to finish or expire; their
  // completions are ignored (the campaign is terminal either way). Retired
  // leases are pruned — late duplicates for a terminal campaign change
  // nothing, and the journal keeps them reconstructible for post-mortem.
  prune_retired_locked(campaign.name);
  terminal_.notify_all();
}

bool Dispatcher::accept_completion_locked(Campaign& campaign, Shard& shard,
                                          const std::string& output_path) {
  shard.state = ShardState::Done;
  shard.accepted_path = output_path;
  return std::all_of(
      campaign.shards.begin(), campaign.shards.end(),
      [](const Shard& s) { return s.state == ShardState::Done; });
}

std::vector<std::string> Dispatcher::accepted_paths_locked(
    const Campaign& campaign) const {
  std::vector<std::string> inputs;
  inputs.reserve(campaign.shards.size());
  for (const Shard& shard : campaign.shards) {
    inputs.push_back(shard.accepted_path);
  }
  return inputs;
}

void Dispatcher::seal_final_merge_locked(Campaign& campaign,
                                         std::string merge_error) {
  const std::string staged = staged_csv_path(campaign.csv_path);
  if (campaign.state == CampaignState::Failed) {
    // A divergent duplicate failed the campaign while its merge ran.
    std::remove(staged.c_str());
    return;
  }
  if (merge_error.empty() &&
      std::rename(staged.c_str(), campaign.csv_path.c_str()) != 0) {
    merge_error = "cannot rename " + staged + " into place";
  }
  if (!merge_error.empty()) {
    std::remove(staged.c_str());
    fail_campaign_locked(campaign, "campaign '" + campaign.name +
                                       "': final merge failed: " +
                                       merge_error);
    return;
  }
  campaign.state = CampaignState::Completed;
  JournalEvent event;
  event.type = JournalEventType::CampaignTerminal;
  event.campaign = campaign.name;
  event.detail = "completed";
  journal_append_locked(std::move(event));
  prune_retired_locked(campaign.name);
  terminal_.notify_all();
}

void Dispatcher::finalize_locked(Campaign& campaign) {
  // Recovery only: the constructor has not returned, so no other call can
  // wait on the lock while this merge holds it.
  seal_final_merge_locked(
      campaign, merge_staged_csv(accepted_paths_locked(campaign),
                                 campaign.csv_path, nullptr));
}

Dispatcher::Campaign* Dispatcher::find_campaign_locked(
    const std::string& name) {
  for (const auto& campaign : campaigns_) {
    if (campaign->name == name) return campaign.get();
  }
  return nullptr;
}

const Dispatcher::Campaign* Dispatcher::find_campaign_locked(
    const std::string& name) const {
  for (const auto& campaign : campaigns_) {
    if (campaign->name == name) return campaign.get();
  }
  return nullptr;
}

CampaignStatusView Dispatcher::status_locked(const Campaign& campaign) const {
  CampaignStatusView view;
  view.name = campaign.name;
  view.state = campaign.state;
  view.priority = campaign.priority;
  view.csv_path = campaign.csv_path;
  view.error = campaign.error;
  view.shards_total = campaign.shards.size();
  view.requeues = campaign.requeues;
  for (const Shard& shard : campaign.shards) {
    ShardStatusView sv;
    sv.shard_index = shard.index;
    sv.state = shard.state;
    sv.attempts = shard.attempts;
    sv.quarantined = shard.quarantined;
    sv.accepted_path = shard.accepted_path;
    view.shards.push_back(std::move(sv));
    switch (shard.state) {
      case ShardState::Pending: ++view.shards_pending; break;
      case ShardState::Leased: ++view.shards_leased; break;
      case ShardState::Done: ++view.shards_done; break;
    }
  }
  return view;
}

std::vector<CampaignStatusView> Dispatcher::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CampaignStatusView> views;
  views.reserve(campaigns_.size());
  for (const auto& campaign : campaigns_) {
    views.push_back(status_locked(*campaign));
  }
  return views;
}

CampaignStatusView Dispatcher::campaign_status(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Campaign* campaign = find_campaign_locked(name);
  require(campaign != nullptr,
          "Dispatcher: unknown campaign: " + name);
  return status_locked(*campaign);
}

std::size_t Dispatcher::retired_lease_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retired_.size();
}

dist::PrefixMergeResult Dispatcher::progress(const std::string& name) const {
  std::vector<dist::PrefixMergeInput> inputs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const Campaign* campaign = find_campaign_locked(name);
    require(campaign != nullptr, "Dispatcher: unknown campaign: " + name);
    for (const Shard& shard : campaign->shards) {
      for (const std::string& path : shard.attempt_paths) {
        inputs.push_back(
            dist::PrefixMergeInput{path, shard.manifest.point_indices});
      }
    }
  }
  // The merge runs unlocked: attempt files are append-only and unique per
  // lease, so reading them races with nothing the lock protects.
  return dist::merge_result_prefix(inputs);
}

bool Dispatcher::idle_locked() const {
  return std::all_of(campaigns_.begin(), campaigns_.end(),
                     [](const std::unique_ptr<Campaign>& c) {
                       return c->state == CampaignState::Completed ||
                              c->state == CampaignState::Failed;
                     });
}

bool Dispatcher::idle() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return idle_locked();
}

bool Dispatcher::wait_idle_for(std::int64_t timeout_ms) const {
  std::unique_lock<std::mutex> lock(mutex_);
  return terminal_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [this] { return idle_locked(); });
}

}  // namespace qufi::service
