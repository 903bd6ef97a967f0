#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dist/manifest.hpp"
#include "dist/merge.hpp"
#include "service/clock.hpp"
#include "service/journal.hpp"

namespace qufi::service {

/// Dispatcher-wide knobs.
struct DispatcherOptions {
  /// Spool directory for shard partials: every leased attempt streams its
  /// columnar output to `<work_dir>/<campaign>/shard_<i>.attempt<k>.qp`.
  /// Attempt-unique paths are what make requeues race-free: a retry never
  /// truncates a file the incremental merger may be tailing.
  std::string work_dir = ".";
  /// A lease whose last heartbeat is older than this is presumed dead and
  /// requeued on the next tick()/acquire().
  std::int64_t lease_timeout_ms = 30'000;
  /// Re-lease budget per shard after its first attempt: a shard may run at
  /// most `max_retries + 1` times before its campaign fails.
  int max_retries = 2;
  /// Write-ahead journal (QUFIJRNL v1, src/service/journal.hpp). Empty
  /// disables durability: the dispatcher is then in-memory only, as before
  /// PR 10. When set, every transition is journaled (fsync'd at accept
  /// points), shard manifests are persisted beside the attempt files, and
  /// constructing a Dispatcher over an existing journal *recovers*: the
  /// journal is replayed, still-valid attempt files re-adopted, and no
  /// Done shard is ever re-run (docs/DISPATCHER.md "Crash durability").
  std::string journal_path;
};

/// What recovery found when a Dispatcher was constructed over a non-empty
/// journal. All zeros (recovered == false) for a fresh dispatcher.
struct RecoveryReport {
  bool recovered = false;          ///< the journal held acknowledged events
  bool journal_truncated = false;  ///< a torn tail record was dropped
  std::size_t events_replayed = 0;
  std::size_t campaigns_restored = 0;
  /// Leased-at-crash attempts whose file probed sealed + checksum-clean and
  /// was accepted as a completion without re-running the shard.
  std::size_t shards_adopted = 0;
  /// Shards requeued at recovery (torn / missing / corrupt attempt files).
  std::size_t shards_requeued = 0;
  /// Attempt files renamed *.quarantined during recovery.
  std::size_t files_quarantined = 0;
};

/// One campaign as submitted to the dispatcher: a name (unique while the
/// dispatcher lives), a priority, the planned shard manifests, and where
/// the final merged CSV goes.
struct CampaignJob {
  std::string name;
  /// Higher runs first; ties go to the earlier submission. Checked on every
  /// acquire(), so a higher-priority submission preempts the *remaining*
  /// shards of a running campaign (leased shards finish undisturbed).
  int priority = 0;
  std::vector<dist::ShardManifest> manifests;
  /// Final merged campaign CSV, written (temp + rename) when the last
  /// shard's accepted partial lands. Byte-identical to the single-process
  /// campaign's CSV (docs/DISPATCHER.md).
  std::string csv_path;
};

/// Throws qufi::Error unless `name` can name a campaign: it becomes a
/// directory under the work dir, so it must not be empty, hold a path
/// separator (`/` or `\`), or be the relative directory `.` or `..`.
void check_campaign_name(const std::string& name);

enum class ShardState {
  Pending,  ///< waiting for a worker (initial state, and after a requeue)
  Leased,   ///< running under an active lease
  Done,     ///< an accepted sealed partial exists
};

enum class CampaignState {
  Queued,     ///< submitted, no shard leased yet
  Running,    ///< at least one shard leased or done
  Completed,  ///< all shards done, final CSV written
  Failed,     ///< retry budget exhausted, divergent retry, or merge failure
};

/// What a worker holds while it runs one shard attempt.
struct ShardLease {
  std::uint64_t id = 0;  ///< heartbeat/complete/fail key, never reused
  std::string campaign;
  std::uint32_t shard_index = 0;
  std::uint32_t attempt = 1;  ///< 1-based attempt number for this shard
  dist::ShardManifest manifest;
  /// Where this attempt must stream its columnar partial (WriteMode::Live,
  /// so the dispatcher's progress merges can tail it).
  std::string output_path;
};

struct ShardStatusView {
  std::uint32_t shard_index = 0;
  ShardState state = ShardState::Pending;
  std::uint32_t attempts = 0;     ///< leases handed out so far
  std::uint32_t quarantined = 0;  ///< corrupt completions set aside
  std::string accepted_path;      ///< non-empty once Done
};

struct CampaignStatusView {
  std::string name;
  CampaignState state = CampaignState::Queued;
  int priority = 0;
  std::string csv_path;
  std::string error;  ///< diagnosis when state == Failed
  std::size_t shards_total = 0;
  std::size_t shards_done = 0;
  std::size_t shards_leased = 0;
  std::size_t shards_pending = 0;
  std::uint32_t requeues = 0;  ///< expired or failed leases, total
  std::vector<ShardStatusView> shards;
};

/// The campaign dispatcher: a deterministic, clock-driven state machine
/// with no threads of its own. Workers (in-process threads, forked
/// processes, tests) drive it through four calls — acquire / heartbeat /
/// complete / fail — and time only advances through the injected Clock, so
/// every failure scenario in tests/test_dispatcher.cpp is a script, not a
/// sleep. All methods are thread-safe. See docs/DISPATCHER.md for the
/// lease/heartbeat/retry state machine.
class Dispatcher {
 public:
  /// Constructs the dispatcher. When options.journal_path names an existing
  /// non-empty journal, this IS the recovery path: the journal is replayed,
  /// Done shards and retry budgets restored, leased-at-crash attempts
  /// reconciled with their files on disk (sealed + checksum-clean files are
  /// adopted as completions exactly as complete() would accept them; torn
  /// Live files are quarantined and the shard requeued against its budget),
  /// and the journal resumes appending. Throws qufi::Error with an
  /// offset-naming diagnosis on journal corruption — recovery never
  /// silently drops acknowledged transitions. recovery_report() says what
  /// happened.
  Dispatcher(DispatcherOptions options, Clock& clock);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Registers a campaign and creates its spool directory. Throws
  /// qufi::Error on a duplicate name, a name check_campaign_name refuses,
  /// or an empty manifest list.
  void submit(CampaignJob job);

  /// Leases the next shard: highest campaign priority first (ties to the
  /// earlier submission), lowest pending shard index within the campaign.
  /// Expires stale leases first, so a single-threaded poll loop never needs
  /// to call tick() separately. Returns nullopt when nothing is pending.
  /// `worker_id` is diagnostic only.
  std::optional<ShardLease> acquire(const std::string& worker_id);

  /// Refreshes a lease's deadline. Returns false when the lease is no
  /// longer active (expired and requeued, or already completed): the worker
  /// should abandon the attempt — its output file stays untouched, and a
  /// late complete() is still handled gracefully.
  bool heartbeat(std::uint64_t lease_id);

  /// Reports the attempt's output as finished. Verifies the file is a
  /// sealed, readable partial: a corrupt or unsealed file is quarantined
  /// (renamed `*.quarantined`, never merged) and the shard requeued against
  /// its retry budget. A duplicate completion (the shard already Done via
  /// another attempt) is verified bit-exact against the accepted partial
  /// and dropped; divergence fails the campaign — determinism is the
  /// contract that makes requeues safe. When the last shard lands, the
  /// final CSV is merged and written before complete() returns: the
  /// completion is journaled first, then the merge runs with the
  /// dispatcher's lock released (every other call proceeds meanwhile, and
  /// the campaign stays Running), its rows formatted on `pool`'s lanes
  /// (borrowed; null builds a pool of hardware threads for the merge).
  /// The lock is then re-taken to rename the CSV into place and mark the
  /// campaign Completed, or Failed when the merge failed or a divergent
  /// duplicate failed the campaign in the meantime (no CSV is left then).
  void complete(std::uint64_t lease_id, util::ThreadPool* pool = nullptr);

  /// Voluntary failure (the worker caught an exception): requeues the
  /// shard against its retry budget. Returns false when the lease is no
  /// longer active (expired and requeued, or already completed) — the
  /// report changed nothing, mirroring heartbeat(), so fleets can tell
  /// "lease already expired" from a caller bug. A lease id this dispatcher
  /// never issued is additionally journaled (fail-unknown) for post-mortem.
  bool fail(std::uint64_t lease_id, const std::string& reason);

  /// Expires leases whose heartbeat is older than lease_timeout_ms and
  /// requeues their shards (or fails the campaign when the retry budget is
  /// spent). Returns the number of leases expired. acquire() calls this
  /// implicitly; explicit calls are for fleets that may sit idle.
  std::size_t tick();

  /// All campaigns, in submission order.
  std::vector<CampaignStatusView> status() const;
  /// One campaign. Throws qufi::Error on an unknown name.
  CampaignStatusView campaign_status(const std::string& name) const;

  /// The campaign's live merge frontier: an incremental k-way merge
  /// (dist::merge_result_prefix) over every non-quarantined attempt file,
  /// each tailed in ReadMode::Tail. The returned record prefix is a
  /// bit-exact, monotonically growing prefix of the final merged output.
  /// Throws qufi::Error on an unknown name or corruption inside a readable
  /// attempt file.
  dist::PrefixMergeResult progress(const std::string& name) const;

  /// True when every campaign is terminal (Completed or Failed).
  bool idle() const;

  /// Blocks until idle() holds or `timeout_ms` passed, and returns idle().
  /// Wakes the moment a campaign turns terminal, so a fleet's drain need
  /// not poll.
  bool wait_idle_for(std::int64_t timeout_ms) const;

  /// What constructing over an existing journal recovered (all-zeros for a
  /// fresh dispatcher). Written once in the constructor, immutable after.
  const RecoveryReport& recovery_report() const { return recovery_; }

  /// Retired leases currently remembered for late-duplicate verification.
  /// Entries are pruned when their campaign reaches a terminal state (the
  /// journal keeps late completions reconstructible for post-mortem), so a
  /// long-running daemon's map stays bounded by in-flight work.
  std::size_t retired_lease_count() const;

 private:
  struct Shard;
  struct Campaign;
  struct ActiveLease;

  Campaign* find_campaign_locked(const std::string& name);
  const Campaign* find_campaign_locked(const std::string& name) const;
  std::size_t expire_leases_locked();
  void retire_lease_locked(std::uint64_t lease_id);
  void requeue_locked(Campaign& campaign, Shard& shard,
                      const std::string& why);
  void fail_campaign_locked(Campaign& campaign, const std::string& error);
  bool accept_completion_locked(Campaign& campaign, Shard& shard,
                                const std::string& output_path);
  std::vector<std::string> accepted_paths_locked(
      const Campaign& campaign) const;
  void seal_final_merge_locked(Campaign& campaign, std::string merge_error);
  void finalize_locked(Campaign& campaign);
  bool idle_locked() const;
  void prune_retired_locked(const std::string& campaign_name);
  void quarantine_locked(Campaign& campaign, Shard& shard,
                         const std::string& output_path);
  CampaignStatusView status_locked(const Campaign& campaign) const;

  // Journal plumbing (all no-ops when options_.journal_path is empty).
  void init_journal_locked();
  void replay_journal_locked(const std::vector<JournalEvent>& events);
  void adopt_disk_state_locked();
  void journal_append_locked(JournalEvent event);
  void flush_beats_locked();
  void journal_sync_locked();

  DispatcherOptions options_;
  Clock& clock_;
  mutable std::mutex mutex_;
  /// Notified (under mutex_) whenever a campaign turns terminal.
  mutable std::condition_variable terminal_;
  std::vector<std::unique_ptr<Campaign>> campaigns_;  // submission order
  std::map<std::uint64_t, ActiveLease> active_;
  /// Retired leases (expired, completed, failed) kept so a late complete()
  /// from a presumed-dead worker can still be verified and credited. Pruned
  /// once the campaign is terminal (see retired_lease_count()).
  struct RetiredLease {
    std::string campaign;
    std::uint32_t shard_index = 0;
    std::string output_path;
  };
  std::map<std::uint64_t, RetiredLease> retired_;
  std::uint64_t next_lease_id_ = 1;
  std::unique_ptr<JournalWriter> journal_;
  /// Heartbeats since the last journal record, coalesced into one
  /// heartbeat-batch line (per-beat fsync would dominate the journal).
  std::map<std::uint64_t, std::int64_t> dirty_beats_;
  RecoveryReport recovery_;
};

}  // namespace qufi::service
