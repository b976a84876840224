#ifndef LEDGERDB_OBS_METRIC_NAMES_H_
#define LEDGERDB_OBS_METRIC_NAMES_H_

#include <cstddef>

namespace ledgerdb::obs::names {

/// Central catalog of every metric the verification plane registers.
/// Naming convention (enforced by the obs_lint test and by
/// MetricsRegistry's debug checks):
///
///   ledgerdb_{subsystem}_{name}_{unit}
///
/// where `unit` is one of `total` (monotonic counter), `us` (microsecond
/// histogram), `bytes` (byte counter/histogram) or `count` (gauge or
/// dimensionless histogram). Labeled series append `{key="value"}` to a
/// base name from this catalog — the base name is what the lint checks.
///
/// Instrumentation sites must use these constants, never string literals:
/// the catalog is the single source of truth the lint test walks.

// --- ledger: append pipeline, sealing, proofs, recovery ------------------
inline constexpr char kLedgerAppendsTotal[] = "ledgerdb_ledger_appends_total";
inline constexpr char kLedgerAppendFailuresTotal[] =
    "ledgerdb_ledger_append_failures_total";
inline constexpr char kLedgerDedupHitsTotal[] =
    "ledgerdb_ledger_dedup_hits_total";
inline constexpr char kLedgerBlocksSealedTotal[] =
    "ledgerdb_ledger_blocks_sealed_total";
inline constexpr char kLedgerPrevalidateUs[] = "ledgerdb_ledger_prevalidate_us";
inline constexpr char kLedgerCommitUs[] = "ledgerdb_ledger_commit_us";
inline constexpr char kLedgerSealUs[] = "ledgerdb_ledger_seal_us";
inline constexpr char kLedgerProofBuildUs[] = "ledgerdb_ledger_proof_build_us";
inline constexpr char kLedgerRecoverUs[] = "ledgerdb_ledger_recover_us";
inline constexpr char kLedgerRecoveredJournalsTotal[] =
    "ledgerdb_ledger_recovered_journals_total";
inline constexpr char kLedgerRangeProofsTotal[] =
    "ledgerdb_ledger_range_proofs_total";
inline constexpr char kLedgerBatchProofJournalsCount[] =
    "ledgerdb_ledger_batch_proof_journals_count";

// --- shard: pipelined append lanes ---------------------------------------
inline constexpr char kShardBatchAppendsTotal[] =
    "ledgerdb_shard_batch_appends_total";
inline constexpr char kShardLaneDepthCount[] =
    "ledgerdb_shard_lane_depth_count";
inline constexpr char kShardCommitterStallsTotal[] =
    "ledgerdb_shard_committer_stalls_total";
inline constexpr char kShardCommitWaitUs[] = "ledgerdb_shard_commit_wait_us";
inline constexpr char kShardPrevalidateChunkCount[] =
    "ledgerdb_shard_prevalidate_chunk_count";
inline constexpr char kShardQuarantinedCount[] =
    "ledgerdb_shard_quarantined_count";

// --- crypto: batched ECDSA verification ----------------------------------
inline constexpr char kCryptoBatchVerifyCallsTotal[] =
    "ledgerdb_crypto_batch_verify_calls_total";
inline constexpr char kCryptoBatchVerifySigsTotal[] =
    "ledgerdb_crypto_batch_verify_sigs_total";
inline constexpr char kCryptoBatchVerifyFailuresTotal[] =
    "ledgerdb_crypto_batch_verify_failures_total";
inline constexpr char kCryptoBatchVerifyUs[] =
    "ledgerdb_crypto_batch_verify_us";
inline constexpr char kCryptoBatchChunkCount[] =
    "ledgerdb_crypto_batch_chunk_count";

// --- retry: RetryTransient boundaries ------------------------------------
inline constexpr char kRetryAttemptsTotal[] = "ledgerdb_retry_attempts_total";
inline constexpr char kRetryRetriesTotal[] = "ledgerdb_retry_retries_total";
inline constexpr char kRetryExhaustedTotal[] = "ledgerdb_retry_exhausted_total";
inline constexpr char kRetryBackoffUs[] = "ledgerdb_retry_backoff_us";

// --- storage: stream store + fault injection -----------------------------
inline constexpr char kStorageAppendsTotal[] = "ledgerdb_storage_appends_total";
inline constexpr char kStorageAppendBytesTotal[] =
    "ledgerdb_storage_append_bytes_total";
inline constexpr char kStorageOverwritesTotal[] =
    "ledgerdb_storage_overwrites_total";
inline constexpr char kStorageFsyncsTotal[] = "ledgerdb_storage_fsyncs_total";
inline constexpr char kStorageAppendUs[] = "ledgerdb_storage_append_us";
inline constexpr char kStorageTornTailsTotal[] =
    "ledgerdb_storage_torn_tails_total";
inline constexpr char kStorageQuarantinedBytesTotal[] =
    "ledgerdb_storage_quarantined_bytes_total";
inline constexpr char kStorageRecoveredFramesTotal[] =
    "ledgerdb_storage_recovered_frames_total";
inline constexpr char kStorageFaultsInjectedTotal[] =
    "ledgerdb_storage_faults_injected_total";  // label: kind
inline constexpr char kStorageGroupCommitSizeCount[] =
    "ledgerdb_storage_group_commit_size_count";

// --- checkpoint: verified checkpoints + tail replay -----------------------
inline constexpr char kCkptWritesTotal[] = "ledgerdb_checkpoint_writes_total";
inline constexpr char kCkptWriteFailuresTotal[] =
    "ledgerdb_checkpoint_write_failures_total";
inline constexpr char kCkptWriteUs[] = "ledgerdb_checkpoint_write_us";
inline constexpr char kCkptSnapshotBytes[] =
    "ledgerdb_checkpoint_snapshot_bytes";
inline constexpr char kCkptLoadsTotal[] = "ledgerdb_checkpoint_loads_total";
inline constexpr char kCkptFallbacksTotal[] =
    "ledgerdb_checkpoint_fallbacks_total";
inline constexpr char kCkptTailJournalsTotal[] =
    "ledgerdb_checkpoint_tail_journals_total";

// --- proofcache: memoized proof plane ------------------------------------
inline constexpr char kProofCacheHitsTotal[] =
    "ledgerdb_proofcache_hits_total";
inline constexpr char kProofCacheMissesTotal[] =
    "ledgerdb_proofcache_misses_total";
inline constexpr char kProofCacheEvictionsTotal[] =
    "ledgerdb_proofcache_evictions_total";
inline constexpr char kProofCacheResidentBytes[] =
    "ledgerdb_proofcache_resident_bytes";

// --- net: transport plane -------------------------------------------------
inline constexpr char kNetRpcsTotal[] = "ledgerdb_net_rpcs_total";  // label: op
inline constexpr char kNetFaultsInjectedTotal[] =
    "ledgerdb_net_faults_injected_total";  // label: kind
inline constexpr char kNetReconnectsTotal[] =
    "ledgerdb_net_reconnects_total";
inline constexpr char kNetRpcUs[] = "ledgerdb_net_rpc_us";

// --- server: socket service plane ----------------------------------------
inline constexpr char kServerRequestsTotal[] =
    "ledgerdb_server_requests_total";  // label: op
inline constexpr char kServerRequestUs[] =
    "ledgerdb_server_request_us";  // label: op
inline constexpr char kServerShedTotal[] = "ledgerdb_server_shed_total";
inline constexpr char kServerFrameErrorsTotal[] =
    "ledgerdb_server_frame_errors_total";
inline constexpr char kServerDeadlineExpiredTotal[] =
    "ledgerdb_server_deadline_expired_total";
inline constexpr char kServerQueueDepthCount[] =
    "ledgerdb_server_queue_depth_count";
inline constexpr char kServerConnectionsCount[] =
    "ledgerdb_server_connections_count";
inline constexpr char kServerQueueWaitUs[] = "ledgerdb_server_queue_wait_us";
inline constexpr char kServerExecuteUs[] = "ledgerdb_server_execute_us";
inline constexpr char kServerFlushUs[] = "ledgerdb_server_flush_us";
inline constexpr char kServerSlowRequestsTotal[] =
    "ledgerdb_server_slow_requests_total";

// --- client: verified SDK -------------------------------------------------
inline constexpr char kClientAppendsTotal[] = "ledgerdb_client_appends_total";
inline constexpr char kClientRefreshesTotal[] =
    "ledgerdb_client_refreshes_total";
inline constexpr char kClientRefreshUs[] = "ledgerdb_client_refresh_us";
inline constexpr char kClientEquivocationsTotal[] =
    "ledgerdb_client_equivocations_total";
inline constexpr char kClientBatchAuditsTotal[] =
    "ledgerdb_client_batch_audits_total";

// --- audit: Dasein what/when/who -----------------------------------------
inline constexpr char kAuditAuditsTotal[] = "ledgerdb_audit_audits_total";
inline constexpr char kAuditFailuresTotal[] = "ledgerdb_audit_failures_total";
inline constexpr char kAuditWhatUs[] = "ledgerdb_audit_what_us";
inline constexpr char kAuditWhenUs[] = "ledgerdb_audit_when_us";
inline constexpr char kAuditWhoUs[] = "ledgerdb_audit_who_us";

/// Every catalogued base name; the lint test checks pattern conformance
/// and uniqueness over this list, and that the live registry never holds
/// a base name outside it.
inline constexpr const char* kAll[] = {
    kLedgerAppendsTotal,
    kLedgerAppendFailuresTotal,
    kLedgerDedupHitsTotal,
    kLedgerBlocksSealedTotal,
    kLedgerPrevalidateUs,
    kLedgerCommitUs,
    kLedgerSealUs,
    kLedgerProofBuildUs,
    kLedgerRecoverUs,
    kLedgerRecoveredJournalsTotal,
    kLedgerRangeProofsTotal,
    kLedgerBatchProofJournalsCount,
    kShardBatchAppendsTotal,
    kShardLaneDepthCount,
    kShardCommitterStallsTotal,
    kShardCommitWaitUs,
    kShardPrevalidateChunkCount,
    kShardQuarantinedCount,
    kCryptoBatchVerifyCallsTotal,
    kCryptoBatchVerifySigsTotal,
    kCryptoBatchVerifyFailuresTotal,
    kCryptoBatchVerifyUs,
    kCryptoBatchChunkCount,
    kRetryAttemptsTotal,
    kRetryRetriesTotal,
    kRetryExhaustedTotal,
    kRetryBackoffUs,
    kStorageAppendsTotal,
    kStorageAppendBytesTotal,
    kStorageOverwritesTotal,
    kStorageFsyncsTotal,
    kStorageAppendUs,
    kStorageTornTailsTotal,
    kStorageQuarantinedBytesTotal,
    kStorageRecoveredFramesTotal,
    kStorageFaultsInjectedTotal,
    kStorageGroupCommitSizeCount,
    kCkptWritesTotal,
    kCkptWriteFailuresTotal,
    kCkptWriteUs,
    kCkptSnapshotBytes,
    kCkptLoadsTotal,
    kCkptFallbacksTotal,
    kCkptTailJournalsTotal,
    kProofCacheHitsTotal,
    kProofCacheMissesTotal,
    kProofCacheEvictionsTotal,
    kProofCacheResidentBytes,
    kNetRpcsTotal,
    kNetFaultsInjectedTotal,
    kNetReconnectsTotal,
    kNetRpcUs,
    kServerRequestsTotal,
    kServerRequestUs,
    kServerShedTotal,
    kServerFrameErrorsTotal,
    kServerDeadlineExpiredTotal,
    kServerQueueDepthCount,
    kServerConnectionsCount,
    kServerQueueWaitUs,
    kServerExecuteUs,
    kServerFlushUs,
    kServerSlowRequestsTotal,
    kClientAppendsTotal,
    kClientRefreshesTotal,
    kClientRefreshUs,
    kClientEquivocationsTotal,
    kClientBatchAuditsTotal,
    kAuditAuditsTotal,
    kAuditFailuresTotal,
    kAuditWhatUs,
    kAuditWhenUs,
    kAuditWhoUs,
};

inline constexpr size_t kAllCount = sizeof(kAll) / sizeof(kAll[0]);

}  // namespace ledgerdb::obs::names

#endif  // LEDGERDB_OBS_METRIC_NAMES_H_
