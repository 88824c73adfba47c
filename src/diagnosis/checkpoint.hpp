// Journaled checkpoint/resume for the long-running DR sweeps.
//
// A sweep is hundreds of independent single-fault diagnoses whose results
// reduce in fault-index order. That structure makes crash-safety cheap: each
// *completed* fault is journaled as one durable record, and a resumed run
// replays journaled faults into the accumulator and diagnoses only the
// missing ones. Because the reduction was already ordered (PR 1) and every
// counter increment is per-fault-scoped, the resumed run's DR values,
// deterministic counters, and BENCH JSON are bit-identical to an
// uninterrupted run at any thread count.
//
// Record schema (journal record type 1, little-endian):
//   u64 sweepId       — which sweep within the journal (a bench run sweeps
//                       many (scheme, partitions) configs over one journal;
//                       sweepId is an FNV-1a digest of that per-sweep config)
//   u32 faultIndex    — index into the sweep's response vector
//   u64 candidateCount, u64 actualCount — the FaultDiagnosis numbers
//   u64 verdictDigest — FNV-1a of the per-partition group verdict words
//                       (audit fingerprint; lets tests prove a replayed fault
//                       matches what a fresh diagnosis would produce)
//   u32 deltaCount, then (u16 counterIndex, u64 delta) pairs — the counter
//                       increments this fault's diagnosis made (captured via
//                       obs::DeltaCapture), replayed on resume so counter
//                       totals stay bit-identical
//
// The journal header digest binds the file to one experiment setup (circuit,
// workload seed/size, topology, metrics schema — NOT thread count); resuming
// against anything else throws JournalDigestMismatchError.
//
// Duplicate records for the same (sweepId, faultIndex) are legal — a crash
// can land between the append and the caller observing it, and a re-run
// re-appends — and resolve last-write-wins on replay.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/journal.hpp"
#include "common/watchdog.hpp"
#include "diagnosis/experiment_driver.hpp"

namespace scandiag {

/// Journal record types used by the checkpoint layer. Readers skip unknown
/// types, so adding a type is backwards compatible.
inline constexpr std::uint16_t kFaultRecordType = 1;
inline constexpr std::uint16_t kShardMetaRecordType = 2;
inline constexpr std::uint16_t kSweepManifestRecordType = 3;

/// One journaled completed-fault result.
struct FaultRecord {
  std::uint64_t sweepId = 0;
  std::uint32_t faultIndex = 0;
  std::uint64_t candidateCount = 0;
  std::uint64_t actualCount = 0;
  std::uint64_t verdictDigest = 0;
  /// (counter index, increment) pairs captured during this fault's diagnosis.
  std::vector<std::pair<std::uint16_t, std::uint64_t>> counterDeltas;
};

std::string encodeFaultRecord(const FaultRecord& record);
/// Throws JournalCorruptError when the payload is structurally invalid.
FaultRecord decodeFaultRecord(const std::string& payload);

/// Shard identity of a sharded-sweep journal (record type 2, written once per
/// run). `baseDigest` is the digest of the *unsharded* setup — identical
/// across sibling shards, which is how merge-journals proves N journals
/// belong to the same sweep while each journal's own header digest (which
/// additionally mixes the shard spec) refuses cross-shard resumes.
struct ShardMetaRecord {
  std::uint32_t shardIndex = 0;
  std::uint32_t shardCount = 1;
  std::uint64_t baseDigest = 0;
  /// SOC spec of the sweep (e.g. "rep:s38584x702:w8") — lets merge-journals
  /// label its report without being told the spec out of band.
  std::string socSpec;
};

std::string encodeShardMetaRecord(const ShardMetaRecord& record);
ShardMetaRecord decodeShardMetaRecord(const std::string& payload);

/// Per-sweep manifest (record type 3): what a sweepId means and how many
/// fault indices a *complete* merged sweep must cover. Every shard writes the
/// same manifests (they all see the full workload; only the diagnosed range
/// differs), so the merge tool can verify coverage and label report rows
/// without re-running anything.
struct SweepManifestRecord {
  std::uint64_t sweepId = 0;
  std::uint64_t classHash = 0;
  std::uint32_t classOrdinal = 0;
  std::uint32_t responseCount = 0;
  std::uint32_t instanceCount = 0;
  std::string className;
};

std::string encodeSweepManifestRecord(const SweepManifestRecord& record);
SweepManifestRecord decodeSweepManifestRecord(const std::string& payload);

/// Digest of an experiment setup, mixed from the pieces that must match for
/// a resume to be valid. Chain calls: digest = setupDigestPiece(name, value,
/// digest). Thread count is deliberately never mixed in — resume across
/// thread counts is supported and bit-identical.
std::uint64_t setupDigestPiece(const std::string& name, std::uint64_t value,
                               std::uint64_t digest);
std::uint64_t setupDigestPiece(const std::string& name, const std::string& value,
                               std::uint64_t digest);

/// Digest identifying one sweep configuration inside a journal.
std::uint64_t sweepIdFor(const DiagnosisConfig& config);

/// Where completed-fault records go and where replays come from. The sweep
/// evaluators are written against this interface so the same loop serves a
/// durable journal (SweepCheckpoint), an in-memory collector
/// (MemoryRecordSink — the live-report path), or both (TeeRecordSink).
/// Implementations must make record() thread-safe (pool workers publish
/// completed faults concurrently); find() is called before any record() for
/// the same key.
class FaultRecordSink {
 public:
  virtual ~FaultRecordSink() = default;
  /// Previously-completed record for (sweepId, faultIndex), or nullptr when
  /// the fault must run.
  virtual const FaultRecord* find(std::uint64_t sweepId, std::uint32_t faultIndex) const = 0;
  /// Publishes one completed fault.
  virtual void record(const FaultRecord& record) = 0;
};

class SweepCheckpoint : public FaultRecordSink {
 public:
  /// Creates a fresh journal at `path` (refuses an existing file) or, when
  /// `resume` is true, reopens it, verifies `setupDigest`, truncates a torn
  /// tail, and indexes all prior records for replay.
  SweepCheckpoint(const std::string& path, std::uint64_t setupDigest,
                  const std::string& setupInfo, bool resume);

  /// Record found in the journal at open (nullptr when this fault must run).
  const FaultRecord* find(std::uint64_t sweepId, std::uint32_t faultIndex) const override;

  /// Journals one completed fault (durable on return; thread-safe) and
  /// counts journal_records_written.
  void record(const FaultRecord& record) override;

  /// Journals one auxiliary record (shard meta, sweep manifest — durable on
  /// return; thread-safe) and counts journal_records_written. Re-appending
  /// the same aux record on resume is legal; readers dedup.
  void appendAux(std::uint16_t type, const std::string& payload);

  std::size_t loadedRecords() const { return loaded_.size(); }
  bool hadTruncatedTail() const { return hadTruncatedTail_; }
  const std::string& path() const { return writer_->path(); }

 private:
  std::unique_ptr<JournalWriter> writer_;
  std::map<std::pair<std::uint64_t, std::uint32_t>, FaultRecord> loaded_;
  bool hadTruncatedTail_ = false;
};

/// Thread-safe in-memory sink. Never replays (find() is always null — every
/// fault runs); collects each published record keyed by (sweepId,
/// faultIndex), last write wins. The `soc-dr --report` path renders its
/// report from this collection through the same renderer merge-journals
/// uses, which is what makes the two byte-identical.
class MemoryRecordSink : public FaultRecordSink {
 public:
  const FaultRecord* find(std::uint64_t, std::uint32_t) const override { return nullptr; }
  void record(const FaultRecord& record) override;

  /// All collected records. Only call after the sweep has finished (no
  /// internal synchronization on read).
  const std::map<std::pair<std::uint64_t, std::uint32_t>, FaultRecord>& records() const {
    return records_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<std::uint64_t, std::uint32_t>, FaultRecord> records_;
};

/// Fans one sink pair out: finds hit `primary` (a checkpoint), and every
/// record — fresh or replayed-from-primary — is copied into `collector`, so
/// after the sweep the collector holds the complete record set regardless of
/// how much the checkpoint replayed.
class TeeRecordSink : public FaultRecordSink {
 public:
  TeeRecordSink(FaultRecordSink* primary, MemoryRecordSink* collector)
      : primary_(primary), collector_(collector) {}

  const FaultRecord* find(std::uint64_t sweepId, std::uint32_t faultIndex) const override;
  void record(const FaultRecord& record) override;

 private:
  FaultRecordSink* primary_;
  MemoryRecordSink* collector_;
};

/// The DR batch loop, with checkpointing: journaled faults are replayed
/// (counters re-applied, journal_records_replayed counted), missing faults
/// are diagnosed, published to `sink`, and reduced — output bit-identical to
/// an uninterrupted run at any thread count. `sink` may be null: no digest,
/// no counter capture, no record (that is DiagnosisPipeline::evaluate).
/// `control` is polled per fault; cancellation unwinds as OperationCancelled
/// *between* faults, so every published record is a completed fault.
DrReport evaluateWithCheckpoint(const DiagnosisPipeline& pipeline,
                                const std::vector<FaultResponse>& responses,
                                FaultRecordSink* sink, std::uint64_t sweepId,
                                const RunControl& control = {});

/// Range form: diagnoses only responses[rangeLo, min(rangeHi, size)), each
/// fault published under its *absolute* index — shard i of N runs its
/// fault-range slice through this and merge-journals reassembles the full
/// sweep. The returned DrReport covers only the range.
DrReport evaluateWithCheckpointRange(const DiagnosisPipeline& pipeline,
                                     const std::vector<FaultResponse>& responses,
                                     FaultRecordSink* sink, std::uint64_t sweepId,
                                     std::size_t rangeLo, std::size_t rangeHi,
                                     const RunControl& control = {});

}  // namespace scandiag
