#include "diagnosis/checkpoint.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "common/wire.hpp"
#include "obs/metrics.hpp"

namespace scandiag {

namespace {

/// Cap on the shard meta's SOC spec and a manifest's class name: far above
/// any spec or circuit name, far below an allocation a forged length could
/// ask for.
constexpr std::size_t kMaxLabel = 4096;

}  // namespace

std::string encodeFaultRecord(const FaultRecord& record) {
  std::string out;
  out.reserve(40 + record.counterDeltas.size() * 10);
  wire::putU64(out, record.sweepId);
  wire::putU32(out, record.faultIndex);
  wire::putU64(out, record.candidateCount);
  wire::putU64(out, record.actualCount);
  wire::putU64(out, record.verdictDigest);
  wire::putU32(out, static_cast<std::uint32_t>(record.counterDeltas.size()));
  for (const auto& [counter, delta] : record.counterDeltas) {
    wire::putU16(out, counter);
    wire::putU64(out, delta);
  }
  return out;
}

FaultRecord decodeFaultRecord(const std::string& payload) {
  wire::Cursor<JournalCorruptError> cur(payload);
  FaultRecord record;
  record.sweepId = cur.u64();
  record.faultIndex = cur.u32();
  record.candidateCount = cur.u64();
  record.actualCount = cur.u64();
  record.verdictDigest = cur.u64();
  const std::uint32_t deltas = cur.u32();
  // Each delta entry is 10 bytes (u16 counter + u64 value); a count the
  // remaining payload cannot hold is corruption — reject it before sizing
  // an allocation from the untrusted field.
  if (deltas > cur.remaining() / 10) {
    throw JournalCorruptError("checkpoint: fault record claims " +
                              std::to_string(deltas) + " counter deltas but only " +
                              std::to_string(cur.remaining()) + " bytes remain");
  }
  record.counterDeltas.reserve(deltas);
  for (std::uint32_t i = 0; i < deltas; ++i) {
    const std::uint16_t counter = cur.u16();
    const std::uint64_t delta = cur.u64();
    if (counter >= obs::kNumCounters) {
      throw JournalCorruptError("checkpoint: fault record names counter index " +
                                std::to_string(counter) + " (registry has " +
                                std::to_string(obs::kNumCounters) + ")");
    }
    record.counterDeltas.emplace_back(counter, delta);
  }
  cur.expectExhausted("fault record");
  return record;
}

std::string encodeShardMetaRecord(const ShardMetaRecord& record) {
  std::string out;
  out.reserve(20 + record.socSpec.size());
  wire::putU32(out, record.shardIndex);
  wire::putU32(out, record.shardCount);
  wire::putU64(out, record.baseDigest);
  wire::putString(out, record.socSpec);
  return out;
}

ShardMetaRecord decodeShardMetaRecord(const std::string& payload) {
  wire::Cursor<JournalCorruptError> cur(payload);
  ShardMetaRecord record;
  record.shardIndex = cur.u32();
  record.shardCount = cur.u32();
  record.baseDigest = cur.u64();
  record.socSpec = cur.str(kMaxLabel);
  cur.expectExhausted("shard meta");
  if (record.shardCount == 0 || record.shardIndex >= record.shardCount) {
    throw JournalCorruptError("checkpoint: shard meta names shard " +
                              std::to_string(record.shardIndex) + " of " +
                              std::to_string(record.shardCount));
  }
  return record;
}

std::string encodeSweepManifestRecord(const SweepManifestRecord& record) {
  std::string out;
  out.reserve(32 + record.className.size());
  wire::putU64(out, record.sweepId);
  wire::putU64(out, record.classHash);
  wire::putU32(out, record.classOrdinal);
  wire::putU32(out, record.responseCount);
  wire::putU32(out, record.instanceCount);
  wire::putString(out, record.className);
  return out;
}

SweepManifestRecord decodeSweepManifestRecord(const std::string& payload) {
  wire::Cursor<JournalCorruptError> cur(payload);
  SweepManifestRecord record;
  record.sweepId = cur.u64();
  record.classHash = cur.u64();
  record.classOrdinal = cur.u32();
  record.responseCount = cur.u32();
  record.instanceCount = cur.u32();
  record.className = cur.str(kMaxLabel);
  cur.expectExhausted("sweep manifest");
  return record;
}

std::uint64_t setupDigestPiece(const std::string& name, std::uint64_t value,
                               std::uint64_t digest) {
  return fnv1a64(value, fnv1a64(name, digest));
}

std::uint64_t setupDigestPiece(const std::string& name, const std::string& value,
                               std::uint64_t digest) {
  return fnv1a64(value, fnv1a64(name, digest));
}

std::uint64_t sweepIdFor(const DiagnosisConfig& config) {
  std::uint64_t d = fnv1a64(std::string("sweep"));
  d = setupDigestPiece("scheme", static_cast<std::uint64_t>(config.scheme), d);
  d = setupDigestPiece("partitions", config.numPartitions, d);
  d = setupDigestPiece("groups", config.groupsPerPartition, d);
  d = setupDigestPiece("mode", static_cast<std::uint64_t>(config.mode), d);
  d = setupDigestPiece("pruning", config.pruning ? 1 : 0, d);
  d = setupDigestPiece("patterns", config.numPatterns, d);
  d = setupDigestPiece("misr_degree", config.misrDegree, d);
  // Taps are always primitive (0 marks that) and the prune register is always
  // kPruneDegree wide. Both pieces stay so journals keep their sweep ids.
  d = setupDigestPiece("misr_taps", 0, d);
  d = setupDigestPiece("prune_degree", kPruneDegree, d);
  return d;
}

SweepCheckpoint::SweepCheckpoint(const std::string& path, std::uint64_t setupDigest,
                                 const std::string& setupInfo, bool resume) {
  if (!resume) {
    writer_ = std::make_unique<JournalWriter>(
        JournalWriter::create(path, setupDigest, setupInfo));
    return;
  }
  JournalContents contents;
  writer_ = std::make_unique<JournalWriter>(
      JournalWriter::openForAppend(path, setupDigest, &contents));
  hadTruncatedTail_ = contents.truncatedTail;
  for (const JournalRecord& rec : contents.records) {
    if (rec.type != kFaultRecordType) continue;  // unknown types: skip, don't fail
    FaultRecord fault = decodeFaultRecord(rec.payload);
    const auto key = std::make_pair(fault.sweepId, fault.faultIndex);
    loaded_[key] = std::move(fault);  // duplicates: last write wins
  }
}

const FaultRecord* SweepCheckpoint::find(std::uint64_t sweepId,
                                         std::uint32_t faultIndex) const {
  const auto it = loaded_.find(std::make_pair(sweepId, faultIndex));
  return it == loaded_.end() ? nullptr : &it->second;
}

void SweepCheckpoint::record(const FaultRecord& record) {
  writer_->append(kFaultRecordType, encodeFaultRecord(record));
  obs::count(obs::Counter::JournalRecordsWritten);
}

void SweepCheckpoint::appendAux(std::uint16_t type, const std::string& payload) {
  writer_->append(type, payload);
  obs::count(obs::Counter::JournalRecordsWritten);
}

void MemoryRecordSink::record(const FaultRecord& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_[std::make_pair(record.sweepId, record.faultIndex)] = record;
}

const FaultRecord* TeeRecordSink::find(std::uint64_t sweepId, std::uint32_t faultIndex) const {
  const FaultRecord* prior = primary_ ? primary_->find(sweepId, faultIndex) : nullptr;
  // A replayed fault never reaches record(), so copy it into the collector
  // here — the collector ends the sweep with the complete record set either
  // way.
  if (prior && collector_) collector_->record(*prior);
  return prior;
}

void TeeRecordSink::record(const FaultRecord& record) {
  if (primary_) primary_->record(record);
  if (collector_) collector_->record(record);
}

DrReport evaluateWithCheckpoint(const DiagnosisPipeline& pipeline,
                                const std::vector<FaultResponse>& responses,
                                FaultRecordSink* sink, std::uint64_t sweepId,
                                const RunControl& control) {
  return evaluateWithCheckpointRange(pipeline, responses, sink, sweepId, 0, responses.size(),
                                     control);
}

DrReport evaluateWithCheckpointRange(const DiagnosisPipeline& pipeline,
                                     const std::vector<FaultResponse>& responses,
                                     FaultRecordSink* sink, std::uint64_t sweepId,
                                     std::size_t rangeLo, std::size_t rangeHi,
                                     const RunControl& control) {
  // Faults are independent: slot i depends only on responses[i], so the
  // parallel loop writes disjoint slots and the reduction below runs in
  // fault-index order — DR output is bit-identical for every thread count.
  // With a sink, each fault either replays (already journaled: re-apply its
  // counter deltas, skip the diagnosis) or is recorded (published before its
  // slot is filled); both keep slot values and counter totals identical to
  // the uninterrupted run.
  rangeHi = std::min(rangeHi, responses.size());
  rangeLo = std::min(rangeLo, rangeHi);
  struct Slot {
    std::size_t candidates = 0;
    std::size_t actual = 0;
    bool detected = false;
  };
  std::vector<Slot> slots(rangeHi - rangeLo);
  // Range (not element) dispatch: one contiguous fault chunk per worker lane,
  // with the batch scorer's scratch living on the worker's stack for the
  // whole chunk — no per-fault allocation, no cross-worker cache-line
  // traffic on scratch state.
  globalPool().parallelForRange(slots.size(), [&](std::size_t begin, std::size_t end) {
    SessionBatchScratch scratch;
    for (std::size_t slot = begin; slot < end; ++slot) {
      const std::size_t i = rangeLo + slot;
      const FaultResponse& r = responses[i];
      if (!r.detected()) continue;
      const std::uint32_t faultIndex = static_cast<std::uint32_t>(i);
      if (const FaultRecord* prior = sink ? sink->find(sweepId, faultIndex) : nullptr) {
        for (const auto& [counter, delta] : prior->counterDeltas) {
          obs::count(static_cast<obs::Counter>(counter), delta);
        }
        obs::count(obs::Counter::JournalRecordsReplayed);
        slots[slot] = Slot{static_cast<std::size_t>(prior->candidateCount),
                           static_cast<std::size_t>(prior->actualCount), true};
        continue;
      }
      // Cancellation lands here, never after the diagnosis below starts: each
      // published record is a fault that ran to completion.
      control.throwIfStopped();
      if (!sink) {
        const FaultDiagnosis d = pipeline.diagnose(r, &scratch);
        slots[slot] = Slot{d.candidateCount, d.actualCount, true};
        continue;
      }
      FaultRecord record;
      record.sweepId = sweepId;
      record.faultIndex = faultIndex;
      {
        obs::DeltaCapture capture;
        const FaultDiagnosis d = pipeline.diagnose(r, &scratch, &record.verdictDigest);
        record.candidateCount = d.candidateCount;
        record.actualCount = d.actualCount;
        const auto& deltas = capture.deltas();
        for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
          if (deltas[c] != 0) {
            record.counterDeltas.emplace_back(static_cast<std::uint16_t>(c), deltas[c]);
          }
        }
      }
      sink->record(record);
      slots[slot] = Slot{static_cast<std::size_t>(record.candidateCount),
                         static_cast<std::size_t>(record.actualCount), true};
    }
  });
  DrAccumulator acc;
  for (const Slot& s : slots) {
    if (s.detected) acc.add(s.candidates, s.actual);
  }
  return DrReport{acc.dr(), acc.faults(), acc.sumCandidates(), acc.sumActual()};
}

}  // namespace scandiag
