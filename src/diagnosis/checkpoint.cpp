#include "diagnosis/checkpoint.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace scandiag {

namespace {

void putU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

class Cursor {
 public:
  explicit Cursor(const std::string& bytes) : bytes_(&bytes) {}

  std::uint16_t u16() { return static_cast<std::uint16_t>(uint(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(uint(4)); }
  std::uint64_t u64() { return uint(8); }
  std::size_t remaining() const { return bytes_->size() - pos_; }
  bool exhausted() const { return pos_ == bytes_->size(); }

 private:
  std::uint64_t uint(std::size_t width) {
    if (bytes_->size() - pos_ < width) {
      throw JournalCorruptError("checkpoint: fault record payload is short");
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>((*bytes_)[pos_ + i]))
           << (8 * i);
    }
    pos_ += width;
    return v;
  }

  const std::string* bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string encodeFaultRecord(const FaultRecord& record) {
  std::string out;
  out.reserve(40 + record.counterDeltas.size() * 10);
  putU64(out, record.sweepId);
  putU32(out, record.faultIndex);
  putU64(out, record.candidateCount);
  putU64(out, record.actualCount);
  putU64(out, record.verdictDigest);
  putU32(out, static_cast<std::uint32_t>(record.counterDeltas.size()));
  for (const auto& [counter, delta] : record.counterDeltas) {
    putU16(out, counter);
    putU64(out, delta);
  }
  return out;
}

FaultRecord decodeFaultRecord(const std::string& payload) {
  Cursor cur(payload);
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
  if (!cur.exhausted()) {
    throw JournalCorruptError("checkpoint: fault record has trailing bytes");
  }
  return record;
}

std::string encodeShardMetaRecord(const ShardMetaRecord& record) {
  std::string out;
  out.reserve(20 + record.socSpec.size());
  putU32(out, record.shardIndex);
  putU32(out, record.shardCount);
  putU64(out, record.baseDigest);
  putU32(out, static_cast<std::uint32_t>(record.socSpec.size()));
  out.append(record.socSpec);
  return out;
}

ShardMetaRecord decodeShardMetaRecord(const std::string& payload) {
  Cursor cur(payload);
  ShardMetaRecord record;
  record.shardIndex = cur.u32();
  record.shardCount = cur.u32();
  record.baseDigest = cur.u64();
  const std::uint32_t specLen = cur.u32();
  if (specLen != cur.remaining()) {
    throw JournalCorruptError("checkpoint: shard meta claims a " + std::to_string(specLen) +
                              "-byte spec but " + std::to_string(cur.remaining()) +
                              " bytes remain");
  }
  record.socSpec = payload.substr(payload.size() - specLen);
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
  putU64(out, record.sweepId);
  putU64(out, record.classHash);
  putU32(out, record.classOrdinal);
  putU32(out, record.responseCount);
  putU32(out, record.instanceCount);
  putU32(out, static_cast<std::uint32_t>(record.className.size()));
  out.append(record.className);
  return out;
}

SweepManifestRecord decodeSweepManifestRecord(const std::string& payload) {
  Cursor cur(payload);
  SweepManifestRecord record;
  record.sweepId = cur.u64();
  record.classHash = cur.u64();
  record.classOrdinal = cur.u32();
  record.responseCount = cur.u32();
  record.instanceCount = cur.u32();
  const std::uint32_t nameLen = cur.u32();
  if (nameLen != cur.remaining()) {
    throw JournalCorruptError("checkpoint: sweep manifest claims a " +
                              std::to_string(nameLen) + "-byte name but " +
                              std::to_string(cur.remaining()) + " bytes remain");
  }
  record.className = payload.substr(payload.size() - nameLen);
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
