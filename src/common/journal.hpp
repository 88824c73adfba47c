// Crash-safe record journal + atomic file commits.
//
// Long sweeps (500 faults x several schemes x several budgets) die to OOM
// kills, CI timeouts, and Ctrl-C. The journal is the durability primitive the
// checkpoint/resume layer (src/diagnosis/checkpoint.*) builds on:
//
//  * **Append-only framing.** The file is a header frame followed by record
//    frames, each one wire frame (common/wire.hpp):
//    `[u32 len][u32 crc32(type ‖ payload)][u16 type][payload]`. Appends
//    go through one mutex, are flushed with write(2), and fsync'd, so a record
//    that append() returned for survives a SIGKILL an instant later.
//  * **Atomic creation.** A new journal is written to `<path>.tmp` (header
//    frame + fsync) and renamed into place, then the directory is fsync'd —
//    no observer ever sees a half-written header.
//  * **Torn tails are normal, corruption is not.** A kill mid-append leaves
//    one incomplete frame at EOF; the reader drops it and *reports* it
//    (truncatedTail/truncatedAtOffset) instead of erroring — that is the
//    expected crash artifact. A CRC mismatch on a frame whose bytes are fully
//    present, or a malformed header, can only mean the bytes rotted and
//    raises a typed error (JournalCorruptError / JournalFormatError), never
//    silent acceptance.
//  * **Setup digests.** The header stores a caller-provided u64 digest of the
//    experiment setup (config, topology hash, seed, scheme). Reopening for
//    append verifies it, so a journal can never be resumed against a
//    mismatched run (JournalDigestMismatchError).
//
// atomicWriteFile() is the sibling primitive for whole-file artifacts
// (BENCH_*.json, metrics snapshots): write temp in the target directory,
// fsync, rename. A crash can leave a stale temp file, never a torn artifact.
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace scandiag {

/// Any journal failure; catch the subtypes to distinguish causes.
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The file is not a journal (bad magic/version) or a frame is malformed.
class JournalFormatError : public JournalError {
 public:
  using JournalError::JournalError;
};

/// A fully-present frame failed its CRC — bytes changed after commit.
class JournalCorruptError : public JournalError {
 public:
  using JournalError::JournalError;
};

/// The journal's setup digest does not match the resuming run's setup.
class JournalDigestMismatchError : public JournalError {
 public:
  using JournalError::JournalError;
};

/// CRC-32 (IEEE 802.3, reflected). `seed` chains partial buffers.
std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// FNV-1a 64-bit over `text`, chained through `seed` — the digest primitive
/// the checkpoint layer hashes configs/topologies with (stable across
/// platforms, unlike std::hash).
std::uint64_t fnv1a64(const std::string& text, std::uint64_t seed = 0xcbf29ce484222325ULL);
std::uint64_t fnv1a64(std::uint64_t value, std::uint64_t seed);
/// Raw-bytes form — the structural netlist hasher folds gate/fanin arrays
/// through this without materializing intermediate strings.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

struct JournalRecord {
  std::uint16_t type = 0;
  std::string payload;  // opaque bytes, CRC-verified
};

struct JournalContents {
  std::uint64_t setupDigest = 0;
  std::string setupInfo;  // human-readable setup description from the header
  std::vector<JournalRecord> records;
  /// True when an incomplete frame was found (and dropped) at EOF — the
  /// normal artifact of a kill mid-append. Offset of the torn frame's start.
  bool truncatedTail = false;
  std::uint64_t truncatedAtOffset = 0;
};

/// Reads and CRC-verifies a whole journal. Throws FileNotFoundError-shaped
/// JournalError when the file cannot be opened, JournalFormatError /
/// JournalCorruptError on malformed or rotted bytes. A torn tail is reported,
/// not thrown.
JournalContents readJournal(const std::string& path);

class JournalWriter {
 public:
  /// Creates `path` atomically (temp + rename) with a header carrying
  /// `setupDigest`/`setupInfo`, then holds it open for append. Fails with
  /// JournalError if `path` already exists (pass resume semantics through
  /// openForAppend instead — creation never clobbers), and with
  /// JournalFormatError, before any file exists, if `setupInfo` is longer
  /// than readJournal accepts (64 KiB).
  static JournalWriter create(const std::string& path, std::uint64_t setupDigest,
                              const std::string& setupInfo);

  /// Opens an existing journal for append after verifying its setup digest
  /// against `expectedDigest`. A torn tail frame is truncated away first
  /// (reported through `contents`), so subsequent appends land on a clean
  /// frame boundary. `contents` receives everything readJournal() saw.
  static JournalWriter openForAppend(const std::string& path, std::uint64_t expectedDigest,
                                     JournalContents* contents);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&&) = delete;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Appends one framed record and fsyncs. Thread-safe (one internal mutex —
  /// pool workers journal completed faults concurrently). Throws JournalError
  /// on I/O failure; on return the record is durable.
  void append(std::uint16_t type, const std::string& payload);

  const std::string& path() const { return path_; }
  /// Records appended through this writer (not counting inherited ones).
  std::uint64_t appendedRecords() const { return appended_; }

 private:
  JournalWriter(std::string path, int fd);

  std::string path_;
  int fd_ = -1;
  std::mutex mutex_;
  std::uint64_t appended_ = 0;
};

/// Atomically replaces `path` with `contents`: write `<path>.tmp.<pid>` in
/// the same directory, flush + fsync, rename over `path`, fsync the
/// directory. Creates parent directories as needed. A crash never leaves a
/// torn `path` — at worst a stale temp file. Throws std::runtime_error on
/// I/O failure.
void atomicWriteFile(const std::string& path, const std::string& contents);

}  // namespace scandiag
