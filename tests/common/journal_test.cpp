// Journal framing / durability-contract tests (test_common).
//
// The contract under test (common/journal.hpp): a torn tail — the one
// artifact a SIGKILL mid-append can produce — is tolerated and *reported*;
// every other malformation (flipped bytes, wild lengths, foreign files,
// digest mismatches) raises a typed JournalError subtype, never silent
// acceptance and never UB. The fuzz test drives that distinction through 100
// random truncation points.

#include "common/journal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "common/rng.hpp"

namespace scandiag {
namespace {

std::string tempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return bytes;
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Journal, Crc32MatchesKnownVector) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  // Chained partial buffers equal one pass.
  const std::uint32_t part = crc32(check.data(), 4);
  EXPECT_EQ(crc32(check.data() + 4, 5, part), 0xCBF43926u);
}

TEST(Journal, Fnv1a64MatchesKnownVectors) {
  EXPECT_EQ(fnv1a64(std::string("")), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64(std::string("a")), 0xaf63dc4c8601ec8cULL);
  // The u64 overload hashes the value's 8 little-endian bytes.
  const std::string bytes("\x2a\x00\x00\x00\x00\x00\x00\x00", 8);
  EXPECT_EQ(fnv1a64(std::uint64_t{42}, 0xcbf29ce484222325ULL), fnv1a64(bytes));
}

TEST(Journal, CreateAppendReadRoundTrip) {
  const std::string path = tempPath("roundtrip.journal");
  {
    JournalWriter writer = JournalWriter::create(path, 0xD16E57u, "unit test setup");
    writer.append(1, "first");
    writer.append(2, std::string("\x00\xFF""binary", 8));
    writer.append(1, "");
    EXPECT_EQ(writer.appendedRecords(), 3u);
  }
  const JournalContents contents = readJournal(path);
  EXPECT_EQ(contents.setupDigest, 0xD16E57u);
  EXPECT_EQ(contents.setupInfo, "unit test setup");
  EXPECT_FALSE(contents.truncatedTail);
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_EQ(contents.records[0].type, 1u);
  EXPECT_EQ(contents.records[0].payload, "first");
  EXPECT_EQ(contents.records[1].type, 2u);
  EXPECT_EQ(contents.records[1].payload, std::string("\x00\xFF""binary", 8));
  EXPECT_EQ(contents.records[2].payload, "");
}

TEST(Journal, CreateRefusesExistingFile) {
  const std::string path = tempPath("exists.journal");
  { JournalWriter::create(path, 1, "a"); }
  EXPECT_THROW(JournalWriter::create(path, 1, "a"), JournalError);
  // The refused create must not have clobbered the original.
  EXPECT_EQ(readJournal(path).setupDigest, 1u);
}

TEST(Journal, CreateRefusesASetupInfoTheReaderWouldRefuse) {
  // readJournal caps the setup info at 64 KiB; a longer one could be written
  // and appended to but never resumed, so create refuses it before any file.
  const std::string path = tempPath("long_setup.journal");
  EXPECT_THROW(JournalWriter::create(path, 1, std::string(70000, 's')), JournalFormatError);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const std::string longest(64 * 1024, 'i');
  { JournalWriter::create(path, 2, longest); }
  const JournalContents contents = readJournal(path);
  EXPECT_EQ(contents.setupDigest, 2u);
  EXPECT_EQ(contents.setupInfo, longest);
}

TEST(Journal, MissingFileThrowsFileNotFound) {
  EXPECT_THROW(readJournal("/nonexistent/dir/x.journal"), FileNotFoundError);
}

TEST(Journal, TornTailIsToleratedAndReported) {
  const std::string path = tempPath("torn.journal");
  {
    JournalWriter writer = JournalWriter::create(path, 7, "torn");
    writer.append(1, "complete record one");
    writer.append(1, "complete record two");
    writer.append(1, "the record a crash tears");
  }
  const std::string full = slurp(path);
  // Cut mid-way through the last frame — the canonical kill-mid-append state.
  const std::uint64_t cut = full.size() - 5;
  std::filesystem::resize_file(path, cut);

  const JournalContents contents = readJournal(path);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_TRUE(contents.truncatedTail);
  EXPECT_LT(contents.truncatedAtOffset, cut);
  EXPECT_EQ(contents.records[1].payload, "complete record two");
}

TEST(Journal, AppendAfterTornTailLandsOnFrameBoundary) {
  const std::string path = tempPath("torn_append.journal");
  {
    JournalWriter writer = JournalWriter::create(path, 7, "torn");
    writer.append(1, "kept");
    writer.append(1, "torn away");
  }
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);

  JournalContents seen;
  {
    JournalWriter writer = JournalWriter::openForAppend(path, 7, &seen);
    EXPECT_TRUE(seen.truncatedTail);
    ASSERT_EQ(seen.records.size(), 1u);
    writer.append(2, "after resume");
  }
  // The tear was truncated away, so the reopened file reads back clean.
  const JournalContents contents = readJournal(path);
  EXPECT_FALSE(contents.truncatedTail);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[0].payload, "kept");
  EXPECT_EQ(contents.records[1].payload, "after resume");
}

TEST(Journal, FlippedPayloadByteThrowsCorruptError) {
  const std::string path = tempPath("flipped.journal");
  {
    JournalWriter writer = JournalWriter::create(path, 7, "flip");
    writer.append(1, "record whose bytes will rot");
    writer.append(1, "trailing record");
  }
  std::string bytes = slurp(path);
  // Flip one byte inside the first record's payload (well past the header
  // frame, well before EOF — unambiguously mid-file corruption, not a tear).
  const std::size_t headerEnd = bytes.find("flip") + 4;
  bytes[headerEnd + 12] ^= 0x40;
  dump(path, bytes);
  EXPECT_THROW(readJournal(path), JournalCorruptError);
}

TEST(Journal, GarbageFileThrowsFormatError) {
  const std::string path = tempPath("garbage.journal");
  dump(path, "This is a perfectly ordinary text file, not a journal.\n");
  EXPECT_THROW(readJournal(path), JournalFormatError);
  EXPECT_THROW(JournalWriter::openForAppend(path, 7, nullptr), JournalFormatError);
}

TEST(Journal, EmptyFileThrowsFormatError) {
  const std::string path = tempPath("empty.journal");
  dump(path, "");
  EXPECT_THROW(readJournal(path), JournalFormatError);
}

TEST(Journal, DigestMismatchRefusesAppend) {
  const std::string path = tempPath("digest.journal");
  { JournalWriter::create(path, 0xAAAA, "setup A"); }
  try {
    JournalWriter::openForAppend(path, 0xBBBB, nullptr);
    FAIL() << "expected JournalDigestMismatchError";
  } catch (const JournalDigestMismatchError& e) {
    // The message must identify both setups so the operator can tell which
    // run the journal belongs to.
    EXPECT_NE(std::string(e.what()).find("aaaa"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("setup A"), std::string::npos) << e.what();
  }
}

TEST(Journal, RandomTruncationIsAlwaysTornTailOrTypedError) {
  const std::string path = tempPath("fuzz_base.journal");
  {
    JournalWriter writer = JournalWriter::create(path, 99, "fuzz");
    for (int i = 0; i < 8; ++i) {
      writer.append(1, std::string(static_cast<std::size_t>(3 + i * 7), char('a' + i)));
    }
  }
  const std::string full = slurp(path);
  const std::string cutPath = tempPath("fuzz_cut.journal");
  Xoroshiro128 rng(0x7259C473u);
  for (int seed = 0; seed < 100; ++seed) {
    const std::size_t cut = static_cast<std::size_t>(rng.nextBelow(full.size() + 1));
    dump(cutPath, full.substr(0, cut));
    try {
      const JournalContents contents = readJournal(cutPath);
      // Any successful read is a prefix of the written records, in order.
      ASSERT_LE(contents.records.size(), 8u);
      for (std::size_t r = 0; r < contents.records.size(); ++r) {
        EXPECT_EQ(contents.records[r].payload,
                  std::string(static_cast<std::size_t>(3 + r * 7),
                              char('a' + static_cast<char>(r))));
      }
      if (cut < full.size()) {
        EXPECT_TRUE(contents.truncatedTail || contents.records.size() < 8u);
      }
    } catch (const JournalError&) {
      // A cut inside the header frame legitimately reads as "not a journal" —
      // typed, catchable, and exactly what the CLI reports. Anything else
      // (std::bad_alloc from a wild length, a crash) fails the test.
    }
  }
}

TEST(Journal, AtomicWriteFileReplacesWholeFile) {
  const std::string path = tempPath("atomic.json");
  atomicWriteFile(path, "{\"v\": 1}\n");
  EXPECT_EQ(slurp(path), "{\"v\": 1}\n");
  atomicWriteFile(path, "{\"v\": 2, \"longer\": true}\n");
  EXPECT_EQ(slurp(path), "{\"v\": 2, \"longer\": true}\n");
  // No temp litter on the success path.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp." + std::to_string(::getpid())));
}

TEST(Journal, AtomicWriteFileCreatesParentDirectories) {
  const std::string dir = ::testing::TempDir() + "/atomic_sub";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/nested/out.json";
  atomicWriteFile(path, "nested");
  EXPECT_EQ(slurp(path), "nested");
}

}  // namespace
}  // namespace scandiag
