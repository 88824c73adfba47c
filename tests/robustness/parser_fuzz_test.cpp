// Randomized-input smoke: 100 seeded corruptions of each external format
// (tester session logs, .bench netlists) must come back as a clean typed
// error or a structurally valid parse — never a crash, an over-allocation,
// or a half-built object. Complements the mutation sweep in
// tests/netlist/parser_robustness_test.cpp by checking the *typed* error
// contract (ParseError with a line number, FileNotFoundError for bad paths).
// The bytes read back from disk — checkpoint records, the serve ledger and a
// journal header — get 1,000 seeded mutations and 1,000 seeded truncations
// each, and must decode or throw a JournalError subtype. Defect and shard
// specs get 1,000 seeded mutations each and must parse or throw
// std::invalid_argument; a defect spec also reaches the server off its socket.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/errors.hpp"
#include "common/journal.hpp"
#include "common/rng.hpp"
#include "common/wire.hpp"
#include "diagnosis/checkpoint.hpp"
#include "diagnosis/interval_partitioner.hpp"
#include "diagnosis/session_engine.hpp"
#include "diagnosis/tester_log.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/bench_writer.hpp"
#include "inject/defect_zoo.hpp"
#include "netlist/synthetic_generator.hpp"
#include "serve/accounting.hpp"
#include "serve/service.hpp"
#include "soc/sharded_sweep.hpp"

namespace scandiag {
namespace {

std::string corrupt(const std::string& base, Xoroshiro128& rng) {
  std::string s = base;
  const std::size_t edits = 1 + rng.nextBelow(8);
  for (std::size_t e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t pos = rng.nextBelow(s.size());
    switch (rng.nextBelow(5)) {
      case 0:  // flip a byte (printable range)
        s[pos] = static_cast<char>(' ' + rng.nextBelow(95));
        break;
      case 1:  // truncate the record mid-line
        s.erase(pos);
        break;
      case 2:  // delete a span
        s.erase(pos, 1 + rng.nextBelow(16));
        break;
      case 3:  // blow up an embedded number (out-of-range indices)
        s.insert(pos, "99999999999");
        break;
      default:  // inject garbage tokens
        s.insert(pos, " -7 0x zz\nverdict 9 9 maybe\n");
        break;
    }
  }
  return s;
}

std::string sampleTesterLog() {
  const ScanTopology topo = ScanTopology::singleChain(16);
  const SessionEngine engine(topo, SessionConfig{SignatureMode::Exact, 4});
  const std::vector<Partition> parts{IntervalPartitioner::fromLengths({4, 4, 4, 4}, 16),
                                     IntervalPartitioner::fromLengths({8, 8}, 16)};
  FaultResponse r;
  r.failingCells = BitVector(16);
  r.failingCells.set(5);
  r.failingCellOrdinals.push_back(5);
  BitVector stream(4);
  stream.set(0);
  r.errorStreams.push_back(stream);
  return writeTesterLog(engine.run(parts, r));
}

TEST(ParserFuzz, HundredCorruptTesterLogs) {
  const std::string base = sampleTesterLog();
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Xoroshiro128 rng(0x10600 + seed);
    const std::string text = corrupt(base, rng);
    try {
      const TesterLog log = parseTesterLogString(text);
      // Anything accepted must be self-consistent.
      EXPECT_EQ(log.verdicts.failing.size(), log.numPartitions);
    } catch (const ParseError& e) {
      EXPECT_EQ(e.format(), "session log");
      EXPECT_GE(e.line(), 0);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 20u);  // the mutations are not gentle
}

TEST(ParserFuzz, HundredCorruptBenchFiles) {
  const std::string base = writeBenchString(generateNamedCircuit("s298"));
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Xoroshiro128 rng(0xBE2C4 + seed);
    try {
      const Netlist nl = parseBenchString(corrupt(base, rng), "fuzz");
      nl.validate();
    } catch (const std::invalid_argument&) {
      // ParseError or a validate()-level SCANDIAG_REQUIRE; both are clean.
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 20u);
}

TEST(ParserFuzz, MissingFilesThrowTypedError) {
  EXPECT_THROW(parseTesterLogFile("/nonexistent/tester.log"), FileNotFoundError);
  EXPECT_THROW(parseBenchFile("/nonexistent/c17.bench"), FileNotFoundError);
  try {
    parseTesterLogFile("/nonexistent/tester.log");
    FAIL() << "expected FileNotFoundError";
  } catch (const FileNotFoundError& e) {
    EXPECT_EQ(e.path(), "/nonexistent/tester.log");
  }
}

TEST(ParserFuzz, OversizedSessionHeaderRejectedBeforeAllocating) {
  EXPECT_THROW(parseTesterLogString("sessions 99999999 99999999\n"), ParseError);
  EXPECT_THROW(parseTesterLogString("sessions 1048577 1\n"), ParseError);
}

TEST(ParserFuzz, TrailingTokensRejected) {
  EXPECT_THROW(parseTesterLogString("sessions 2 4 junk\n"), ParseError);
  EXPECT_THROW(parseTesterLogString("sessions 2 4\nverdict 0 0 fail sig 1f junk\n"),
               ParseError);
  EXPECT_THROW(parseTesterLogString("sessions 2 4\nverdict 0 0 fail sig 1fzz\n"), ParseError);
}

TEST(ParserFuzz, ParseErrorCarriesLineNumber) {
  try {
    parseTesterLogString("sessions 2 4\nverdict 0 9 fail\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(ParserFuzz, DffFaninArityEnforced) {
  EXPECT_THROW(parseBenchString("OUTPUT(x)\nx = DFF(a, b)\nINPUT(a)\nINPUT(b)\n", "p"),
               ParseError);
}

TEST(ParserFuzz, NumericOptionsAreWholeUnsignedNumbers) {
  EXPECT_EQ(parseUnsigned("12", "n"), 12u);
  EXPECT_EQ(parseUnsigned("0x7E57ED", "n"), 0x7E57EDu);
  EXPECT_EQ(parseUnsigned("010", "n"), 8u);
  EXPECT_EQ(parseUnsigned("18446744073709551615", "n"), UINT64_MAX);
  for (const char* bad : {"", "abc", "12x", "-5", "+5", " 5", "5 ", "0x", "1e3",
                          "18446744073709551616"}) {
    EXPECT_THROW(parseUnsigned(bad, "n"), std::invalid_argument) << "input: '" << bad << "'";
  }
  EXPECT_EQ(parseUnsigned("4294967295", "n", UINT32_MAX), UINT32_MAX);
  EXPECT_THROW(parseUnsigned("4294967296", "n", UINT32_MAX), std::invalid_argument);
  EXPECT_EQ(parseUnsigned("1", "n", 1), 1u);
  EXPECT_THROW(parseUnsigned("2", "n", 1), std::invalid_argument);
}

TEST(ParserFuzz, RealOptionsAreWholeFiniteReals) {
  EXPECT_EQ(parseReal("0.5", "x"), 0.5);
  EXPECT_EQ(parseReal("1e-3", "x"), 1e-3);
  EXPECT_EQ(parseReal("-0.25", "x"), -0.25);
  EXPECT_EQ(parseReal("1", "x"), 1.0);
  for (const char* bad : {"", " 0.5", "0.5 ", "\t1", "0.5x", "abc", "nan", "-nan", "inf",
                          "-infinity", "1e999", ".", "e3", "0.5,0.5"}) {
    EXPECT_THROW(parseReal(bad, "x"), std::invalid_argument) << "input: '" << bad << "'";
  }
}

constexpr std::uint64_t kFuzzInputs = 1000;

// --- Command-line specs -----------------------------------------------------

/// Text mutations shaped like a typo or a hostile client: a changed, deleted
/// or inserted character, or an inserted token that breaks a number.
std::string mutateSpec(const std::string& base, Xoroshiro128& rng) {
  static const char* const kTokens[] = {" ", "-", "+", ",", ":", "/", "0x", "x",
                                        "99999999999999999999", "4294967296", "nan", "0"};
  std::string s = base;
  const std::size_t edits = 1 + rng.nextBelow(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t pos = rng.nextBelow(s.size() + 1);
    switch (rng.nextBelow(4)) {
      case 0:
        if (pos < s.size()) s[pos] = static_cast<char>(' ' + rng.nextBelow(95));
        break;
      case 1:
        if (pos < s.size()) s.erase(pos, 1 + rng.nextBelow(3));
        break;
      case 2:
        s.insert(pos, 1, "0123456789"[rng.nextBelow(10)]);
        break;
      default:
        s.insert(pos, kTokens[rng.nextBelow(std::size(kTokens))]);
        break;
    }
  }
  return s;
}

TEST(ParserFuzz, ThousandMutatedDefectSpecs) {
  // A defect spec reaches the server off its socket: a refused one must come
  // back as an Error reply carrying the parser's message, before any work.
  const serve::DiagnosisService service(generateNamedCircuit("s27"), [] {
    serve::ServiceConfig config;
    config.diagnosis.groupsPerPartition = 2;
    return config;
  }());
  const std::vector<std::string> bases{"2,bridge,open", "3,intermittent:0.5", "1",
                                       "4,bridge,open,intermittent:0.5,seed:0xC1"};
  std::size_t accepted = 0;
  for (std::uint64_t i = 0; i < kFuzzInputs; ++i) {
    Xoroshiro128 rng(0xDEF5 + i);
    const std::string spec = mutateSpec(bases[rng.nextBelow(bases.size())], rng);
    try {
      const DefectMix mix = parseDefectSpec(spec);
      ++accepted;
      EXPECT_GE(mix.k, 1u) << spec;
      EXPECT_TRUE(mix.intermittentP >= 0.0 && mix.intermittentP < 1.0) << spec;
      const DefectMix again = parseDefectSpec(describeDefectMix(mix));
      EXPECT_EQ(again.k, mix.k) << spec;
      EXPECT_EQ(again.bridges, mix.bridges) << spec;
      EXPECT_EQ(again.opens, mix.opens) << spec;
    } catch (const std::invalid_argument& e) {
      serve::DiagnoseRequest request;
      request.kind = serve::DiagnoseRequest::Kind::DefectScenario;
      request.defectSpec = spec;
      const serve::DiagnoseReply reply = service.handle(request, i, {}, nullptr);
      EXPECT_EQ(reply.status, serve::ReplyStatus::Error) << spec;
      EXPECT_EQ(reply.message, e.what()) << spec;
    }
  }
  EXPECT_GT(accepted, kFuzzInputs / 20);  // the mutations are not all fatal
  EXPECT_LT(accepted, kFuzzInputs / 2);   // nor all harmless
}

TEST(ParserFuzz, ThousandMutatedShardSpecs) {
  std::size_t accepted = 0;
  for (std::uint64_t i = 0; i < kFuzzInputs; ++i) {
    Xoroshiro128 rng(0x5A4D + i);
    const std::string spec = mutateSpec(rng.nextBool() ? "0/4" : "3/16", rng);
    try {
      const SocShardSpec shard = parseShardSpec(spec);
      ++accepted;
      EXPECT_LT(shard.index, shard.count) << spec;
      const std::string canonical =
          std::to_string(shard.index) + "/" + std::to_string(shard.count);
      EXPECT_EQ(parseShardSpec(canonical).count, shard.count) << spec;
    } catch (const std::invalid_argument&) {
    }
  }
  EXPECT_GT(accepted, kFuzzInputs / 20);
  EXPECT_LT(accepted, kFuzzInputs / 2);
}

// --- Disk-side decoders -----------------------------------------------------

/// Binary counterpart of corrupt(): bit flips, random bytes, wild u32s (the
/// shape of a forged length or count), deleted spans and inserted bytes.
std::string mutateBytes(const std::string& base, Xoroshiro128& rng) {
  std::string s = base;
  const std::size_t edits = 1 + rng.nextBelow(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t pos = s.empty() ? 0 : rng.nextBelow(s.size());
    switch (rng.nextBelow(5)) {
      case 0:
        if (!s.empty()) s[pos] = static_cast<char>(s[pos] ^ (1 << rng.nextBelow(8)));
        break;
      case 1:
        if (!s.empty()) s[pos] = static_cast<char>(rng.nextBelow(256));
        break;
      case 2: {
        std::string wild;
        wire::putU32(wild, rng.nextBool() ? 0xFFFFFFFFu : static_cast<std::uint32_t>(rng.next()));
        s.replace(pos, wild.size(), wild);
        break;
      }
      case 3:
        s.erase(pos, 1 + rng.nextBelow(8));
        break;
      default:
        s.insert(pos, std::string(1 + rng.nextBelow(8), static_cast<char>(rng.nextBelow(256))));
        break;
    }
  }
  return s;
}

/// Runs `decode` over kFuzzInputs mutations and kFuzzInputs truncations of
/// `bases`. Every input must decode or throw a JournalError subtype — any
/// other exception (std::bad_alloc, std::length_error) escapes and fails the
/// test. Every strict prefix of a well-formed input must be rejected.
template <class Decode>
void fuzzDiskDecoder(const std::vector<std::string>& bases, std::uint64_t seed, Decode decode) {
  std::size_t rejected = 0;
  for (std::uint64_t i = 0; i < kFuzzInputs; ++i) {
    Xoroshiro128 rng(seed + i);
    const std::string& base = bases[rng.nextBelow(bases.size())];
    try {
      decode(mutateBytes(base, rng));
    } catch (const JournalError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, kFuzzInputs / 4);  // the mutations are not gentle

  for (std::uint64_t i = 0; i < kFuzzInputs; ++i) {
    Xoroshiro128 rng(~seed - i);
    const std::string& base = bases[rng.nextBelow(bases.size())];
    const std::size_t cut = rng.nextBelow(base.size() + 1);
    try {
      decode(base.substr(0, cut));
      EXPECT_EQ(cut, base.size()) << "a " << cut << "-byte prefix decoded";
    } catch (const JournalError&) {
      EXPECT_LT(cut, base.size());
    }
  }
}

TEST(ParserFuzz, ThousandCorruptCheckpointRecords) {
  std::vector<std::string> faults, metas, manifests;
  for (std::uint32_t i = 0; i < 6; ++i) {
    FaultRecord record;
    record.sweepId = 0x5EED0000ULL + i;
    record.faultIndex = 11 * i;
    record.candidateCount = 3 + i;
    record.actualCount = 1 + i;
    record.verdictDigest = 0xD16E57ULL * (i + 1);
    for (std::uint16_t c = 0; c < i; ++c) record.counterDeltas.emplace_back(c, 100 * c + i);
    faults.push_back(encodeFaultRecord(record));

    ShardMetaRecord meta;
    meta.shardIndex = i;
    meta.shardCount = i + 1;
    meta.baseDigest = 0xBA5EULL << i;
    meta.socSpec = std::string("rep:s298x4:w8").substr(0, 2 * i + 1);
    metas.push_back(encodeShardMetaRecord(meta));

    SweepManifestRecord manifest;
    manifest.sweepId = record.sweepId;
    manifest.classHash = 0xC1A55ULL * (i + 1);
    manifest.classOrdinal = i;
    manifest.responseCount = 100 * i;
    manifest.instanceCount = i + 1;
    manifest.className = std::string("s38584#0").substr(0, i + 2);
    manifests.push_back(encodeSweepManifestRecord(manifest));
  }
  fuzzDiskDecoder(faults, 0xF0A1,
                  [](const std::string& bytes) { (void)decodeFaultRecord(bytes); });
  fuzzDiskDecoder(metas, 0x5A4D,
                  [](const std::string& bytes) { (void)decodeShardMetaRecord(bytes); });
  fuzzDiskDecoder(manifests, 0x3A1F,
                  [](const std::string& bytes) { (void)decodeSweepManifestRecord(bytes); });
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A real file's frames, split with the codec that wrote them.
std::vector<std::string> framesOf(const std::string& bytes) {
  std::vector<std::string> frames;
  for (std::size_t pos = 0; pos < bytes.size();) {
    const wire::FrameView frame = wire::checkFrame(std::string_view(bytes).substr(pos), 1u << 24);
    EXPECT_EQ(frame.status, wire::FrameStatus::Ok);
    if (frame.status != wire::FrameStatus::Ok) break;
    frames.push_back(bytes.substr(pos, frame.size));
    pos += frame.size;
  }
  return frames;
}

/// One mutated frame, half the time re-framed with a valid CRC so the bytes
/// reach the decoder behind the frame check instead of dying on the CRC.
std::string mutateFrame(const std::string& frame, Xoroshiro128& rng) {
  if (rng.nextBool()) return mutateBytes(frame, rng);
  const wire::FrameView view = wire::checkFrame(frame, 1u << 24);
  std::string payload(view.payload);
  if (rng.nextBool()) payload = mutateBytes(payload, rng);
  std::uint16_t type = view.type;
  if (rng.nextBelow(4) == 0) type = static_cast<std::uint16_t>(rng.nextBelow(8));
  std::string out;
  wire::putFrame(out, type, payload);
  return out;
}

TEST(ParserFuzz, ThousandCorruptLedgers) {
  const std::string path = ::testing::TempDir() + "/fuzz_ledger.journal";
  std::filesystem::remove(path);
  {
    serve::RequestAccounting accounting(path);
    for (std::uint64_t id = 1; id <= 4; ++id) {
      accounting.accepted(id);
      accounting.terminal(id, static_cast<serve::RequestOutcome>(id - 1));
    }
    accounting.accepted(5);
  }
  const std::vector<std::string> frames = framesOf(slurp(path));
  ASSERT_EQ(frames.size(), 10u);  // header + 9 records
  std::string whole;
  for (const std::string& frame : frames) whole += frame;

  const std::string input = ::testing::TempDir() + "/fuzz_ledger_input.journal";
  // Mutations: one record frame (or the header) is rewritten.
  std::size_t rejected = 0;
  for (std::uint64_t i = 0; i < kFuzzInputs; ++i) {
    Xoroshiro128 rng(0x1ED6E4 + i);
    const std::size_t victim = rng.nextBelow(frames.size());
    std::string bytes;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      bytes += f == victim ? mutateFrame(frames[f], rng) : frames[f];
    }
    dump(input, bytes);
    try {
      const serve::ServeLedger ledger = serve::replayLedger(input);
      EXPECT_TRUE(ledger.balanced());
    } catch (const JournalError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, kFuzzInputs / 4);
  // Truncations: any cut is a torn tail of a balanced ledger or, inside the
  // header, a typed error.
  for (std::uint64_t i = 0; i < kFuzzInputs; ++i) {
    Xoroshiro128 rng(0x7EA2 + i);
    dump(input, whole.substr(0, rng.nextBelow(whole.size() + 1)));
    try {
      EXPECT_TRUE(serve::replayLedger(input).balanced());
    } catch (const JournalError&) {
    }
  }
}

TEST(ParserFuzz, ThousandCorruptJournalHeaders) {
  const std::string path = ::testing::TempDir() + "/fuzz_header.journal";
  std::filesystem::remove(path);
  {
    JournalWriter writer = JournalWriter::create(path, 0x5EED, "fuzz header setup");
    writer.append(1, "record after the header");
  }
  const std::vector<std::string> frames = framesOf(slurp(path));
  ASSERT_EQ(frames.size(), 2u);
  const std::string input = ::testing::TempDir() + "/fuzz_header_input.journal";
  std::size_t rejected = 0;
  for (std::uint64_t i = 0; i < kFuzzInputs; ++i) {
    Xoroshiro128 rng(0x4EAD + i);
    dump(input, mutateFrame(frames[0], rng) + frames[1]);
    try {
      (void)readJournal(input);
    } catch (const JournalError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, kFuzzInputs / 4);
  for (std::uint64_t i = 0; i < kFuzzInputs; ++i) {
    Xoroshiro128 rng(0x7A11 + i);
    const std::size_t cut = rng.nextBelow(frames[0].size() + 1);
    dump(input, frames[0].substr(0, cut));
    try {
      (void)readJournal(input);
      EXPECT_EQ(cut, frames[0].size());
    } catch (const JournalFormatError&) {
      EXPECT_LT(cut, frames[0].size());  // a torn header is not a journal
    }
  }
}

}  // namespace
}  // namespace scandiag
