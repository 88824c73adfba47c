#include "common/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/errors.hpp"
#include "common/wire.hpp"

namespace scandiag {
namespace {

// Every record is one wire frame (common/wire.hpp). The header frame is an
// ordinary frame of record type kHeaderType carrying magic + version + setup
// digest + setup info.
constexpr std::uint16_t kHeaderType = 0;
constexpr char kMagic[4] = {'S', 'D', 'J', 'L'};
constexpr std::uint16_t kVersion = 1;
constexpr std::uint32_t kMaxPayload = 1u << 24;  // 16 MiB sanity bound per record
// Sane cap on the header's setup-info string: far above any real setup
// description, far below an allocation a corrupt header could weaponize.
constexpr std::uint32_t kMaxSetupInfo = 64u * 1024;

const std::array<std::uint32_t, 256>& crcTable() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (~(c & 1) + 1));
      t[i] = c;
    }
    return t;
  }();
  return table;
}

std::string headerPayload(std::uint64_t setupDigest, const std::string& setupInfo) {
  std::string payload(kMagic, sizeof kMagic);
  wire::putU16(payload, kVersion);
  wire::putU64(payload, setupDigest);
  wire::putString(payload, setupInfo);
  return payload;
}

[[noreturn]] void throwErrno(const std::string& what, const std::string& path) {
  throw JournalError(what + " '" + path + "': " + std::strerror(errno));
}

void writeAll(int fd, const char* data, std::size_t size, const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throwErrno("journal: write failed for", path);
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsyncOrThrow(int fd, const std::string& path) {
  if (::fsync(fd) != 0) throwErrno("journal: fsync failed for", path);
}

// fsync the directory containing `path` so a just-renamed entry is durable.
void fsyncParentDir(const std::string& path) {
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return;  // best effort: some filesystems refuse directory opens
  ::fsync(dfd);
  ::close(dfd);
}

// Parses the header payload (past the u16 type) or throws JournalFormatError.
void parseHeader(std::string_view payload, const std::string& path, JournalContents& out) {
  if (payload.substr(0, sizeof kMagic) != std::string_view(kMagic, sizeof kMagic)) {
    throw JournalFormatError("journal: '" + path + "' has no SDJL header (not a journal?)");
  }
  wire::Cursor<JournalFormatError> cur(payload.substr(sizeof kMagic));
  const std::uint16_t version = cur.u16();
  if (version != kVersion) {
    throw JournalFormatError("journal: '" + path + "' has unsupported version " +
                             std::to_string(version));
  }
  out.setupDigest = cur.u64();
  const std::uint32_t infoLen = cur.u32();
  // The info length rides inside a CRC-framed payload, but a corrupt header
  // can still be internally consistent — never size an allocation (or accept
  // a setup string) beyond what a writer could legitimately have produced.
  if (infoLen > kMaxSetupInfo) {
    throw JournalCorruptError("journal: '" + path + "' header claims a " +
                              std::to_string(infoLen) + "-byte setup info (cap " +
                              std::to_string(kMaxSetupInfo) + ")");
  }
  if (infoLen != cur.remaining()) {
    throw JournalFormatError("journal: '" + path + "' header info length mismatch");
  }
  out.setupInfo = payload.substr(payload.size() - infoLen);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) c = crcTable()[(c ^ bytes[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a64(const std::string& text, std::uint64_t seed) {
  return fnv1a64(text.data(), text.size(), seed);
}

std::uint64_t fnv1a64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a64(std::uint64_t value, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

JournalContents readJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw FileNotFoundError(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();

  JournalContents out;
  std::size_t pos = 0;
  bool sawHeader = false;
  while (pos < bytes.size()) {
    const wire::FrameView frame =
        wire::checkFrame(std::string_view(bytes).substr(pos), kMaxPayload);
    // An incomplete frame prefix or body at EOF is a torn tail: report + stop.
    if (frame.status == wire::FrameStatus::Incomplete) {
      out.truncatedTail = true;
      out.truncatedAtOffset = pos;
      break;
    }
    if (frame.status == wire::FrameStatus::BadLength) {
      // A wild length on the FIRST frame means this is not a journal at all;
      // past the header it means the bytes rotted in place.
      if (!sawHeader) {
        throw JournalFormatError("journal: '" + path + "' has no SDJL header (not a journal?)");
      }
      throw JournalCorruptError("journal: '" + path + "' frame at offset " +
                                std::to_string(pos) + " has implausible length " +
                                std::to_string(frame.len));
    }
    if (frame.status == wire::FrameStatus::BadCrc) {
      throw JournalCorruptError("journal: '" + path + "' CRC mismatch at offset " +
                                std::to_string(pos));
    }
    if (!sawHeader) {
      if (frame.type != kHeaderType) {
        throw JournalFormatError("journal: '" + path + "' first frame is not a header");
      }
      parseHeader(frame.payload, path, out);
      sawHeader = true;
    } else if (frame.type == kHeaderType) {
      throw JournalFormatError("journal: '" + path + "' has a duplicate header frame at offset " +
                               std::to_string(pos));
    } else {
      out.records.push_back(JournalRecord{frame.type, std::string(frame.payload)});
    }
    pos += frame.size;
  }
  if (!sawHeader) {
    // Empty file or header itself torn: the journal never finished creation,
    // which atomic create should make impossible — treat as format error.
    throw JournalFormatError("journal: '" + path + "' is missing a complete header frame");
  }
  return out;
}

JournalWriter::JournalWriter(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_), appended_(other.appended_) {
  other.fd_ = -1;
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

JournalWriter JournalWriter::create(const std::string& path, std::uint64_t setupDigest,
                                    const std::string& setupInfo) {
  // readJournal refuses a longer setup info: refuse it before any file exists.
  if (setupInfo.size() > kMaxSetupInfo) {
    throw JournalFormatError("journal: '" + path + "' setup info of " +
                             std::to_string(setupInfo.size()) + " bytes exceeds the " +
                             std::to_string(kMaxSetupInfo) + "-byte cap");
  }
  if (std::filesystem::exists(path)) {
    throw JournalError("journal: '" + path + "' already exists (use --resume to continue it)");
  }
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throwErrno("journal: cannot create", tmp);
  try {
    std::string frame;
    wire::putFrame(frame, kHeaderType, headerPayload(setupDigest, setupInfo));
    writeAll(fd, frame.data(), frame.size(), tmp);
    fsyncOrThrow(fd, tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throwErrno("journal: cannot rename into place", path);
  }
  fsyncParentDir(path);
  return JournalWriter(path, fd);
}

JournalWriter JournalWriter::openForAppend(const std::string& path,
                                           std::uint64_t expectedDigest,
                                           JournalContents* contents) {
  JournalContents read = readJournal(path);
  if (read.setupDigest != expectedDigest) {
    std::ostringstream msg;
    msg << "journal: '" << path << "' was written for a different setup (journal digest 0x"
        << std::hex << read.setupDigest << ", this run is 0x" << expectedDigest
        << std::dec << "); refusing to resume";
    if (!read.setupInfo.empty()) msg << " [journal setup: " << read.setupInfo << "]";
    throw JournalDigestMismatchError(msg.str());
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) throwErrno("journal: cannot open for append", path);
  if (read.truncatedTail) {
    // Drop the torn frame so appends land on a frame boundary — otherwise the
    // tear would read as mid-file corruption after the next append.
    if (::ftruncate(fd, static_cast<off_t>(read.truncatedAtOffset)) != 0) {
      ::close(fd);
      throwErrno("journal: cannot truncate torn tail of", path);
    }
    fsyncOrThrow(fd, path);
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    throwErrno("journal: cannot seek to end of", path);
  }
  if (contents) *contents = std::move(read);
  return JournalWriter(path, fd);
}

void JournalWriter::append(std::uint16_t type, const std::string& payload) {
  std::string frame;
  wire::putFrame(frame, type, payload);
  std::lock_guard<std::mutex> lock(mutex_);
  writeAll(fd_, frame.data(), frame.size(), path_);
  fsyncOrThrow(fd_, path_);
  ++appended_;
}

void atomicWriteFile(const std::string& path, const std::string& contents) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::runtime_error("atomicWriteFile: cannot create '" + tmp +
                             "': " + std::strerror(errno));
  }
  try {
    writeAll(fd, contents.data(), contents.size(), tmp);
    fsyncOrThrow(fd, tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw std::runtime_error("atomicWriteFile: cannot rename '" + tmp + "' over '" +
                             path + "': " + std::strerror(err));
  }
  fsyncParentDir(path);
}

}  // namespace scandiag
