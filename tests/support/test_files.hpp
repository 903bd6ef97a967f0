// File helpers shared by the test suites: a per-test scratch directory,
// whole-file read/write, and the corruption sweeps the binary-format tests
// (QUFIPART partials, the dispatcher journal) run over
// a known-good byte string. Each sweep only generates the mutants; the
// calling test keeps its own assertions about what a reader must do. A
// file-size cap makes writers hit a real I/O error mid-file.
#pragma once

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace qufi::test_support {

/// A fresh directory under the system temp dir, removed with its contents
/// when the scope ends. The pid and object address keep concurrently
/// running test binaries apart; `tag` names the test in the path.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("qufi_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(reinterpret_cast<std::uintptr_t>(this)))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  /// The directory itself.
  std::string str() const { return path.string(); }
  /// A file (or subdirectory) name inside it.
  std::string str(const std::string& name) const {
    return (path / name).string();
  }

  std::filesystem::path path;
};

/// The whole file as bytes; a missing file fails the test and reads empty.
inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Replaces the file's contents with `bytes`.
inline void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Caps the size of every file this process writes while in scope: a write
/// past `bytes` fails with EFBIG (SIGXFSZ is ignored meanwhile), the error
/// a full disk or quota gives a writer.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit cap = saved_;
    cap.rlim_cur = bytes;
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &cap), 0);
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, previous_handler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

 private:
  rlimit saved_{};
  void (*previous_handler_)(int) = SIG_DFL;
};

/// Calls fn(mutant, offset, mask) for every single-byte corruption of
/// `bytes`: each offset XORed with 0x01 (low bit) and 0x80 (high bit).
/// Stops early once the test has a fatal failure, as an ASSERT in the test
/// body would.
template <typename Fn>
void for_each_byte_flip(const std::string& bytes, Fn&& fn) {
  std::string mutant = bytes;
  for (const unsigned mask : {0x01u, 0x80u}) {
    for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
      mutant[offset] = static_cast<char>(
          static_cast<unsigned char>(bytes[offset]) ^ mask);
      fn(static_cast<const std::string&>(mutant), offset, mask);
      mutant[offset] = bytes[offset];
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// Calls fn(prefix, length) for every strict prefix of `bytes`, from the
/// empty string up to one byte short — what a writer killed mid-write can
/// leave behind. Stops early on a fatal failure like for_each_byte_flip.
template <typename Fn>
void for_each_truncation(const std::string& bytes, Fn&& fn) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    fn(bytes.substr(0, len), len);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace qufi::test_support
