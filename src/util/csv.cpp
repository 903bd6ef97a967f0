#include "util/csv.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace qufi::util {

namespace {

// Buffered bytes are written once this many are pending.
constexpr std::size_t kFlushBytes = 1 << 18;

bool needs_quoting(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
}

}  // namespace

CsvWriter::CsvWriter(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  require(fd_ >= 0, "CsvWriter: cannot open " + path);
  buf_.reserve(kFlushBytes + 4096);
}

CsvWriter::~CsvWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void CsvWriter::flush_buffer() {
  std::size_t done = 0;
  while (done < buf_.size()) {
    const ssize_t n = ::write(fd_, buf_.data() + done, buf_.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const int err = n < 0 ? errno : EIO;
      throw Error("CsvWriter: write failed for " + path_ + ": " +
                  std::strerror(err));
    }
    done += static_cast<std::size_t>(n);
  }
  buf_.clear();
}

void CsvWriter::cell(std::string_view text) {
  separate();
  if (!needs_quoting(text)) {
    buf_ += text;
    return;
  }
  buf_ += '"';
  for (const char c : text) {
    if (c == '"') buf_ += '"';
    buf_ += c;
  }
  buf_ += '"';
}

void CsvWriter::end_row() {
  if (fd_ < 0) throw Error("CsvWriter: write after close for " + path_);
  buf_ += '\n';
  row_open_ = false;
  if (buf_.size() >= kFlushBytes) flush_buffer();
}

void CsvWriter::write_rows(std::string_view rows) {
  if (fd_ < 0) throw Error("CsvWriter: write after close for " + path_);
  require(!row_open_, "CsvWriter: write_rows inside an open row");
  buf_ += rows;
  if (buf_.size() >= kFlushBytes) flush_buffer();
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (const auto& field : fields) cell(field);
  end_row();
}

void CsvWriter::write_row(std::initializer_list<std::string> fields) {
  for (const auto& field : fields) cell(field);
  end_row();
}

void CsvWriter::close() {
  require(fd_ >= 0, "CsvWriter: " + path_ + " is already closed");
  try {
    flush_buffer();
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  const int rc = ::close(fd_);
  const int err = errno;
  fd_ = -1;
  if (rc != 0) {
    throw Error("CsvWriter: close failed for " + path_ + ": " +
                std::strerror(err));
  }
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // swallow CR of CRLF
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

}  // namespace qufi::util
