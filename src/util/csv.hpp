#pragma once

#include <charconv>
#include <concepts>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace qufi::util {

/// Appends `value` in the CSV number format: integers in plain decimal,
/// floating-point as `%.17g` (round-trip precision; the same bytes as an
/// ostream at precision 17).
template <typename T>
  requires std::is_arithmetic_v<T> && (!std::same_as<T, bool>)
void append_number(std::string& out, T value) {
  char buf[32];
  std::to_chars_result res;
  if constexpr (std::is_floating_point_v<T>) {
    res = std::to_chars(buf, buf + sizeof buf, static_cast<double>(value),
                        std::chars_format::general, 17);
  } else {
    res = std::to_chars(buf, buf + sizeof buf, value);
  }
  out.append(buf, res.ptr);
}

/// Minimal CSV writer with RFC-4180-style quoting.
///
/// Used by campaign result exporters. Output is buffered and written in
/// large blocks; close() reports errors. Every campaign-CSV producer writes
/// to a temp file and renames it into place, so a partial file is never
/// visible under the final name.
class CsvWriter {
 public:
  /// Opens `path` for writing (truncates). Throws qufi::Error on failure.
  explicit CsvWriter(const std::string& path);
  /// A writer destroyed without close() is abandoned: the descriptor is
  /// closed and rows still buffered are dropped (the producer is unwinding
  /// from an error and removes its temp file).
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes a header/data row. Fields containing commas, quotes or newlines
  /// are quoted.
  void write_row(const std::vector<std::string>& fields);
  void write_row(std::initializer_list<std::string> fields);

  /// Appends one text cell to the current row, quoted as write_row would.
  void cell(std::string_view text);
  /// Appends one number cell to the current row (see append_number).
  template <typename T>
    requires std::is_arithmetic_v<T> && (!std::same_as<T, bool>)
  void cell(T value) {
    separate();
    append_number(buf_, value);
  }
  /// Ends the current row.
  void end_row();

  /// Appends whole pre-formatted rows, each ending in a newline, between
  /// rows (no row open).
  void write_rows(std::string_view rows);

  /// Flushes and closes the file. Throws qufi::Error naming the path when
  /// any write, or the close itself, failed. Call it before renaming the
  /// file into place.
  void close();

  /// Formats a number as cell(value) would.
  template <typename T>
  static std::string field(const T& value) {
    std::string out;
    append_number(out, value);
    return out;
  }

 private:
  void separate() {
    if (row_open_) buf_ += ',';
    row_open_ = true;
  }
  void flush_buffer();

  int fd_ = -1;
  std::string buf_;
  bool row_open_ = false;
  std::string path_;
};

/// Splits one CSV line into fields (handles quoted fields). Used by tests
/// and the result-import path.
std::vector<std::string> split_csv_line(const std::string& line);

}  // namespace qufi::util
