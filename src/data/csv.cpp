#include "data/csv.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <istream>
#include <iterator>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

namespace scalparc::data {

namespace {

// Bytes one part (or the writer) buffers at a time. A line longer than the
// buffer grows it, so the bound holds for every realistic row width.
constexpr std::size_t kBufferBytes = std::size_t{256} << 10;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("csv: " + what);
}

[[noreturn]] void fail_at(const std::string& name, std::uint64_t line,
                          std::size_t column, const std::string& what) {
  fail(name + ":" + std::to_string(line) + ":" + std::to_string(column) +
       ": " + what);
}

// Parses all of [first, last) as a base-10 integer: no sign other than a
// leading '-', no blanks, no trailing characters, no overflow.
bool parse_int(const char* first, const char* last, std::int32_t& value) {
  const auto [end, ec] = std::from_chars(first, last, value);
  return ec == std::errc{} && end == last;
}

// `text` in single quotes, for messages.
std::string quoted(std::string_view text) {
  std::string out(1, '\'');
  out.append(text);
  out += '\'';
  return out;
}

// Random-access reads of the input bytes: a file through pread(2), or the
// contents of an istream held in memory.
struct Input {
  std::string name;  // the path, or "<stream>"
  std::uint64_t size = 0;
  // Copies up to `n` bytes at `offset` into `out`; returns the count.
  std::function<std::size_t(std::uint64_t offset, char* out, std::size_t n)>
      read_at;
};

// Streams the lines of input bytes [begin, end) through one bounded buffer.
// `begin` is a line start; a last line without '\n' is still a line.
class LineReader {
 public:
  LineReader(const Input& input, std::uint64_t begin, std::uint64_t end)
      : input_(input),
        next_read_(begin),
        end_(end),
        buffer_(static_cast<std::size_t>(
            std::clamp<std::uint64_t>(end - begin, 1, kBufferBytes))) {}

  // The next line, without its '\n' and one trailing '\r'; false at the end.
  bool next(std::string_view& line) {
    for (;;) {
      const char* first = buffer_.data() + head_;
      if (const void* found = std::memchr(first, '\n', tail_ - head_)) {
        const auto* newline = static_cast<const char*>(found);
        line = without_cr(first, newline);
        head_ = static_cast<std::size_t>(newline - buffer_.data()) + 1;
        return true;
      }
      if (next_read_ == end_) {
        if (head_ == tail_) return false;
        line = without_cr(first, buffer_.data() + tail_);
        head_ = tail_;
        return true;
      }
      refill();
    }
  }

  // Input offset of the first byte no line has returned yet.
  std::uint64_t offset() const { return next_read_ - (tail_ - head_); }

 private:
  static std::string_view without_cr(const char* first, const char* last) {
    if (last != first && last[-1] == '\r') --last;
    return {first, static_cast<std::size_t>(last - first)};
  }

  void refill() {
    std::memmove(buffer_.data(), buffer_.data() + head_, tail_ - head_);
    tail_ -= head_;
    head_ = 0;
    if (tail_ == buffer_.size()) buffer_.resize(buffer_.size() * 2);
    const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(
        buffer_.size() - tail_, end_ - next_read_));
    const std::size_t got =
        input_.read_at(next_read_, buffer_.data() + tail_, want);
    if (got == 0) fail(input_.name + ": input shrank while being read");
    tail_ += got;
    next_read_ += got;
  }

  const Input& input_;
  std::uint64_t next_read_;
  const std::uint64_t end_;
  std::vector<char> buffer_;
  std::size_t head_ = 0;  // first unreturned byte in buffer_
  std::size_t tail_ = 0;  // one past the last byte read into buffer_
};

Schema parse_header(std::string_view header, const std::string& name) {
  std::vector<AttributeInfo> attributes;
  std::int32_t num_classes = -1;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = std::min(header.find(',', start), header.size());
    const std::string_view column = header.substr(start, comma - start);
    const auto bad = [&](const std::string& what) {
      fail_at(name, 1, start + 1, what);
    };
    std::vector<std::string_view> fields;
    for (std::size_t from = 0;;) {
      const std::size_t colon = std::min(column.find(':', from), column.size());
      fields.push_back(column.substr(from, colon - from));
      if (colon == column.size()) break;
      from = colon + 1;
    }
    const auto number = [&](std::string_view text) {
      std::int32_t value = 0;
      if (!parse_int(text.data(), text.data() + text.size(), value)) {
        bad("malformed header column " + quoted(column));
      }
      return value;
    };
    if (num_classes != -1) bad("class column must be last");
    if (fields.size() == 2 && fields[0] == "class") {
      num_classes = number(fields[1]);
    } else if (fields.size() == 2 && fields[1] == "cont") {
      attributes.push_back(Schema::continuous(std::string(fields[0])));
    } else if (fields.size() == 3 && fields[1] == "cat") {
      attributes.push_back(
          Schema::categorical(std::string(fields[0]), number(fields[2])));
    } else {
      bad("malformed header column " + quoted(column));
    }
    if (comma == header.size()) break;
    start = comma + 1;
  }
  if (num_classes < 2) {
    fail_at(name, 1, 1, "header must end with class:<C>, C >= 2");
  }
  try {
    return Schema(std::move(attributes), num_classes);
  } catch (const std::exception& e) {
    fail_at(name, 1, 1, e.what());
  }
}

// The one row parser: writes the cells of one body line into one row of a
// dataset sized up front. Parts share it; each writes only its own rows.
class RowParser {
 public:
  RowParser(Dataset& dataset, const std::string& name)
      : name_(name),
        labels_(dataset.mutable_labels().data()),
        num_classes_(dataset.schema().num_classes()) {
    const Schema& schema = dataset.schema();
    for (int a = 0; a < schema.num_attributes(); ++a) {
      const AttributeInfo& info = schema.attribute(a);
      Column column{.info = &info};
      if (info.kind == AttributeKind::kContinuous) {
        column.continuous = dataset.mutable_continuous_column(a).data();
      } else {
        column.categorical = dataset.mutable_categorical_column(a).data();
      }
      columns_.push_back(column);
    }
  }

  // Parses `line` (body line number `line_number`, not blank) into `row`.
  void parse(std::string_view line, std::uint64_t line_number,
             std::size_t row) const {
    const char* const end = line.data() + line.size();
    const char* cell = line.data();
    for (const Column& column : columns_) {
      const auto* comma = static_cast<const char*>(
          std::memchr(cell, ',', static_cast<std::size_t>(end - cell)));
      if (comma == nullptr) wrong_cell_count(line, line_number, end);
      const auto text = [&] {
        return quoted({cell, static_cast<std::size_t>(comma - cell)});
      };
      if (column.continuous != nullptr) {
        double value = 0.0;
        const auto [stop, ec] = std::from_chars(cell, comma, value);
        if (ec == std::errc::result_out_of_range && stop == comma) {
          // from_chars reports underflow to zero like overflow and leaves
          // `value` unset; strtod gives the rounded ±0 or ±inf.
          value = std::strtod(std::string(cell, comma).c_str(), nullptr);
        } else if (ec != std::errc{} || stop != comma) {
          bad(line, line_number, cell,
              "continuous value " + text() + " for '" + column.info->name +
                  "' is not a decimal number");
        }
        // NaN breaks the presort's strict weak order; infinities break
        // split-threshold arithmetic.
        if (!std::isfinite(value)) {
          bad(line, line_number, cell,
              "continuous value " + text() + " for '" + column.info->name +
                  "' is not finite");
        }
        column.continuous[row] = value;
      } else {
        std::int32_t code = 0;
        if (!parse_int(cell, comma, code) || code < 0 ||
            code >= column.info->cardinality) {
          bad(line, line_number, cell,
              "categorical code " + text() + " for '" + column.info->name +
                  "' is not an integer in [0, " +
                  std::to_string(column.info->cardinality) + ")");
        }
        column.categorical[row] = code;
      }
      cell = comma + 1;
    }
    if (const void* extra =
            std::memchr(cell, ',', static_cast<std::size_t>(end - cell))) {
      wrong_cell_count(line, line_number, static_cast<const char*>(extra) + 1);
    }
    std::int32_t label = 0;
    if (!parse_int(cell, end, label) || label < 0 || label >= num_classes_) {
      bad(line, line_number, cell,
          "class label " +
              quoted({cell, static_cast<std::size_t>(end - cell)}) +
              " is not an integer in [0, " + std::to_string(num_classes_) +
              ")");
    }
    labels_[row] = label;
  }

 private:
  struct Column {
    const AttributeInfo* info = nullptr;
    double* continuous = nullptr;         // set for continuous attributes
    std::int32_t* categorical = nullptr;  // set for categorical attributes
  };

  [[noreturn]] void bad(std::string_view line, std::uint64_t line_number,
                        const char* at, const std::string& what) const {
    fail_at(name_, line_number,
            static_cast<std::size_t>(at - line.data()) + 1, what);
  }

  [[noreturn]] void wrong_cell_count(std::string_view line,
                                     std::uint64_t line_number,
                                     const char* at) const {
    bad(line, line_number, at,
        std::to_string(std::count(line.begin(), line.end(), ',') + 1) +
            " cells, expected " + std::to_string(columns_.size() + 1));
  }

  const std::string& name_;
  std::vector<Column> columns_;
  std::int32_t* labels_;
  std::int32_t num_classes_;
};

// Offset of the first line start at or after `offset` (> 0): one past the
// first '\n' at or after offset - 1, or the end of the input.
std::uint64_t line_start_at_or_after(const Input& input, std::uint64_t offset) {
  char chunk[4096];
  for (std::uint64_t at = offset - 1; at < input.size;) {
    const std::size_t got = input.read_at(
        at, chunk,
        static_cast<std::size_t>(
            std::min<std::uint64_t>(sizeof(chunk), input.size - at)));
    if (got == 0) fail(input.name + ": input shrank while being read");
    if (const void* newline = std::memchr(chunk, '\n', got)) {
      return at + static_cast<std::uint64_t>(
                      static_cast<const char*>(newline) - chunk) + 1;
    }
    at += got;
  }
  return input.size;
}

// Runs body(k) for every part k, part 0 on the calling thread and each other
// part on a thread of its own. Rethrows the exception of the first part in
// file order that threw: parts stop at their first error, so that is the
// first error in the file whatever the part count.
void for_each_part(std::size_t parts,
                   const std::function<void(std::size_t)>& body) {
  std::vector<std::exception_ptr> errors(parts);
  const auto guarded = [&](std::size_t k) {
    try {
      body(k);
    } catch (...) {
      errors[k] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(parts - 1);
    for (std::size_t k = 1; k < parts; ++k) threads.emplace_back(guarded, k);
    guarded(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

Dataset read_input(const Input& input, int parts_wanted) {
  if (parts_wanted < 1) throw std::invalid_argument("csv: parts must be >= 1");
  const auto parts = static_cast<std::size_t>(parts_wanted);

  std::uint64_t body = 0;
  Schema schema;
  {
    LineReader reader(input, 0, input.size);
    std::string_view header;
    if (!reader.next(header)) {
      fail_at(input.name, 1, 1, "empty input (missing header)");
    }
    schema = parse_header(header, input.name);
    body = reader.offset();
  }

  // Part k reads bytes [cut[k], cut[k + 1]): near-equal shares of the body,
  // each moved forward to the next line start.
  const std::uint64_t length = input.size - body;
  std::vector<std::uint64_t> cut(parts + 1, input.size);
  cut[0] = body;
  for (std::size_t k = 1; k < parts; ++k) {
    const std::uint64_t share =
        length / parts * k + length % parts * k / parts;
    cut[k] = share == 0 ? body : line_start_at_or_after(input, body + share);
  }

  // Pass 1: lines and records (non-blank lines) per part; an exclusive scan
  // turns them into each part's first line number and first row.
  std::vector<std::uint64_t> lines(parts + 1, 0);
  std::vector<std::uint64_t> records(parts + 1, 0);
  for_each_part(parts, [&](std::size_t k) {
    LineReader reader(input, cut[k], cut[k + 1]);
    std::string_view line;
    while (reader.next(line)) {
      ++lines[k + 1];
      records[k + 1] += !line.empty();
    }
  });
  lines[0] = 1;  // the header
  for (std::size_t k = 0; k < parts; ++k) {
    lines[k + 1] += lines[k];
    records[k + 1] += records[k];
  }

  // Pass 2: each part parses its lines into its own rows.
  Dataset dataset(std::move(schema), static_cast<std::size_t>(records[parts]));
  const RowParser parser(dataset, input.name);
  for_each_part(parts, [&](std::size_t k) {
    LineReader reader(input, cut[k], cut[k + 1]);
    std::string_view line;
    std::uint64_t line_number = lines[k];
    auto row = static_cast<std::size_t>(records[k]);
    const auto end_row = static_cast<std::size_t>(records[k + 1]);
    while (reader.next(line)) {
      ++line_number;
      if (line.empty()) continue;
      if (row == end_row) break;
      parser.parse(line, line_number, row++);
    }
    if (row != end_row || reader.offset() != cut[k + 1]) {
      fail(input.name + ": input changed while being read");
    }
  });
  return dataset;
}

Dataset read_stream(std::istream& in, std::string name) {
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  const Input input{std::move(name), text.size(),
                    [&text](std::uint64_t offset, char* out, std::size_t n) {
                      const auto at = static_cast<std::size_t>(offset);
                      n = std::min(n, text.size() - at);
                      std::memcpy(out, text.data() + at, n);
                      return n;
                    }};
  return read_input(input, 1);
}

// Closes a file descriptor on scope exit.
struct FileDescriptor {
  explicit FileDescriptor(int descriptor) : fd(descriptor) {}
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  ~FileDescriptor() {
    if (fd >= 0) ::close(fd);
  }
  int fd;
};

}  // namespace

void write_csv(const Dataset& dataset, std::ostream& out) {
  const Schema& schema = dataset.schema();
  for (int a = 0; a < schema.num_attributes(); ++a) {
    const AttributeInfo& info = schema.attribute(a);
    out << info.name;
    if (info.kind == AttributeKind::kContinuous) {
      out << ":cont";
    } else {
      out << ":cat:" << info.cardinality;
    }
    out << ',';
  }
  out << "class:" << schema.num_classes() << '\n';

  const auto attributes = static_cast<std::size_t>(schema.num_attributes());
  std::vector<std::span<const double>> continuous(attributes);
  std::vector<std::span<const std::int32_t>> categorical(attributes);
  std::vector<char> is_continuous(attributes);
  for (int a = 0; a < schema.num_attributes(); ++a) {
    const auto i = static_cast<std::size_t>(a);
    is_continuous[i] = schema.attribute(a).kind == AttributeKind::kContinuous;
    if (is_continuous[i]) {
      continuous[i] = dataset.continuous_column(a);
    } else {
      categorical[i] = dataset.categorical_column(a);
    }
  }
  // Widest cell: "-1.7976931348623157e+308" (24) or an int32 (11), plus ','.
  const std::size_t max_row = 25 * (attributes + 1);
  std::vector<char> buffer(std::max(kBufferBytes, 2 * max_row));
  char* const buffer_end = buffer.data() + buffer.size();
  char* pos = buffer.data();
  const std::span<const std::int32_t> labels = dataset.labels();
  for (std::size_t r = 0; r < labels.size(); ++r) {
    for (std::size_t a = 0; a < attributes; ++a) {
      // to_chars(general, 17) is printf's %.17g, exactly what an ostream at
      // precision(17) prints: enough digits to round-trip every double.
      pos = is_continuous[a]
                ? std::to_chars(pos, buffer_end, continuous[a][r],
                                std::chars_format::general, 17)
                      .ptr
                : std::to_chars(pos, buffer_end, categorical[a][r]).ptr;
      *pos++ = ',';
    }
    pos = std::to_chars(pos, buffer_end, labels[r]).ptr;
    *pos++ = '\n';
    if (buffer_end - pos < static_cast<std::ptrdiff_t>(max_row)) {
      out.write(buffer.data(), pos - buffer.data());
      pos = buffer.data();
    }
  }
  out.write(buffer.data(), pos - buffer.data());
}

void write_csv_file(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail("cannot open '" + path + "' for writing");
  write_csv(dataset, out);
}

Dataset read_csv(std::istream& in) { return read_stream(in, "<stream>"); }

Dataset read_csv_file(const std::string& path, int parts) {
  const FileDescriptor file(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  struct stat status {};
  if (file.fd < 0 || ::fstat(file.fd, &status) != 0) {
    fail("cannot open '" + path + "' for reading");
  }
  if (!S_ISREG(status.st_mode)) {
    // Pipes and devices have no offsets to split at: read them as a stream.
    std::ifstream in(path);
    if (!in) fail("cannot open '" + path + "' for reading");
    return read_stream(in, path);
  }
  const Input input{
      path, static_cast<std::uint64_t>(status.st_size),
      [&path, fd = file.fd](std::uint64_t offset, char* out, std::size_t n) {
        for (;;) {
          const ssize_t got = ::pread(fd, out, n, static_cast<off_t>(offset));
          if (got >= 0) return static_cast<std::size_t>(got);
          if (errno != EINTR) {
            fail(path + ": read failed: " +
                 std::generic_category().message(errno));
          }
        }
      }};
  return read_input(input, parts);
}

}  // namespace scalparc::data
